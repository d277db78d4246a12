"""Reference set-up code: the per-class, per-client loops the whole-array
versions in fedcspack.partition and fedcspack.model replaced.

Each function here makes the same seeded RNG calls, in the same order and
with the same arguments, as its counterpart; tests/test_partition_bitwise.py
asserts that both give the same dtypes and the same bytes.
"""

from __future__ import annotations

import numpy as np

from fedcspack.model import FlatParams, ShapeSpec
from fedcspack.partition import Dataset, Partition, PartitionSpec


def synth_blobs(num_classes, dim, samples_per_class, spread, seed) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    feats = []
    labels = []
    for c in range(num_classes):
        feats.append(centers[c] + spread * rng.normal(size=(samples_per_class, dim)))
        labels.append(np.full(samples_per_class, c, dtype=np.int64))
    return Dataset(
        features=np.concatenate(feats).astype(np.float32),
        labels=np.concatenate(labels),
        num_classes=num_classes,
        name="blobs",
    )


def idx_features(pixels: np.ndarray) -> np.ndarray:
    """load_idx's scaling of a (count, rows * cols) u8 pixel matrix."""
    return (pixels.astype(np.float32)) / 255.0


def _largest_remainder_split(indices: np.ndarray, proportions: np.ndarray) -> list[np.ndarray]:
    n = len(indices)
    raw = proportions * n
    counts = np.floor(raw).astype(int)
    shortfall = n - counts.sum()
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    cuts = np.cumsum(counts)[:-1]
    return np.split(indices, cuts)


def _rebalance_floor(assignment: list[np.ndarray], floor: int = 2) -> list[np.ndarray]:
    sizes = [len(a) for a in assignment]
    while min(sizes) < floor:
        donor = int(np.argmax(sizes))
        needy = int(np.argmin(sizes))
        if sizes[donor] <= floor:
            break
        moved = assignment[donor][-1]
        assignment[donor] = assignment[donor][:-1]
        assignment[needy] = np.append(assignment[needy], moved)
        sizes = [len(a) for a in assignment]
    return assignment


def _split_train_test(assignment, labels, test_fraction, rng):
    train, test = [], []
    for rows in assignment:
        rows = np.asarray(rows)
        row_labels = labels[rows]
        positions = np.arange(len(rows))
        te_parts = []
        for c in np.unique(row_labels):
            c_pos = rng.permutation(positions[row_labels == c])
            te_parts.append(c_pos[: int(np.floor(len(c_pos) * test_fraction))])
        te = np.concatenate(te_parts)
        if len(te) == 0:
            n_te_target = max(1, int(np.floor(len(rows) * test_fraction)))
            te = rng.permutation(len(rows))[:n_te_target]
        te = te[: len(rows) - 1]
        is_train = np.ones(len(rows), dtype=bool)
        is_train[te] = False
        train.append(np.sort(rows[is_train]).astype(np.int64, copy=False))
        test.append(np.sort(rows[te]).astype(np.int64, copy=False))
    return train, test


def partition_dirichlet(data: Dataset, spec: PartitionSpec) -> Partition:
    rng = np.random.default_rng(spec.seed)
    per_client: list[list[int]] = [[] for _ in range(spec.num_clients)]
    for c in range(data.num_classes):
        c_rows = np.flatnonzero(data.labels == c)
        if len(c_rows) == 0:
            continue
        c_rows = rng.permutation(c_rows)
        p = rng.dirichlet(np.full(spec.num_clients, spec.alpha))
        for i, chunk in enumerate(_largest_remainder_split(c_rows, p)):
            per_client[i].extend(chunk.tolist())
    assignment = [np.sort(np.array(rows, dtype=np.int64)) for rows in per_client]
    assignment = _rebalance_floor(assignment)
    train, test = _split_train_test(assignment, data.labels, spec.test_fraction, rng)
    return Partition(assignment=assignment, train=train, test=test)


def partition_pathological(data: Dataset, spec: PartitionSpec) -> Partition:
    n = len(data)
    num_shards = spec.num_clients * spec.shards_per_client
    rng = np.random.default_rng(spec.seed)
    order = np.lexsort((np.arange(n), data.labels))
    shards = np.array_split(order, num_shards)
    deal = rng.permutation(num_shards)
    assignment = []
    for i in range(spec.num_clients):
        mine = deal[i * spec.shards_per_client : (i + 1) * spec.shards_per_client]
        assignment.append(np.sort(np.concatenate([shards[s] for s in mine])))
    assignment = _rebalance_floor(assignment)
    train, test = _split_train_test(assignment, data.labels, spec.test_fraction, rng)
    return Partition(assignment=assignment, train=train, test=test)


def init_params(shape: ShapeSpec, seed: int) -> FlatParams:
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in shape.layer_dims:
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out)
        parts.append(w.astype(np.float32))
        parts.append(np.zeros(fan_out, dtype=np.float32))
    return FlatParams(np.concatenate(parts), shape)
