"""Dataset synthesis, IDX ingestion and Non-IID partitioning.

Two partition laws: Dirichlet label-skew (per-class proportions drawn from
Dir(alpha)) and pathological shards (label-sorted rows cut into contiguous
shards dealt randomly).  Both are deterministic per seed and produce an
exact, disjoint cover of the dataset rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ConfigError("features/labels row count mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ConfigError("label out of range")

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class PartitionSpec:
    law: str  # "dirichlet" | "pathological"
    num_clients: int
    seed: int
    alpha: float = 0.5
    shards_per_client: int = 2
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.law not in ("dirichlet", "pathological"):
            raise ConfigError(f"unknown partition law {self.law!r}")
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if self.law == "dirichlet" and not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError("alpha must be finite and > 0")
        if self.law == "pathological" and self.shards_per_client < 1:
            raise ConfigError("shards_per_client must be >= 1")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction must be in (0, 1)")


@dataclass(frozen=True)
class Partition:
    """Per-client row indices plus train/test sub-splits."""

    assignment: list[np.ndarray]
    train: list[np.ndarray]
    test: list[np.ndarray]

    @property
    def num_clients(self) -> int:
        return len(self.assignment)


def synth_blobs(
    num_classes: int,
    dim: int,
    samples_per_class: int,
    spread: float,
    seed: int,
) -> Dataset:
    """Gaussian blobs: one unit-norm random center per class, isotropic noise."""
    if min(num_classes, dim, samples_per_class) < 1:
        raise ConfigError("counts must be >= 1")
    if not (math.isfinite(spread) and spread > 0):
        raise ConfigError("spread must be finite and > 0")
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


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise IngestError(f"{path}: truncated header at offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load an IDX image/label pair (big-endian headers, u8 payloads)."""
    images_path = Path(images_path)
    labels_path = Path(labels_path)

    img_buf = images_path.read_bytes()
    magic = _read_be_u32(img_buf, 0, str(images_path))
    if magic != IDX_IMAGE_MAGIC:
        raise IngestError(f"{images_path}: wrong magic 0x{magic:08x} at offset 0")
    count = _read_be_u32(img_buf, 4, str(images_path))
    rows = _read_be_u32(img_buf, 8, str(images_path))
    cols = _read_be_u32(img_buf, 12, str(images_path))
    expected = 16 + count * rows * cols
    if len(img_buf) < expected:
        raise IngestError(f"{images_path}: truncated at offset {len(img_buf)}")
    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=count * rows * cols, offset=16)
    features = (pixels.reshape(count, rows * cols).astype(np.float32)) / 255.0

    lab_buf = labels_path.read_bytes()
    magic = _read_be_u32(lab_buf, 0, str(labels_path))
    if magic != IDX_LABEL_MAGIC:
        raise IngestError(f"{labels_path}: wrong magic 0x{magic:08x} at offset 0")
    lab_count = _read_be_u32(lab_buf, 4, str(labels_path))
    if len(lab_buf) < 8 + lab_count:
        raise IngestError(f"{labels_path}: truncated at offset {len(lab_buf)}")
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=lab_count, offset=8).astype(np.int64)

    if count != lab_count:
        raise IngestError(
            f"{images_path}: count mismatch ({count} images vs {lab_count} labels)"
        )
    num_classes = int(labels.max()) + 1 if lab_count else 0
    return Dataset(features=features, labels=labels, num_classes=num_classes, name=images_path.stem)


def save_idx(data: Dataset, images_path: str | Path, labels_path: str | Path) -> None:
    """Export a dataset to the IDX layout (features scaled back to u8)."""
    n, d = data.features.shape
    pixels = np.clip(np.round(data.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, 1, d))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(data.labels.astype(np.uint8).tobytes())


def _largest_remainder_split(indices: np.ndarray, proportions: np.ndarray) -> list[np.ndarray]:
    """Cut `indices` into len(proportions) chunks whose sizes follow the
    proportions exactly (largest-remainder rounding, no leftovers)."""
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
    """Move single rows from the largest client until everyone holds >= floor."""
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


def _split_train_test(
    assignment: list[np.ndarray],
    labels: np.ndarray,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Seeded per-client holdout, stratified by label where counts allow;
    every client keeps at least one train and one test row."""
    train, test = [], []
    for rows in assignment:
        rows = np.asarray(rows)
        if len(rows) < 2:
            train.append(rows)
            test.append(np.array([], dtype=np.int64))
            continue
        # shuffle positions within `rows`: a permutation's draws depend only
        # on its length, so this picks the same rows as shuffling the rows
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
    """Label-skew split: each class's rows divided by a Dir(alpha) draw."""
    if spec.law != "dirichlet":
        raise ConfigError("spec.law must be 'dirichlet'")
    if len(data) < spec.num_clients:
        raise ConfigError(
            f"insufficient data: {len(data)} rows for {spec.num_clients} clients"
        )
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
    """Label-sorted rows cut into equal contiguous shards, dealt randomly."""
    if spec.law != "pathological":
        raise ConfigError("spec.law must be 'pathological'")
    n = len(data)
    num_shards = spec.num_clients * spec.shards_per_client
    if n < num_shards:
        raise ConfigError(
            f"shard size would be 0: {n} rows for {num_shards} shards"
        )
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


def make_partition(data: Dataset, spec: PartitionSpec) -> Partition:
    if spec.law == "dirichlet":
        return partition_dirichlet(data, spec)
    return partition_pathological(data, spec)


def label_histogram(data: Dataset, rows: np.ndarray) -> np.ndarray:
    return np.bincount(data.labels[rows], minlength=data.num_classes)
