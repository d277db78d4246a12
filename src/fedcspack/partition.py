"""Dataset synthesis, IDX ingestion and Non-IID partitioning.

`make_partition` is the one partition entry point.  Its two laws, Dirichlet
label-skew (per-class proportions drawn from Dir(alpha)) and pathological
shards (label-sorted rows cut into contiguous shards dealt randomly), are
deterministic per seed and produce an exact, disjoint cover of the rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestError, InvariantError, require_int, require_real

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
        require_int("num_clients", self.num_clients, 1)
        require_int("partition.seed", self.seed, 0)
        require_int("shards_per_client", self.shards_per_client, 1)
        require_real("partition.alpha", self.alpha, "(0, inf)")
        require_real("partition.test_fraction", self.test_fraction, "(0, 1)")


@dataclass(frozen=True)
class Partition:
    """Per-client row indices plus train/test sub-splits."""

    assignment: list[np.ndarray]
    train: list[np.ndarray]
    test: list[np.ndarray]


def synth_blobs(
    num_classes: int,
    dim: int,
    samples_per_class: int,
    spread: float,
    seed: int,
) -> Dataset:
    """Gaussian blobs: one unit-norm random center per class, isotropic noise.
    Raises ConfigError when a feature is not finite in float32."""
    if min(num_classes, dim, samples_per_class) < 1:
        raise ConfigError("counts must be >= 1")
    require_real("spread", spread, "(0, inf)")
    rng = np.random.default_rng(seed)
    # standard_normal(shape) makes the same draws as normal(size=shape),
    # which returns 0.0 + 1.0 * z: the two differ only at z = -0.0, a sign
    # that `z * spread + center` loses unless the other term is zero too
    centers = rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    features = np.empty((num_classes * samples_per_class, dim), dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflow is reported below, as a ConfigError
        for c in range(num_classes):
            z = rng.standard_normal((samples_per_class, dim))
            z *= spread
            z += centers[c]
            features[c * samples_per_class : (c + 1) * samples_per_class] = z
    if not np.isfinite(features).all():
        raise ConfigError(f"dataset.spread {spread!r} overflows float32 features")
    return Dataset(
        features=features,
        labels=np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class),
        num_classes=num_classes,
        name="blobs",
    )


def _read_idx(path: str | Path, magic: int, dims: int) -> tuple[np.ndarray, list[int]]:
    """One IDX file's read-only u8 payload and its `dims` sizes, checked in
    order: the header fits, the magic matches, the payload covers every
    element, and nothing follows it."""
    buf = Path(path).read_bytes()
    header = 4 * (1 + dims)
    if len(buf) < header:
        raise IngestError(f"{path}: truncated header at offset {len(buf)}")
    found, *sizes = struct.unpack_from(f">{1 + dims}I", buf)
    if found != magic:
        raise IngestError(f"{path}: wrong magic 0x{found:08x} at offset 0")
    count = math.prod(sizes)
    if len(buf) < header + count:
        raise IngestError(f"{path}: truncated at offset {len(buf)}")
    if len(buf) > header + count:
        raise IngestError(f"{path}: trailing bytes at offset {header + count}")
    return np.frombuffer(buf, dtype=np.uint8, count=count, offset=header), sizes


def _write_idx(path: str | Path, magic: int, payload: np.ndarray) -> None:
    """Write `payload`, a u8 array, as one IDX file: the magic, its shape
    as u32 sizes, then its bytes."""
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + payload.ndim}I", magic, *payload.shape))
        f.write(payload.tobytes())


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load an IDX image/label pair (big-endian headers, u8 payloads)."""
    images_path = Path(images_path)
    pixels, (count, rows, cols) = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    features = pixels.reshape(count, rows * cols).astype(np.float32)
    features /= 255.0
    raw_labels, (lab_count,) = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    labels = raw_labels.astype(np.int64)

    if count != lab_count:
        raise IngestError(
            f"{images_path}: count mismatch ({count} images vs {lab_count} labels)"
        )
    num_classes = int(labels.max()) + 1 if lab_count else 0
    return Dataset(features=features, labels=labels, num_classes=num_classes, name=images_path.stem)


def save_idx(data: Dataset, images_path: str | Path, labels_path: str | Path) -> None:
    """Export a dataset to the IDX layout (features scaled back to u8).

    IDX labels are u8: a label above 255 is a ConfigError, raised before
    either file is written."""
    if len(data.labels) and data.labels.max() > 255:
        raise ConfigError(f"IDX labels are u8, got label {data.labels.max()}")
    n, d = data.features.shape
    pixels = np.clip(np.round(data.features * 255.0), 0, 255).astype(np.uint8)
    _write_idx(images_path, IDX_IMAGE_MAGIC, pixels.reshape(n, 1, d))
    _write_idx(labels_path, IDX_LABEL_MAGIC, data.labels.astype(np.uint8))


def _largest_remainder_counts(sizes: np.ndarray, proportions: np.ndarray) -> np.ndarray:
    """Row r cuts sizes[r] items into counts that follow proportions[r]
    exactly: floors, plus one for each of the largest remainders (ties to
    the lower index) until the counts sum to sizes[r]."""
    raw = proportions * sizes[:, None]
    counts = np.floor(raw).astype(np.int64)
    shortfall = sizes - counts.sum(axis=1)
    rank = np.argsort(-(raw - counts), axis=1, kind="stable").argsort(axis=1)
    counts += rank < shortfall[:, None]
    return counts


def _group_by_owner(rows: np.ndarray, owner: np.ndarray, num_owners: int) -> list[np.ndarray]:
    """Each owner's rows (row indices, so >= 0; at least one) in ascending
    order: one sort of the key owner * span + row, then one cut at the owner counts."""
    counts = np.bincount(owner, minlength=num_owners)
    base = np.arange(num_owners) * (int(rows.max()) + 1)
    grouped = np.sort(base[owner] + rows) - np.repeat(base, counts)
    ends = np.cumsum(counts).tolist()
    return [grouped[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _rebalance_floor(assignment: list[np.ndarray], floor: int = 2) -> list[np.ndarray]:
    """Move single rows from the largest client until everyone holds >= floor.
    Raises InvariantError when no client holds more than floor rows to give."""
    sizes = [len(a) for a in assignment]
    while min(sizes) < floor:
        donor = int(np.argmax(sizes))
        needy = int(np.argmin(sizes))
        if sizes[donor] <= floor:
            raise InvariantError(
                f"rebalance: {sum(sizes)} rows cannot give {len(sizes)} clients {floor} each"
            )
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
    """Seeded per-client holdout, stratified by label where counts allow.
    Every client must hold at least two rows, as `make_partition` ensures;
    each then keeps at least one train and one test row.

    A client has one segment per label it holds,
    taken in (client, label) order: a stable sort leaves each segment's
    positions ascending, so shuffling it in place draws and yields what
    `rng.permutation` of those positions would.  One loop walks the
    clients and their segments in that order: it shuffles each segment
    and takes its first floor(size * test_fraction) positions as test
    rows; after a client's last segment, if none gave a test row, it draws
    one permutation of the client's positions and takes the first
    max(1, floor(rows * test_fraction)).  floor(k * f) < k for 0 < f < 1,
    so every client keeps a train row.
    """
    num_clients = len(assignment)
    sizes = [len(rows) for rows in assignment]
    rows = np.concatenate(assignment).astype(np.int64, copy=False)
    client = np.repeat(np.arange(num_clients), sizes)
    row_labels = labels[rows]
    num_labels = int(row_labels.max()) + 1
    key = client * num_labels + row_labels
    by_segment = np.argsort(key, kind="stable")
    seg_sizes = np.bincount(key, minlength=num_clients * num_labels).reshape(num_clients, num_labels)
    seg_test = np.floor(seg_sizes * test_fraction).astype(np.int64)

    picked = []
    end = 0
    for size, segments, heads in zip(sizes, seg_sizes.tolist(), seg_test.tolist()):
        first, found = end, len(picked)
        for n, k in zip(segments, heads):
            if n:
                segment = by_segment[end : end + n]
                end += n
                rng.shuffle(segment)
                if k:
                    picked.append(segment[:k])
        if len(picked) == found:
            picked.append(first + rng.permutation(size)[: max(1, int(size * test_fraction))])
    is_test = np.zeros(len(rows), dtype=bool)
    is_test[np.concatenate(picked)] = True
    groups = _group_by_owner(rows, client + num_clients * is_test, 2 * num_clients)
    return groups[:num_clients], groups[num_clients:]


def _dirichlet_owners(
    data: Dataset, spec: PartitionSpec, rng: np.random.Generator, by_label: np.ndarray
) -> np.ndarray:
    """Label skew: each class's rows divided by a Dir(alpha) draw.  Each
    class's block of `by_label` is shuffled in place, as rng.permutation
    would shuffle a copy, before its draw."""
    class_sizes = np.bincount(data.labels, minlength=data.num_classes)
    proportions = np.zeros((data.num_classes, spec.num_clients))
    alphas = np.full(spec.num_clients, spec.alpha)
    end = 0
    for c, size in enumerate(class_sizes.tolist()):
        start, end = end, end + size
        if size:
            rng.shuffle(by_label[start:end])
            proportions[c] = rng.dirichlet(alphas)
    counts = _largest_remainder_counts(class_sizes, proportions)
    return np.repeat(np.tile(np.arange(spec.num_clients), data.num_classes), counts.ravel())


def _shard_owners(n: int, spec: PartitionSpec, rng: np.random.Generator) -> np.ndarray:
    """Pathological shards: label-sorted rows cut into equal contiguous
    shards, dealt randomly."""
    num_shards = spec.num_clients * spec.shards_per_client
    if n < num_shards:
        raise ConfigError(f"shard size would be 0: {n} rows for {num_shards} shards")
    deal = rng.permutation(num_shards)
    shard_owner = np.empty(num_shards, dtype=np.int64)
    shard_owner[deal] = np.arange(num_shards) // spec.shards_per_client
    # np.array_split's cut: the first n % num_shards shards hold a row more
    small, extra = divmod(n, num_shards)
    return np.repeat(shard_owner, small + (np.arange(num_shards) < extra))


def make_partition(data: Dataset, spec: PartitionSpec) -> Partition:
    """The one partition entry point: the law gives an owner to each row of
    the stable label sort, then the shared steps (group, rebalance,
    holdout) run on the same generator.  Raises ConfigError for fewer than
    two rows per client: each needs a train row and a test row."""
    rng = np.random.default_rng(spec.seed)
    # each class's rows, ascending, one block per class
    by_label = np.argsort(data.labels, kind="stable")
    owner = (_dirichlet_owners(data, spec, rng, by_label) if spec.law == "dirichlet"
             else _shard_owners(len(data), spec, rng))
    if len(data) < 2 * spec.num_clients:
        raise ConfigError(
            f"insufficient data: {len(data)} rows for {spec.num_clients} clients "
            "(each needs a train row and a test row)"
        )
    assignment = _rebalance_floor(_group_by_owner(by_label, owner, spec.num_clients))
    train, test = _split_train_test(assignment, data.labels, spec.test_fraction, rng)
    return Partition(assignment=assignment, train=train, test=test)


def label_histogram(data: Dataset, rows: np.ndarray) -> np.ndarray:
    return np.bincount(data.labels[rows], minlength=data.num_classes)
