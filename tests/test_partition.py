import re
import struct
import warnings

import numpy as np
import pytest

from fedcspack.errors import ConfigError, IngestError
from fedcspack.partition import (
    Dataset,
    PartitionSpec,
    label_histogram,
    load_idx,
    make_partition,
    save_idx,
    synth_blobs,
)


def assert_exact_cover(partition, n_rows):
    all_rows = np.concatenate(partition.assignment)
    assert len(all_rows) == n_rows
    assert len(np.unique(all_rows)) == n_rows
    for tr, te in zip(partition.train, partition.test):
        assert len(np.intersect1d(tr, te)) == 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2),
         "features/labels row count mismatch"),
        (lambda: Dataset(np.zeros((2, 2)), np.array([0, 2]), 2), "label out of range"),
        (lambda: Dataset(np.zeros((2, 2)), np.array([-1, 0]), 2), "label out of range"),
        (lambda: synth_blobs(0, 4, 10, 0.3, 0), "counts must be >= 1"),
        (lambda: synth_blobs(2, 4, 0, 0.3, 0), "counts must be >= 1"),
        # features that overflow float32, and float64 before the cast
        (lambda: synth_blobs(10, 64, 1, 1e300, 0), "dataset.spread"),
        (lambda: synth_blobs(10, 64, 1, 1.7e308, 0), "dataset.spread"),
    ],
)
def test_bad_dataset_rejected(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the ConfigError alone, no warning before it
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()


class TestSynthBlobs:
    def test_construction_counts(self):
        data = synth_blobs(10, 8, 200, spread=0.5, seed=1)
        assert len(data) == 2000
        assert all(np.sum(data.labels == c) == 200 for c in range(10))

    def test_determinism(self):
        a = synth_blobs(5, 4, 30, spread=0.3, seed=9)
        b = synth_blobs(5, 4, 30, spread=0.3, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_large_finite_spread_kept(self):
        data = synth_blobs(10, 64, 1, spread=1e30, seed=0)
        assert np.isfinite(data.features).all()
        assert np.abs(data.features).max() > 1e30

    def test_separability_limit(self):
        data = synth_blobs(6, 8, 50, spread=1e-6, seed=2)
        # nearest-center classifier on the class means scores 100%
        centers = np.stack(
            [data.features[data.labels == c].mean(axis=0) for c in range(6)]
        )
        dists = np.linalg.norm(data.features[:, None, :] - centers[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1), data.labels)


class TestIdx:
    def write_pair(self, tmp_path, images, labels, img_magic=0x803, lab_magic=0x801):
        n, rows, cols = images.shape
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", img_magic, n, rows, cols) + images.tobytes())
        lab.write_bytes(struct.pack(">II", lab_magic, len(labels)) + bytes(labels))
        return img, lab

    def test_hand_built_fixture(self, tmp_path):
        images = np.arange(18, dtype=np.uint8).reshape(2, 3, 3) * 10
        img, lab = self.write_pair(tmp_path, images, [1, 0])
        data = load_idx(img, lab)
        assert data.features.shape == (2, 9)
        assert np.allclose(data.features[0], np.arange(9) * 10 / 255.0)
        assert np.allclose(data.features[1], (np.arange(9, 18) * 10 % 256) / 255.0)
        assert list(data.labels) == [1, 0]

    def test_wrong_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = self.write_pair(tmp_path, images, [0], lab_magic=0x803)
        with pytest.raises(IngestError, match="wrong magic"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lab = self.write_pair(tmp_path, images, [0, 1])
        with pytest.raises(IngestError, match="count mismatch"):
            load_idx(img, lab)

    def test_truncated(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = self.write_pair(tmp_path, images, [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(IngestError, match="truncated"):
            load_idx(img, lab)

    @pytest.mark.parametrize("which, extra", [("img", 9), ("lab", 3)])
    def test_trailing_bytes(self, tmp_path, which, extra):
        # 9 extra image bytes would make a 15th row; nothing may follow the payload
        img, lab = self.write_pair(tmp_path, np.zeros((14, 3, 3), dtype=np.uint8), [0, 1] * 7)
        path = {"img": img, "lab": lab}[which]
        exact = path.read_bytes()
        path.write_bytes(exact + bytes(extra))
        with pytest.raises(IngestError, match=f"{path.name}: trailing bytes at offset {len(exact)}"):
            load_idx(img, lab)

    @pytest.mark.parametrize("short", ["img", "lab"])
    def test_short_header_reported_before_magic(self, tmp_path, short):
        # the 6 bytes left hold a wrong magic, but the header is checked first
        img, lab = self.write_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        path = {"img": img, "lab": lab}[short]
        path.write_bytes(b"\x00\x00\x09\x99\x00\x00")
        with pytest.raises(IngestError, match=f"{path.name}: truncated header at offset 6"):
            load_idx(img, lab)

    def test_save_writes_the_idx_layout(self, tmp_path):
        data = Dataset(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2]], dtype=np.float32),
                       np.array([1, 0]), 2)
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(data, images, labels)
        assert images.read_bytes() == struct.pack(">IIII", 0x803, 2, 1, 3) + bytes([0, 255, 128, 255, 0, 51])
        assert labels.read_bytes() == struct.pack(">II", 0x801, 2) + bytes([1, 0])

    def test_save_load_roundtrip(self, tmp_path):
        data = synth_blobs(4, 6, 20, spread=0.2, seed=7)
        # squash into [0,1] so the u8 export is lossless enough to compare labels
        scaled = Dataset(
            features=(data.features - data.features.min())
            / (data.features.max() - data.features.min()),
            labels=data.labels,
            num_classes=4,
        )
        save_idx(scaled, tmp_path / "i.idx", tmp_path / "l.idx")
        back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.array_equal(back.labels, scaled.labels)
        assert np.allclose(back.features, scaled.features, atol=1 / 255.0)

    def test_save_rejects_label_above_u8(self, tmp_path):
        # a u8 cast would wrap label 299 to 43 and read back 256 classes
        data = synth_blobs(300, 2, 1, spread=0.2, seed=7)
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        with pytest.raises(ConfigError, match="IDX labels are u8, got label 299"):
            save_idx(data, images, labels)
        assert not images.exists() and not labels.exists()
        save_idx(Dataset(data.features[:256], data.labels[:256], 256), images, labels)
        assert load_idx(images, labels).num_classes == 256


class TestDirichlet:
    def test_iid_limit(self):
        data = synth_blobs(10, 4, 1000, spread=0.5, seed=3)  # 10k rows
        spec = PartitionSpec(law="dirichlet", num_clients=10, seed=4, alpha=1e6)
        part = make_partition(data, spec)
        global_props = np.bincount(data.labels, minlength=10) / len(data)
        for rows in part.assignment:
            props = label_histogram(data, rows) / len(rows)
            assert np.all(np.abs(props - global_props) < 0.05)

    def test_single_client_gets_everything(self):
        data = synth_blobs(3, 4, 20, spread=0.5, seed=5)
        spec = PartitionSpec(law="dirichlet", num_clients=1, seed=6, alpha=0.5)
        part = make_partition(data, spec)
        assert len(part.assignment[0]) == len(data)

    def test_exact_cover(self):
        data = synth_blobs(5, 4, 40, spread=0.5, seed=7)
        spec = PartitionSpec(law="dirichlet", num_clients=7, seed=8, alpha=0.3)
        part = make_partition(data, spec)
        assert_exact_cover(part, len(data))

    def test_floor_rule(self):
        data = synth_blobs(2, 3, 20, spread=0.5, seed=9)
        spec = PartitionSpec(law="dirichlet", num_clients=8, seed=10, alpha=0.05)
        part = make_partition(data, spec)
        assert all(len(rows) >= 2 for rows in part.assignment)

    def test_insufficient_data(self):
        data = synth_blobs(2, 3, 2, spread=0.5, seed=1)  # 4 rows
        spec = PartitionSpec(law="dirichlet", num_clients=10, seed=2, alpha=1.0)
        with pytest.raises(ConfigError, match="insufficient data"):
            make_partition(data, spec)

    def test_determinism(self):
        data = synth_blobs(4, 4, 50, spread=0.5, seed=11)
        spec = PartitionSpec(law="dirichlet", num_clients=5, seed=12, alpha=0.5)
        a = make_partition(data, spec)
        b = make_partition(data, spec)
        for x, y in zip(a.assignment, b.assignment):
            assert np.array_equal(x, y)
        for x, y in zip(a.test, b.test):
            assert np.array_equal(x, y)


class TestPathological:
    def test_few_classes_per_client(self):
        data = synth_blobs(10, 4, 100, spread=0.5, seed=13)  # balanced, 1000 rows
        spec = PartitionSpec(law="pathological", num_clients=10, seed=14, shards_per_client=2)
        part = make_partition(data, spec)
        for rows in part.assignment:
            assert len(np.unique(data.labels[rows])) <= 2

    def test_single_client_holds_every_shard(self):
        data = synth_blobs(3, 4, 30, spread=0.5, seed=15)
        spec = PartitionSpec(law="pathological", num_clients=1, seed=16, shards_per_client=4)
        part = make_partition(data, spec)
        assert len(part.assignment[0]) == len(data)

    def test_exact_cover(self):
        data = synth_blobs(6, 4, 33, spread=0.5, seed=17)
        spec = PartitionSpec(law="pathological", num_clients=9, seed=18, shards_per_client=2)
        part = make_partition(data, spec)
        assert_exact_cover(part, len(data))

    def test_zero_shard_size_error(self):
        data = synth_blobs(2, 3, 2, spread=0.5, seed=19)  # 4 rows
        spec = PartitionSpec(law="pathological", num_clients=5, seed=20, shards_per_client=2)
        with pytest.raises(ConfigError, match="shard size"):
            make_partition(data, spec)


def client_entropy(data, partition):
    ents = []
    for rows in partition.assignment:
        p = label_histogram(data, rows) / len(rows)
        p = p[p > 0]
        ents.append(-(p * np.log(p)).sum())
    return float(np.mean(ents))


def test_dirichlet_entropy_ordering():
    data = synth_blobs(10, 4, 100, spread=0.5, seed=21)
    means = {}
    for alpha in (0.1, 1.0, 100.0):
        vals = []
        for seed in range(20):
            spec = PartitionSpec(law="dirichlet", num_clients=10, seed=seed, alpha=alpha)
            vals.append(client_entropy(data, make_partition(data, spec)))
        means[alpha] = np.mean(vals)
    assert means[0.1] < means[1.0] < means[100.0]
