import numpy as np
import pytest

from fedcspack import protocol
from fedcspack.aggregation import GlobalMask, ServerState
from fedcspack.config import DatasetSpec, RunConfig
from fedcspack.model import FlatParams, ShapeSpec
from fedcspack.packing import package_kl, package_views, score_packages
from fedcspack.partition import Dataset, PartitionSpec, save_idx, synth_blobs


def same(a, b) -> bool:
    """Equal values, dtype, shape and bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and a.tobytes() == b.tobytes()
    )


def spec_with_total(n):
    """A model of exactly n parameters: one (n-1, 1) identity layer, n-1
    weights and 1 bias."""
    return ShapeSpec((n - 1, 1), "identity")


def params_of(values):
    """`values` as the float32 parameters of a model of their length."""
    values = np.asarray(values, dtype=np.float32)
    return FlatParams(values, spec_with_total(len(values)))


def layout_of(params, pack):
    """The layout of `params`' model at package size `pack`."""
    return package_views(params.shape.total_params, pack)


def widened(params):
    """The float64 vector that `run` and `_client_update` score with."""
    return params.values.astype(np.float64)


def one_package(a, b):
    """a and b as float64 vectors, and a layout of their length whose one
    package is a short tail (pack > d)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a, b, package_views(len(a), len(a) + 1)


def cosine_of(a, b):
    """score_packages' cosine of the float64 vectors a and b.  The one
    package is a short tail, so the tail row and the whole-model row score
    the same pair and must agree bit for bit."""
    profile = score_packages(*one_package(a, b))
    assert same(profile.per_package_cos, np.array([profile.overall]))
    return profile.overall


def kl_of(a, b):
    """package_kl of the float64 vectors a and b, one package long."""
    return float(package_kl(*one_package(a, b), np.arange(1))[0])


def small_config(**overrides):
    """Fast desk-scale run: 6 classes, tiny MLP, 8 clients."""
    defaults = dict(
        method="fedcspack",
        rounds=5,
        clients=8,
        cpr=0.5,
        local_epochs=1,
        lr=0.1,
        batch_size=16,
        pack=64,
        seed=1,
        partition=PartitionSpec(law="dirichlet", num_clients=8, seed=2, alpha=0.5),
        model=ShapeSpec([16, 24, 6]),
        dataset=DatasetSpec(
            kind="blobs", num_classes=6, dim=16, samples_per_class=60, spread=0.3, seed=3
        ),
        cap_ratio=0.5,
    )
    defaults.update(overrides)
    if "clients" in overrides and "partition" not in overrides:
        defaults["partition"] = PartitionSpec(
            law="dirichlet", num_clients=overrides["clients"], seed=2, alpha=0.5
        )
    return RunConfig(**defaults)


def topk_kept(local, global_, fraction):
    """The coordinates, ascending, that a magnitude Top-k client keeping
    `fraction` of them sends for the delta local - global_."""
    shape = local.shape
    config = small_config(
        method="magnitude_topk",
        topk_fraction=fraction,
        model=shape,
        dataset=DatasetSpec(kind="blobs", num_classes=shape.num_classes, dim=shape.input_dim),
    )
    update = protocol._client_update(
        config, 0, 0, local, global_, widened(global_), layout_for(config)
    )
    return update.packages


def idx_blobs(work, num_classes, dim, samples_per_class, seed):
    """A blob set squashed into [0, 1] and saved as an IDX pair in `work`;
    returns the DatasetSpec that reads it."""
    blobs = synth_blobs(num_classes, dim, samples_per_class, spread=0.3, seed=seed)
    features = (blobs.features - blobs.features.min()) / np.ptp(blobs.features)
    images, labels = work / "images.idx", work / "labels.idx"
    save_idx(Dataset(features, blobs.labels, num_classes), images, labels)
    return DatasetSpec(kind="idx", images=str(images), labels=str(labels))


def copied_state(server, locals_):
    """The state between rounds, every array of it copied: a fresh server
    and a fresh local model for each client, sharing nothing with the
    originals or with one another."""
    def fresh(params):
        return FlatParams(params.values.copy(), params.shape)

    mask = GlobalMask(server.global_mask.totals.copy())
    return ServerState(fresh(server.global_params), mask), [fresh(m) for m in locals_]


def layout_for(config):
    """The layout `setup_run` builds for `config`, the one every round reads."""
    return protocol.setup_run(config)[0].layout


def full_selection_constant_weights(monkeypatch):
    """Make fedcspack send and fold every package at weight 1.0, which turns
    it into FedAvg (with a single package the selection returns it anyway)."""
    monkeypatch.setattr(
        protocol, "select_topk", lambda profile, cap_ratio: np.arange(profile.num_packages)
    )
    monkeypatch.setattr(
        protocol, "fold_weights", lambda config, update: np.ones(len(update.packages))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
