import numpy as np
import pytest

from fedcspack.config import DatasetSpec, RunConfig
from fedcspack.model import ShapeSpec
from fedcspack.partition import PartitionSpec


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
        model=ShapeSpec.from_widths([16, 24, 6]),
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


def full_selection_constant_weights(monkeypatch):
    """Make fedcspack send every package at weight 1.0, which turns it into
    FedAvg (with a single package the selection returns it anyway)."""
    from fedcspack import protocol

    monkeypatch.setattr(
        protocol, "select_topk", lambda profile, cap_ratio: np.arange(profile.num_packages)
    )
    monkeypatch.setattr(protocol, "mask_weights", lambda cos, kl, weight_mode: np.ones(len(cos)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
