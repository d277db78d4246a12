"""Golden trajectories: each method on the desk config must reproduce its
pinned per-round trajectory bit for bit, and each partition spec its
pinned client splits.

A round is pinned as the SHA-256 of the post-round global parameters plus
every deterministic `metrics.csv` column (all but `wall_ms`).  A change
that moves any of them must say why and re-pin:

    PYTHONPATH=src python tests/test_golden.py --pin
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from fedcspack.config import METHODS, DatasetSpec, RunConfig
from fedcspack.model import ShapeSpec
from fedcspack.partition import PartitionSpec, make_partition, synth_blobs
from fedcspack.protocol import run, setup_run
from fedcspack.report import METRICS_HEADER, metrics_rows

PINS = Path(__file__).with_name("golden_trajectories.json")
WALL_MS = METRICS_HEADER.index("wall_ms")

# desk config: MLP 32-64-10 (d = 2,762), pack 128 leaves a 74-wide tail;
# pack 1,381 tiles d in two full packages, pack 4,096 in one short tail
CASES = {
    "fedcspack": dict(method="fedcspack", cap_ratio=0.25),
    "fedcspack-cos_only": dict(method="fedcspack", weight_mode="cos_only"),
    "fedcspack-kl_only": dict(method="fedcspack", weight_mode="kl_only"),
    "fedcspack-pack1381": dict(method="fedcspack", pack=1381),
    "fedcspack-pack4096": dict(method="fedcspack", pack=4096),
    "fedavg": dict(method="fedavg"),
    "fedprox": dict(method="fedprox", prox_mu=0.01),
    "magnitude_topk": dict(method="magnitude_topk", topk_fraction=0.1),
}


def desk_config(**overrides) -> RunConfig:
    doc = dict(
        rounds=3,
        clients=10,
        cpr=0.5,
        local_epochs=1,
        lr=0.2,
        batch_size=32,
        pack=128,
        seed=11,
        partition=PartitionSpec(law="dirichlet", num_clients=10, seed=12, alpha=1.0),
        model=ShapeSpec([32, 64, 10]),
        dataset=DatasetSpec(
            kind="blobs", num_classes=10, dim=32, samples_per_class=60, spread=0.2, seed=13
        ),
    )
    doc.update(overrides)
    return RunConfig(**doc)


def trajectory(case: str) -> list[dict]:
    digests = []
    result = run(
        *setup_run(desk_config(**CASES[case])),
        round_hook=lambda t, s: digests.append(hashlib.sha256(s.global_params.values).hexdigest()),
    )
    rows = [r[:WALL_MS] + r[WALL_MS + 1 :] for r in metrics_rows(result.metrics)]
    return [{"params_sha256": d, "metrics": row} for d, row in zip(digests, rows)]


# small data and extreme test fractions reach the capped-holdout and
# single-row branches of the train/test split
PARTITION_CASES = {
    "dirichlet-0.2": dict(law="dirichlet", num_clients=7, seed=5, alpha=0.3),
    "dirichlet-0.9": dict(law="dirichlet", num_clients=25, seed=6, alpha=2.0, test_fraction=0.9),
    "pathological-0.5": dict(
        law="pathological", num_clients=9, seed=7, shards_per_client=3, test_fraction=0.5
    ),
    "pathological-0.95": dict(
        law="pathological", num_clients=30, seed=8, shards_per_client=1, test_fraction=0.95
    ),
}


def partition_digest(case: str) -> str:
    data = synth_blobs(num_classes=6, dim=4, samples_per_class=15, spread=0.3, seed=9)
    part = make_partition(data, PartitionSpec(**PARTITION_CASES[case]))
    h = hashlib.sha256()
    for rows in part.assignment + part.train + part.test:
        h.update(rows.astype("<i8").tobytes() + b"|")
    return h.hexdigest()


def pin_all() -> dict:
    doc = {c: trajectory(c) for c in sorted(CASES)}
    doc["partitions"] = {c: partition_digest(c) for c in sorted(PARTITION_CASES)}
    return doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trajectory(case):
    pinned = json.loads(PINS.read_text())[case]
    assert trajectory(case) == pinned


def test_every_method_is_pinned():
    """A new row of the method table lands with a pinned trajectory."""
    assert {case["method"] for case in CASES.values()} == set(METHODS)


@pytest.mark.parametrize("case", sorted(PARTITION_CASES))
def test_golden_partition(case):
    assert partition_digest(case) == json.loads(PINS.read_text())["partitions"][case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        raise SystemExit(__doc__)
    PINS.write_text(json.dumps(pin_all(), indent=1) + "\n")
    print(f"pinned {len(CASES)} trajectories and {len(PARTITION_CASES)} partitions to {PINS}")
