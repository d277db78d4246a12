"""The benchmark's three workloads.

Each workload turns the benchmark seed into INPUTS_PER_RUN `fedcspack run`
config files (and, for `fedprox-idx`, the IDX image/label pairs they point
at).  The program only ever sees those generated inputs.  A run cycles
through the inputs, so seed-to-seed differences in partition and learning
curve are averaged inside each run instead of showing up as run-to-run
spread.

Why these three: each stresses a different layer, and each is the bypass
case for the others' layers (see README.md for the full layer map).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Re-checks of a later performance claim use this seed, which no tuning of
# the benchmark itself looked at.
HELD_OUT_SEED = 7919
INPUTS_PER_RUN = 6


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    # global_acc that time_to_target_s waits for; every seed must reach it
    target_acc: float
    # fixed percentile for round_ms_tail: the highest one that leaves at
    # least ten rounds beyond it in a baseline run of the default length
    tail_pct: float
    build: Callable[[int, list[int], Path], dict]


def derived_seeds(seed: int, name: str, index: int) -> list[int]:
    """Config (init and sampling), partition and dataset seeds of one input,
    all derived from the benchmark seed."""
    tag = int.from_bytes(name.encode(), "little") % (2**32)
    return [int(s) for s in np.random.SeedSequence([seed, tag, index]).generate_state(3)]


def _common(method: str, rounds: int, seeds, widths, epochs: int, lr: float, batch: int = 32) -> dict:
    config_seed, partition_seed, _ = seeds
    return {
        "method": method,
        "rounds": rounds,
        "clients": 20,
        "cpr": 0.5,
        "local_epochs": epochs,
        "lr": lr,
        "batch_size": batch,
        "pack": 128,
        "seed": config_seed,
        "partition": {"law": "dirichlet", "num_clients": 20, "seed": partition_seed, "alpha": 1.0},
        "model": {"widths": widths, "activation": "relu"},
    }


def _fedcspack_wide(rounds: int, seeds, work: Path) -> dict:
    # batch 16 (3 SGD steps per client and round) so every seed's curve
    # passes the target well inside the run
    doc = _common("fedcspack", rounds, seeds, [256, 256, 10], epochs=1, lr=0.2, batch=16)
    doc.update(cap_ratio=0.25, weight_mode="dual", payload="delta")
    doc["dataset"] = {
        "kind": "blobs", "num_classes": 10, "dim": 256,
        "samples_per_class": 100, "spread": 0.1, "seed": seeds[2],
    }
    return doc


def _topk_desk(rounds: int, seeds, work: Path) -> dict:
    doc = _common("magnitude_topk", rounds, seeds, [32, 64, 10], epochs=2, lr=0.2)
    doc["topk_fraction"] = 0.1
    doc["dataset"] = {
        "kind": "blobs", "num_classes": 10, "dim": 32,
        "samples_per_class": 100, "spread": 0.2, "seed": seeds[2],
    }
    return doc


IDX_ROWS_PER_CLASS = 1000
IDX_DIM = 64


def write_idx_pair(seed: int, work: Path) -> tuple[Path, Path]:
    """A seeded 10-class, 64-feature image set in [0, 1], saved as IDX.

    Features are squashed Gaussian blobs, so they quantise to u8 without
    collapsing classes; they are separable enough that every seed ends near
    full accuracy despite the pathological partition.
    """
    from fedcspack.partition import Dataset, save_idx, synth_blobs

    blobs = synth_blobs(10, IDX_DIM, IDX_ROWS_PER_CLASS, spread=0.1, seed=seed)
    pixels = 1.0 / (1.0 + np.exp(-2.0 * blobs.features.astype(np.float64)))
    images, labels = work / "images.idx", work / "labels.idx"
    save_idx(Dataset(pixels.astype(np.float32), blobs.labels, 10), images, labels)
    return images, labels


def _fedprox_idx(rounds: int, seeds, work: Path) -> dict:
    doc = _common("fedprox", rounds, seeds, [IDX_DIM, 64, 10], epochs=3, lr=0.2)
    doc["prox_mu"] = 0.01
    doc["partition"] = {
        "law": "pathological", "num_clients": 20, "seed": seeds[1], "shards_per_client": 3,
    }
    images, labels = write_idx_pair(seeds[2], work)
    doc["dataset"] = {"kind": "idx", "images": str(images), "labels": str(labels)}
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload: BENCHMARK.json and README.md
        Workload(
            "fedcspack-wide", rounds=10, target_acc=0.8, tail_pct=80.0, build=_fedcspack_wide,
        ),
        Workload(
            "topk-desk", rounds=12, target_acc=0.9, tail_pct=85.0, build=_topk_desk,
        ),
        Workload(
            "fedprox-idx", rounds=30, target_acc=0.9, tail_pct=95.0, build=_fedprox_idx,
        ),
    )
}


def write_config(workload: Workload, seed: int, index: int, work: Path) -> Path:
    """Write input `index` of the workload for this seed into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    doc = workload.build(workload.rounds, derived_seeds(seed, workload.name, index), work)
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path
