"""Post-run reductions and CSV/JSON export.

All floats are serialized with repr (shortest round-trip form), so a
summary recomputed from the exported CSV reproduces the original exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig, config_to_dict
from .protocol import RoundMetrics

METRICS_HEADER = [f.name for f in dataclasses.fields(RoundMetrics)]


@dataclass(frozen=True)
class RunSummary:
    method: str
    final_global_acc: float
    best_global_acc: float
    mean_personalized_acc: float
    total_bytes_up: int
    compression_vs_dense: float


def summarize(metrics: list[RoundMetrics], dense_bytes_per_round: int) -> RunSummary:
    if not metrics:
        raise ValueError("metrics must be non-empty")
    total_up = sum(m.bytes_up for m in metrics)
    dense_total = len(metrics) * dense_bytes_per_round
    return RunSummary(
        method=metrics[0].method,
        final_global_acc=metrics[-1].global_acc,
        best_global_acc=max(m.global_acc for m in metrics),
        mean_personalized_acc=metrics[-1].personalized_acc,
        total_bytes_up=total_up,
        compression_vs_dense=dense_total / total_up if total_up else float("inf"),
    )


def metrics_rows(metrics: list[RoundMetrics]) -> list[list[str]]:
    """One row per round, every field as `str` gives it (participants
    joined by `;`)."""
    return [[";".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in dataclasses.astuple(m)]
            for m in metrics]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_metrics_csv(metrics: list[RoundMetrics], path: str | Path) -> None:
    _write_csv(path, METRICS_HEADER, metrics_rows(metrics))


def write_run_json(config: RunConfig, metrics: list[RoundMetrics], path: str | Path) -> None:
    doc = {
        "config": config_to_dict(config),
        "rounds": [dataclasses.asdict(m) for m in metrics],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, allow_nan=False)


def emit_series(metrics: list[RoundMetrics], per_client_acc: list[float], out_dir: str | Path) -> list[Path]:
    """Write plot-ready series into `out_dir`, an existing directory:
    accuracy and traffic per round plus final per-client accuracy bars."""
    out = Path(out_dir)
    acc, traffic, clients = (
        out / "acc_vs_round.csv", out / "bytes_vs_round.csv", out / "per_client_acc.csv"
    )
    _write_csv(
        acc,
        ["round", "global_acc", "personalized_acc"],
        [[m.round, m.global_acc, m.personalized_acc] for m in metrics],
    )
    _write_csv(
        traffic,
        ["round", "bytes_up", "bytes_down"],
        [[m.round, m.bytes_up, m.bytes_down] for m in metrics],
    )
    _write_csv(clients, ["client", "accuracy"], enumerate(per_client_acc))
    return [acc, traffic, clients]


def per_client_accuracy(result) -> list[float]:
    """Final post-pull accuracy of every client on its own test rows (0.0
    for a client without test rows), as the last round's evaluation
    recorded it."""
    return result.per_client_acc
