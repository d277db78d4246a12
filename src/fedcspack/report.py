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
    final_personalized_acc: float
    total_bytes_up: int
    compression_vs_dense: float


def summarize(metrics: list[RoundMetrics], total_params: int) -> RunSummary:
    """The run's rows reduced; the dense baseline is 4·d bytes per participant per round."""
    if not metrics:
        raise ValueError("metrics must be non-empty")
    total_up = sum(m.bytes_up for m in metrics)
    dense_total = 4 * total_params * sum(len(m.participants) for m in metrics)
    return RunSummary(
        method=metrics[0].method,
        final_global_acc=metrics[-1].global_acc,
        best_global_acc=max(m.global_acc for m in metrics),
        final_personalized_acc=metrics[-1].personalized_acc,
        total_bytes_up=total_up,
        compression_vs_dense=dense_total / total_up if total_up else float("inf"),
    )


def metrics_rows(metrics: list[RoundMetrics], columns: list[str] = METRICS_HEADER) -> list[list[str]]:
    """One row per round of the named fields, each as `str` gives it
    (participants joined by `;`)."""
    return [[";".join(map(str, v)) if isinstance(v, tuple) else str(v)
             for v in (getattr(m, c) for c in columns)] for m in metrics]


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


ROUND_SERIES = {
    "acc_vs_round.csv": ["round", "global_acc", "personalized_acc"],
    "bytes_vs_round.csv": ["round", "bytes_up", "bytes_down"],
}


def emit_series(metrics: list[RoundMetrics], per_client_acc: list[float], out_dir: str | Path) -> None:
    """Write plot-ready series into `out_dir`, an existing directory: the
    ROUND_SERIES column views of metrics.csv and final per-client accuracy bars."""
    out = Path(out_dir)
    for name, columns in ROUND_SERIES.items():
        _write_csv(out / name, columns, metrics_rows(metrics, columns))
    _write_csv(out / "per_client_acc.csv", ["client", "accuracy"], enumerate(per_client_acc))


def per_client_accuracy(result) -> list[float]:
    """Final post-pull accuracy of every client on its own test rows, as
    the last round's evaluation recorded it."""
    return result.per_client_acc
