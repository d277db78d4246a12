"""Command-line entry points: run, partition-report, sweep."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from pathlib import Path

# One BLAS thread unless already set: at these matrix sizes a larger pool
# costs more in hand-off than it saves.  Must precede numpy's first import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import apply_overrides, config_from_dict
from .partition import label_histogram, make_partition
from .protocol import build_dataset, run
from .report import (
    emit_series,
    per_client_accuracy,
    summarize,
    write_metrics_csv,
    write_run_json,
)


def _load_doc(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def cmd_run(args: argparse.Namespace) -> int:
    doc = apply_overrides(_load_doc(args.config), args.override)
    config = config_from_dict(doc)
    result = run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.metrics, out / "metrics.csv")
    write_run_json(config, result.metrics, out / "run.json")
    emit_series(result.metrics, per_client_accuracy(result), out)
    summary = summarize(result.metrics, result.dense_bytes_per_round)
    print(
        f"{summary.method}: final_global_acc={summary.final_global_acc:.4f} "
        f"personalized_acc={summary.mean_personalized_acc:.4f} "
        f"bytes_up={summary.total_bytes_up} "
        f"compression_vs_dense={summary.compression_vs_dense:.2f}"
    )
    return 0


def cmd_partition_report(args: argparse.Namespace) -> int:
    doc = apply_overrides(_load_doc(args.config), args.override)
    config = config_from_dict(doc)
    dataset = build_dataset(config.dataset)
    partition = make_partition(dataset, config.partition)
    print(f"dataset={dataset.name} rows={len(dataset)} classes={dataset.num_classes}")
    print("client  size  train  test  label_histogram")
    for i, rows in enumerate(partition.assignment):
        hist = label_histogram(dataset, rows)
        print(
            f"{i:6d} {len(rows):5d} {len(partition.train[i]):6d} "
            f"{len(partition.test[i]):5d}  {' '.join(str(h) for h in hist)}"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = apply_overrides(_load_doc(args.config), args.override)
    axes = []
    for grid in args.grid:
        if "=" not in grid:
            raise SystemExit(f"--grid {grid!r} is not key=v1,v2,...")
        key, _, raw = grid.partition("=")
        values = raw.split(",")
        axes.append((key, values))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for cell_id, combo in enumerate(itertools.product(*[v for _, v in axes])):
        overrides = [f"{key}={value}" for (key, _), value in zip(axes, combo)]
        config = config_from_dict(apply_overrides(base, overrides))
        result = run(config)
        cell_dir = out / f"cell_{cell_id:03d}"
        cell_dir.mkdir(exist_ok=True)
        write_metrics_csv(result.metrics, cell_dir / "metrics.csv")
        write_run_json(config, result.metrics, cell_dir / "run.json")
        summary = summarize(result.metrics, result.dense_bytes_per_round)
        rows.append(
            {
                **{key: value for (key, _), value in zip(axes, combo)},
                "cell": f"cell_{cell_id:03d}",
                "method": summary.method,
                "final_global_acc": summary.final_global_acc,
                "best_global_acc": summary.best_global_acc,
                "mean_personalized_acc": summary.mean_personalized_acc,
                "total_bytes_up": summary.total_bytes_up,
                "compression_vs_dense": summary.compression_vs_dense,
            }
        )

    summary_path = out / "sweep_summary.csv"
    fieldnames = list(rows[0].keys()) if rows else ["cell"]
    with open(summary_path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)
    for row in rows:
        print(" ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedcspack")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--override", action="append", default=[], metavar="key=value")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_part = sub.add_parser("partition-report", help="print per-client label histograms")
    p_part.add_argument("--config", required=True)
    p_part.add_argument("--override", action="append", default=[], metavar="key=value")
    p_part.set_defaults(func=cmd_partition_report)

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweeps")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--override", action="append", default=[], metavar="key=value")
    p_sweep.add_argument("--grid", action="append", default=[], required=True, metavar="key=v1,v2,...")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
