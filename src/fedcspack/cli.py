"""Command-line entry points: run, partition-report, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    _write_csv,
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
    datasets = {}  # cells that differ only in method or lr share one dataset
    for cell_id, combo in enumerate(itertools.product(*[v for _, v in axes])):
        overrides = [f"{key}={value}" for (key, _), value in zip(axes, combo)]
        config = config_from_dict(apply_overrides(base, overrides))
        if config.dataset not in datasets:
            datasets[config.dataset] = build_dataset(config.dataset)
        result = run(config, dataset=datasets[config.dataset])
        cell_dir = out / f"cell_{cell_id:03d}"
        cell_dir.mkdir(exist_ok=True)
        write_metrics_csv(result.metrics, cell_dir / "metrics.csv")
        write_run_json(config, result.metrics, cell_dir / "run.json")
        summary = summarize(result.metrics, result.dense_bytes_per_round)
        cell = {key: value for (key, _), value in zip(axes, combo)}
        rows.append({**cell, "cell": f"cell_{cell_id:03d}", **dataclasses.asdict(summary)})

    header = list(rows[0]) if rows else ["cell"]
    _write_csv(out / "sweep_summary.csv", header, [list(row.values()) for row in rows])
    for row in rows:
        print(" ".join(f"{k}={v}" for k, v in row.items()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later
    `main` call in the process: parsing reads it and writes only a fresh
    namespace, so one call's arguments never reach the next."""
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
