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

from .config import apply_overrides, config_from_dict, unique_keys
from .partition import label_histogram
from .protocol import RunResult, build_dataset, run, setup_run
from .report import (
    RunSummary,
    _write_csv,
    emit_series,
    per_client_accuracy,
    summarize,
    write_metrics_csv,
    write_run_json,
)


def _load_doc(args: argparse.Namespace) -> dict:
    """The command's config document: the --config file, --overrides applied."""
    with open(args.config) as f:
        return apply_overrides(json.load(f, object_pairs_hook=unique_keys), args.override)


def write_run(result: RunResult, out: Path) -> RunSummary:
    """Write a finished run's files into `out`, an existing directory, and
    return its summary: `run` and every `sweep` cell go through here, so
    each writes metrics.csv, run.json and the three plot series."""
    write_metrics_csv(result.metrics, out / "metrics.csv")
    write_run_json(result.config, result.metrics, out / "run.json")
    emit_series(result.metrics, per_client_accuracy(result), out)
    return summarize(result.metrics, result.config.model.total_params)


def cmd_run(args: argparse.Namespace) -> int:
    start = setup_run(config_from_dict(_load_doc(args)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # after set-up checks the config, before any round
    summary = write_run(run(*start), out)
    print(
        f"{summary.method}: final_global_acc={summary.final_global_acc:.4f} "
        f"personalized_acc={summary.final_personalized_acc:.4f} "
        f"bytes_up={summary.total_bytes_up} "
        f"compression_vs_dense={summary.compression_vs_dense:.2f}"
    )
    return 0


def cmd_partition_report(args: argparse.Namespace) -> int:
    setup = setup_run(config_from_dict(_load_doc(args)))[0]
    dataset, partition = setup.dataset, setup.partition
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
    base = _load_doc(args)
    keys, values = [], []
    for grid in args.grid:
        if "=" not in grid:
            raise SystemExit(f"--grid {grid!r} is not key=v1,v2,...")
        key, _, raw = grid.partition("=")
        if key in keys:
            raise SystemExit(f"--grid key {key!r} is given twice")
        keys.append(key)
        values.append(raw.split(","))

    # every cell is set up, and so checked, before --out is made or any cell runs
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*values)]
    configs = [config_from_dict(apply_overrides(base, [f"{k}={v}" for k, v in cell.items()]))
               for cell in cells]
    datasets, starts = {}, []  # cells that differ only in method or lr share one dataset
    for config in configs:
        if config.dataset not in datasets:
            datasets[config.dataset] = build_dataset(config.dataset)
        starts.append(setup_run(config, datasets[config.dataset]))
    out, rows = Path(args.out), []
    for cell_id, (cell, start) in enumerate(zip(cells, starts)):
        name = f"cell_{cell_id:03d}"
        (out / name).mkdir(parents=True, exist_ok=True)
        summary = write_run(run(*start), out / name)
        rows.append({**cell, "cell": name, **dataclasses.asdict(summary)})

    _write_csv(out / "sweep_summary.csv", list(rows[0]), [list(row.values()) for row in rows])
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
    config_opts = argparse.ArgumentParser(add_help=False)
    config_opts.add_argument("--config", required=True)
    config_opts.add_argument("--override", action="append", default=[], metavar="key=value")

    p_run = sub.add_parser("run", parents=[config_opts], help="execute one simulation")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_part = sub.add_parser(
        "partition-report", parents=[config_opts], help="print per-client label histograms"
    )
    p_part.set_defaults(func=cmd_partition_report)

    p_sweep = sub.add_parser("sweep", parents=[config_opts], help="cartesian parameter sweeps")
    p_sweep.add_argument("--grid", action="append", default=[], required=True, metavar="key=v1,v2,...")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
