#!/usr/bin/env python3
"""Pin the per-round trajectory digests the benchmark checks against.

    python3 perfbench/pin.py --seeds 0-20 7919 [--workload topk-desk]

Runs every input of each workload once per seed, checks its outputs as a
benchmark run does, and writes golden/<workload>.json mapping each seed to
one list of per-round SHA-256 digests (first 64 bits) per input.  Re-pin
only for a change that is meant to alter the program's behaviour, and say
why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run as bench


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-20")
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args(argv)
    mods = bench.load_program()
    from workloads import INPUTS_PER_RUN, WORKLOADS, write_config

    bench.GOLDEN.mkdir(exist_ok=True)
    bench.WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        path = bench.GOLDEN / f"{name}.json"
        pinned = json.loads(path.read_text()) if path.exists() else {}
        for seed in parse_seeds(args.seeds):
            digests = []
            for k in range(INPUTS_PER_RUN):
                with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
                    config = write_config(workload, seed, k, Path(tmp) / "input")
                    rec = bench.run_experiment(mods, config, Path(tmp) / "out")
                    if rec["error"] is not None:
                        raise SystemExit(f"{name} seed {seed} input {k}: {rec['error']}")
                    det = bench.check_experiment(mods, rec, Path(tmp) / "out", workload.target_acc)
                if rec["problems"]:
                    raise SystemExit(f"{name} seed {seed} input {k}: {rec['problems']}")
                digests.append([h[: bench.PIN_HEX] for h in det["det"]["trajectory"]])
            pinned[str(seed)] = digests
            print(f"{name} seed {seed}: pinned {len(digests)} inputs", flush=True)
        rows = [f"{json.dumps(s)}: {json.dumps(pinned[s])}" for s in sorted(pinned, key=int)]
        path.write_text("{\n" + ",\n".join(rows) + "\n}\n")  # one line per seed
    return 0


if __name__ == "__main__":
    sys.exit(main())
