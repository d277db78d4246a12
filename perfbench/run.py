#!/usr/bin/env python3
"""fedcspack benchmark: one workload, run the way `fedcspack run` runs it.

    python3 perfbench/run.py --workload topk-desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fedcspack is imported from its
src/.  For `--seconds` the harness repeats whole `fedcspack run`
experiments (load config -> run -> write outputs) back to back, one at a
time, timing each from outside: set-up ends when `init_params` returns and
a round ends at each `round_hook` call.  Every experiment's outputs are
checked.  `--trace 1` alternates untraced and traced experiments and
reports per-layer numbers from the spans (see spans.py).

Prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  Exits non-zero, printing no
result, when the fedcspack sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".runs"
GOLDEN = HERE / "golden"

BROADCAST_ID = 0xFFFFFFFF
WIRE_HEADER = 22
WIRE_ENTRY_HEADER = 16
SETUP_PROBES = 3  # before each untraced experiment
METRICS_HEADER = [
    "round", "method", "global_acc", "personalized_acc", "bytes_up",
    "bytes_down", "wall_ms", "participants", "violations",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import fedcspack from this checkout's src/, single-threaded BLAS."""
    if not (SRC / "fedcspack" / "__init__.py").is_file():
        raise SystemExit(f"error: fedcspack sources not found under {SRC}")
    # one simulation at a time on one core: keeps the BLAS pool at 1 thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fedcspack
    from fedcspack import aggregation, cli, model, packing, partition, protocol, report, wire

    if SRC.resolve() not in Path(fedcspack.__file__).resolve().parents:
        raise SystemExit(f"error: imported fedcspack from {fedcspack.__file__}, not {SRC}")
    return {
        "aggregation": aggregation, "cli": cli, "model": model, "packing": packing,
        "partition": partition, "protocol": protocol, "report": report, "wire": wire,
    }


# ---------------------------------------------------------------- experiments


class SetupDone(Exception):
    """Raised from init_params to stop a set-up probe once set-up is done."""


def setup_probe(mods, config_path: Path, out_dir: Path) -> float:
    """Seconds `fedcspack run` spends before its first round: config load,
    build_dataset/load_idx, make_partition and init_params."""
    from spans import patched

    clock = time.perf_counter

    def stop_after(init_params):
        def probe(*args, **kwargs):
            init_params(*args, **kwargs)
            raise SetupDone(clock())
        return probe

    start = clock()
    with patched([(mods["protocol"], "init_params", stop_after)]):
        try:
            mods["cli"].main(["run", "--config", str(config_path), "--out", str(out_dir)])
        except SetupDone as done:
            return done.args[0] - start
    raise RuntimeError("run() returned without calling init_params")


def run_experiment(mods, config_path: Path, out_dir: Path, tracer=None) -> dict:
    """One `fedcspack run --config C --out D`, observed from outside."""
    import numpy as np
    from spans import patched

    clock = time.perf_counter
    rec = {"hook_times": [], "blobs": [], "param_digests": [], "problems": [], "error": None}

    def round_hook(t, server):
        rec["hook_times"].append(clock())
        values = server.global_params.values
        if not np.isfinite(values).all():
            rec["problems"].append(f"round {t}: non-finite global parameters")
        rec["param_digests"].append(hashlib.sha256(values).digest())

    if tracer is not None:
        round_hook = tracer.wrap("bench.round_hook", round_hook)

    def observe_run(run):
        def observed(config, *args, **kwargs):
            result = run(config, *args, round_hook=round_hook, **kwargs)
            rec["run_end"], rec["result"] = clock(), result
            return result
        return observed

    def observe_setup(init_params):
        def observed(*args, **kwargs):
            value = init_params(*args, **kwargs)
            rec["setup_end"] = clock()
            return value
        return observed

    def capture_blobs(encode_update):
        def observed(update):
            blob = encode_update(update)
            rec["blobs"].append((len(rec["hook_times"]), blob))
            return blob
        return observed

    replacements = (tracer.replacements(mods) if tracer is not None else []) + [
        (mods["cli"], "run", observe_run),
        (mods["protocol"], "init_params", observe_setup),
        (mods["protocol"], "encode_update", capture_blobs),
    ]
    stdout = io.StringIO()
    rec["start"] = clock()
    with patched(replacements), contextlib.redirect_stdout(stdout):
        try:
            code = mods["cli"].main(["run", "--config", str(config_path), "--out", str(out_dir)])
            if code != 0:
                rec["error"] = f"fedcspack run exited with {code}"
        except Exception:  # a failing run is counted, never fatal to the harness
            rec["error"] = traceback.format_exc(limit=-3).strip()
    rec["end"] = clock()
    rec["stdout"] = stdout.getvalue()
    return rec


# --------------------------------------------------------------------- checks


def trajectory(result, param_digests) -> list[str]:
    """Per-round SHA-256 chain over the global parameters and the
    deterministic metrics columns (everything but wall_ms)."""
    chain, out = b"", []
    for m, params in zip(result.metrics, param_digests):
        cols = ",".join(str(c) for c in (
            m.round, m.method, repr(m.global_acc), repr(m.personalized_acc), m.bytes_up,
            m.bytes_down, ";".join(map(str, m.participants)), m.violations,
        ))
        chain = hashlib.sha256(chain + params + cols.encode()).digest()
        out.append(chain.hex())
    return out


def recomputed_global_acc(result) -> float:
    """Pooled-test accuracy of the final global model, by a separate forward
    pass written here from the documented flat layout."""
    import numpy as np

    rows = np.concatenate([t for t in result.partition.test if len(t)])
    x = result.dataset.features[rows].astype(np.float64)
    values, shape = result.server.global_params.values, result.server.global_params.shape
    off = 0
    for k, (fan_in, fan_out) in enumerate(shape.layer_dims):
        w = values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        x = x @ w.astype(np.float64) + values[off : off + fan_out].astype(np.float64)
        off += fan_out
        if k < len(shape.layer_dims) - 1 and shape.activation == "relu":
            x = np.maximum(x, 0.0)
    return int((x.argmax(axis=1) == result.dataset.labels[rows]).sum()) / len(rows)


def check_experiment(mods, rec: dict, out_dir: Path, target_acc: float) -> dict:
    """Check one finished experiment's outputs; return its deterministic
    record plus wire counts.  Problems are appended to rec["problems"]."""
    import numpy as np

    decode_update = mods["wire"].decode_update
    problems, result = rec["problems"], rec["result"]
    metrics, config = result.metrics, result.config
    rounds = config.rounds

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    expect(len(metrics) == rounds, f"{len(metrics)} metrics rows for {rounds} rounds")
    expect(len(rec["hook_times"]) == rounds, f"round_hook called {len(rec['hook_times'])} times")

    updates = entries = up_bytes = down_bytes = 0
    for t, m in enumerate(metrics):
        uplink, broadcast = [], []
        for _, blob in (b for b in rec["blobs"] if b[0] == t):
            u = decode_update(blob)
            expect(len(blob) == u.encoded_length(),
                   f"round {t}: blob of {len(blob)} bytes, encoded_length {u.encoded_length()}")
            expect(u.round == t, f"round {t}: blob stamped round {u.round}")
            (broadcast if u.client_id == BROADCAST_ID else uplink).append((blob, u))
        ids = [u.client_id for _, u in uplink]
        expect(set(ids) <= set(m.participants) and len(set(ids)) == len(ids),
               f"round {t}: uplink clients {ids} not distinct participants {m.participants}")
        up = sum(len(b) for b, _ in uplink)
        expect(up == m.bytes_up, f"round {t}: bytes_up {m.bytes_up}, blobs sum to {up}")
        expect(len(broadcast) == 1, f"round {t}: {len(broadcast)} broadcast blobs")
        if broadcast:
            blob, u = broadcast[0]
            down = len(blob) * len(m.participants)
            expect(down == m.bytes_down, f"round {t}: bytes_down {m.bytes_down}, codec says {down}")
            sent = np.asarray(u.entries[0].payload, dtype="<f4")
            expect(t < len(rec["param_digests"])
                   and hashlib.sha256(sent).digest() == rec["param_digests"][t],
                   f"round {t}: broadcast payload differs from the post-round global model")
        updates += len(uplink)
        entries += sum(len(u.entries) for _, u in uplink)
        up_bytes += up
        down_bytes += m.bytes_down

    check_outputs(out_dir, result, expect)
    summary = rec["stdout"].strip().splitlines()
    expect(bool(summary) and summary[-1].startswith(f"{config.method}: final_global_acc="),
           f"unexpected run summary {summary[-1:]!r}")

    acc = recomputed_global_acc(result)
    expect(acc == metrics[-1].global_acc,
           f"final global_acc {metrics[-1].global_acc!r}, recomputed {acc!r}")
    reached = [t for t, m in enumerate(metrics) if m.global_acc >= target_acc]

    pack = 1 if config.method == "magnitude_topk" else config.pack
    return {
        "target_round": reached[0] if reached else None,
        "det": {
            "trajectory": trajectory(result, rec["param_digests"]),
            "final_global_acc": metrics[-1].global_acc,
            "final_personalized_acc": metrics[-1].personalized_acc,
            "uplink_bytes": up_bytes,
            "downlink_bytes": down_bytes,
            "client_updates": updates,
            "entries": entries,
            "violations": sum(m.violations for m in metrics),
        },
        "num_packages": math.ceil(config.model.total_params / pack),
    }


def check_outputs(out_dir: Path, result, expect) -> None:
    """The files `fedcspack run` writes agree with the run's own records."""
    metrics, config = result.metrics, result.config
    with open(out_dir / "metrics.csv", newline="") as f:
        rows = list(csv.reader(f))
    expect(rows[:1] == [METRICS_HEADER], f"metrics.csv header {rows[:1]}")
    for row, m in zip(rows[1:], metrics):
        want = [str(m.round), m.method, m.global_acc, m.personalized_acc, str(m.bytes_up),
                str(m.bytes_down), ";".join(map(str, m.participants)), str(m.violations)]
        got = row[:2] + [float(row[2]), float(row[3])] + row[4:6] + row[7:9]
        expect(got == want, f"metrics.csv row {row} != {want}")
    expect(len(rows) == len(metrics) + 1, f"metrics.csv has {len(rows) - 1} rows")
    with open(out_dir / "run.json") as f:
        doc = json.load(f)
    expect(len(doc["rounds"]) == len(metrics) and doc["config"]["seed"] == config.seed,
           "run.json rounds/seed disagree with the run")
    for name, n in (("acc_vs_round.csv", len(metrics)), ("bytes_vs_round.csv", len(metrics)),
                    ("per_client_acc.csv", config.clients)):
        with open(out_dir / name, newline="") as f:
            body = list(csv.reader(f))[1:]
        expect(len(body) == n, f"{name} has {len(body)} rows, expected {n}")
    with open(out_dir / "per_client_acc.csv", newline="") as f:
        accs = [float(r[1]) for r in list(csv.reader(f))[1:]]
    expect(all(0.0 <= a <= 1.0 for a in accs), "per-client accuracy outside [0, 1]")


# ------------------------------------------------------------------- metrics


def by_input(recs) -> dict:
    groups = {}
    for r in recs:
        groups.setdefault(r["input"], []).append(r)
    return groups


def time_to_target(e) -> float:
    """Round-loop seconds until the first round at the target; an input that
    never gets there counts its whole round loop (reported as a miss)."""
    end = e["run_end"] if e["target_round"] is None else e["hook_times"][e["target_round"]]
    return end - e["setup_end"]


def end_to_end(workload, experiments, setup_s):
    """End-to-end metrics over the untraced experiments.  Per-input values
    (time to target, accuracy, bytes) are averaged over the run's inputs
    with equal weight, so they do not depend on how many experiments fit
    in the run."""
    import numpy as np

    intervals = [float(v) * 1e3 for e in experiments for v in np.diff(e["hook_times"])]
    loop_s = sum(e["run_end"] - e["setup_end"] for e in experiments)
    groups = by_input(experiments).values()
    dets = [g[0]["det"] for g in groups]
    rounds = workload.rounds
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "round_ms_p50": (statistics.median(intervals), "ms"),
        "round_ms_tail": (float(np.percentile(intervals, workload.tail_pct)), "ms"),
        "client_updates_per_s": (sum(e["det"]["client_updates"] for e in experiments) / loop_s, "1/s"),
        "time_to_target_s": (statistics.fmean(
            statistics.median(time_to_target(e) for e in g) for g in groups), "s"),
        "experiment_s": (statistics.median(e["end"] - e["start"] for e in experiments), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_global_acc": (statistics.fmean(d["final_global_acc"] for d in dets), "ratio"),
        "final_personalized_acc": (
            statistics.fmean(d["final_personalized_acc"] for d in dets), "ratio"),
        "uplink_bytes_per_round": (statistics.fmean(d["uplink_bytes"] for d in dets) / rounds, "B"),
        "downlink_bytes_per_round": (
            statistics.fmean(d["downlink_bytes"] for d in dets) / rounds, "B"),
    }, intervals


def per_layer(traced, untraced_rate):
    """Per-layer numbers from the traced experiments: times per round of the
    round loop (set-up and report ones per experiment), exact counts from
    the first traced experiment of each input."""
    first = [g[0] for g in by_input(traced).values()]

    def totals(recs, bucket):
        out = {}
        for e in recs:
            for name, row in e["layers"][bucket].items():
                acc = out.setdefault(name, [0.0, 0.0, 0])
                for i in range(3):
                    acc[i] += row[i]
        return out

    rounds = sum(e["layers"]["rounds"] for e in traced)
    count_rounds = sum(e["layers"]["rounds"] for e in first)
    loop, setup, report = (totals(traced, b) for b in ("loop", "setup", "report"))
    calls = totals(first, "loop")
    report_calls = totals(first, "report")
    n_exp, n_first = len(traced), len(first)

    def ms(bucket, name, per=rounds):
        return bucket.get(name, [0.0, 0.0, 0])[0] / per

    def self_ms(name):
        return loop.get(name, [0.0, 0.0, 0])[1] / rounds

    def count(bucket, name, per=count_rounds):
        return bucket.get(name, [0.0, 0.0, 0])[2] / per

    def det(key):
        return sum(e["det"][key] for e in first)

    updates, entries, up_bytes = det("client_updates"), det("entries"), det("uplink_bytes")
    traced_rate = (sum(e["det"]["client_updates"] for e in traced)
                   / sum(e["run_end"] - e["setup_end"] for e in traced))
    pull = "aggregation.selective_pull"
    metrics = {
        "model.local_train.self_ms": (self_ms("model.local_train"), "ms"),
        "model.gradient.ms": (ms(loop, "model.gradient"), "ms"),
        "model.gradient.calls": (count(calls, "model.gradient"), "count"),
        "model.forward_loss.ms": (ms(loop, "model.forward_loss"), "ms"),
        "packing.score_packages.self_ms": (self_ms("packing.score_packages"), "ms"),
        "packing.select_topk.ms": (ms(loop, "packing.select_topk"), "ms"),
        "packing.package_views.ms": (ms(loop, "packing.package_views"), "ms"),
        "packing.package_views.calls": (count(calls, "packing.package_views"), "count"),
        "packing.packages_scored": (
            sum(e["packages_scored"] for e in first) / count_rounds, "count"),
        "packing.selected_share": (entries / (updates * first[0]["num_packages"]), "ratio"),
        f"{pull}.client.self_ms": (self_ms(f"{pull}.client"), "ms"),
        f"{pull}.client.calls": (count(calls, f"{pull}.client"), "count"),
        f"{pull}.evaluate.self_ms": (self_ms(f"{pull}.evaluate"), "ms"),
        f"{pull}.evaluate.calls": (count(calls, f"{pull}.evaluate"), "count"),
        f"{pull}.report.self_ms": (report.get(f"{pull}.report", [0, 0, 0])[1] / n_exp, "ms"),
        f"{pull}.report.calls": (count(report_calls, f"{pull}.report", n_first), "count"),
        "aggregation.aggregate.self_ms": (self_ms("aggregation.aggregate"), "ms"),
        "aggregation.valid_share": (
            statistics.fmean(v for e in first for v in e["valid_share"]), "ratio"),
        "aggregation.violations": (det("violations") / count_rounds, "count"),
        "wire.encode_update.ms": (ms(loop, "wire.encode_update"), "ms"),
        "wire.decode_update.ms": (ms(loop, "wire.decode_update"), "ms"),
        "wire.entries": (entries / count_rounds, "count"),
        "wire.header_share": (
            (WIRE_HEADER * updates + WIRE_ENTRY_HEADER * entries) / up_bytes, "ratio"),
        "protocol.run.self_ms": (self_ms("protocol.run"), "ms"),
        "protocol.evaluate.self_ms": (self_ms("protocol.evaluate"), "ms"),
        "protocol.client_updates": (updates / count_rounds, "count"),
        "partition.build_dataset.ms": (ms(setup, "partition.build_dataset", n_exp), "ms"),
        "partition.make_partition.ms": (ms(setup, "partition.make_partition", n_exp), "ms"),
        "report.outputs.ms": (
            sum(row[0] for name, row in report.items() if name.startswith("report.")) / n_exp,
            "ms"),
        "trace.client_updates_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0, "%"),
    }
    self_times = sorted(((row[1] / rounds, name) for name, row in loop.items()), reverse=True)
    round_ms = sum(e["layers"]["round_ms"] for e in traced) / rounds
    return metrics, self_times, round_ms


# --------------------------------------------------------------- determinism


def compare_det(label: str, want: dict, got: dict) -> list[str]:
    """Differences between two deterministic records, on their common keys."""
    out = []
    for key in sorted(set(want) & set(got)):
        a, b = want[key], got[key]
        if a == b:
            continue
        if key == "trajectory":
            t = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            out.append(f"{label}: trajectory differs from round {t} on")
        elif isinstance(a, dict) and isinstance(b, dict):
            out += compare_det(f"{label}: {key}", a, b)
        else:
            out.append(f"{label}: {key} {a!r} vs {b!r}")
    return out


def cross_run_check(key: str, record: dict) -> list[str]:
    """Compare with what earlier runs of this workload and seed recorded in
    this checkout, then add whatever this run measured that they did not."""
    path = WORK / "determinism.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    seen = state.setdefault(key, {})
    drift = compare_det(f"{key}: earlier run vs this run", seen, record)
    for name, value in record.items():
        seen.setdefault(name, {}).update(
            {k: v for k, v in value.items() if k not in seen[name]})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(path)
    return drift


PIN_HEX = 16  # pinned digests keep the first 64 bits of each SHA-256


def golden_check(workload: str, seed: int, trajectories: list[list[str]]):
    """Compare each input's per-round digests with the ones pinned in
    golden/<workload>.json for this seed, if any."""
    path = GOLDEN / f"{workload}.json"
    pinned = json.loads(path.read_text()).get(str(seed)) if path.exists() else None
    if pinned is None:
        return [], f"seed {seed} has no pinned trajectory; checked across this checkout's runs only"
    problems = []
    for k, (want, got) in enumerate(zip(pinned, trajectories)):
        bad = [t for t in range(max(len(want), len(got)))
               if t >= len(want) or t >= len(got) or want[t] != got[t][:PIN_HEX]]
        if bad:
            problems.append(f"trajectory mismatch: workload {workload} seed {seed} input {k} "
                            f"rounds {bad} differ from the pinned digests")
    if len(pinned) != len(trajectories):
        problems.append(f"trajectory mismatch: {len(pinned)} pinned inputs, {len(trajectories)} run")
    return problems, "MISMATCH" if problems else f"matches the pinned digests of all {len(pinned)} inputs"


# ----------------------------------------------------------------------- main


def run_workload(mods, workload, seed: int, seconds: float, trace: bool, trace_path: Path):
    """Cycle through the workload's inputs, one experiment at a time, for
    about `seconds` and at least one full cycle.  With tracing each input
    runs untraced, then traced."""
    from spans import Tracer
    from workloads import INPUTS_PER_RUN, write_config

    step = 2 if trace else 1
    recs, setup_s, problems = [], [], []
    attempted = failed = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        configs = [write_config(workload, seed, k, work / f"input{k}") for k in range(INPUTS_PER_RUN)]
        doc = json.loads(configs[0].read_text())
        per_experiment = doc["rounds"] * math.ceil(doc["cpr"] * doc["clients"])
        inputs_id = inputs_digest(configs)
        begin = time.perf_counter()
        while True:
            index = len(recs)
            k, traced = (index // step) % INPUTS_PER_RUN, trace and index % 2 == 1
            tracer = Tracer() if traced else None
            if not traced:  # spread set-up samples over the whole run
                setup_s += [setup_probe(mods, configs[k], work / "probe") for _ in range(SETUP_PROBES)]
            out_dir = work / f"exp{index}"
            rec = run_experiment(mods, configs[k], out_dir, tracer)
            rec.update(input=k, traced=traced)
            attempted += per_experiment
            if rec["error"] is None:
                try:
                    rec.update(check_experiment(mods, rec, out_dir, workload.target_acc))
                except Exception:  # unreadable outputs: a failed check, not a crash
                    rec["error"] = "checking the outputs raised: " + traceback.format_exc(limit=-2)
            if rec["error"] is None:
                failed += rec["det"]["violations"]
            else:
                failed += per_experiment
                rec["problems"].append(f"raised: {rec['error']}")
            problems += [f"experiment {index} (input {k}): {p}" for p in rec["problems"]]
            # keep only timings and records: peak_rss_mb must not grow with the run length
            for key in ("blobs", "result", "param_digests", "stdout"):
                rec.pop(key, None)
            if rec["error"] is None and traced:
                rec.update(layers=tracer.layer_totals(), packages_scored=tracer.packages_scored,
                           valid_share=tracer.valid_share)
                tracer.dump(trace_path, index, "a" if index > 1 else "w")
            elif rec["error"] is None:
                setup_s.append(rec["setup_end"] - rec["start"])
            recs.append(rec)
            elapsed = time.perf_counter() - begin
            mean_s = statistics.fmean(r["end"] - r["start"] for r in recs)
            if (len(recs) >= step * INPUTS_PER_RUN and len(recs) % step == 0
                    and elapsed + 0.5 * mean_s >= seconds):
                break
    return recs, setup_s, problems, attempted, failed, inputs_id


def inputs_digest(configs) -> str:
    """Short digest of everything the program reads: the config files, with
    dataset file paths replaced by the files' contents."""
    h = hashlib.sha256()
    for path in configs:
        doc = json.loads(path.read_text())
        for key in ("images", "labels"):
            if doc["dataset"].get(key):
                doc["dataset"][key] = hashlib.sha256(Path(doc["dataset"][key]).read_bytes()).hexdigest()
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()[:16]


def determinism(workload, seed: int, inputs_id: str, recs) -> list[str]:
    """Same input, same deterministic record: within the run, across runs
    in this checkout, and against the pinned trajectories."""
    problems, record = [], {}
    for k, group in sorted(by_input([r for r in recs if "det" in r]).items()):
        first = group[0]["det"]
        traced = [r for r in group if r["traced"]]
        counters = {}
        if traced:
            counters = {"packages_scored": traced[0]["packages_scored"],
                        "calls": {n: row[2] for n, row in traced[0]["layers"]["loop"].items()}}
        for r in group[1:]:
            problems += compare_det(f"determinism failure: input {k}", first, r["det"])
        for r in traced[1:]:
            got = {"packages_scored": r["packages_scored"],
                   "calls": {n: row[2] for n, row in r["layers"]["loop"].items()}}
            problems += compare_det(f"determinism failure: input {k} traced counts", counters, got)
        record[f"input{k}"] = dict(first, **({"traced_counts": counters} if counters else {}))
    problems += [f"determinism failure: {p}"
                 for p in cross_run_check(f"{workload.name}/seed{seed}/inputs-{inputs_id}", record)]
    golden_problems, note = golden_check(
        workload.name, seed, [record[k]["trajectory"] for k in sorted(record)])
    return problems + golden_problems, note


def declared(kind: str) -> list[str] | None:
    """Metric names BENCHMARK.json lists under `kind`, if it is there."""
    path = ROOT / "BENCHMARK.json"
    return [m["name"] for m in json.loads(path.read_text())[kind]] if path.exists() else None


def main(argv=None) -> int:
    args = parse_args(argv)
    mods = load_program()
    from workloads import INPUTS_PER_RUN, WORKLOADS, derived_seeds

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"

    recs, setup_s, problems, attempted, failed, inputs_id = run_workload(
        mods, workload, args.seed, args.seconds, bool(args.trace), trace_path)
    done = [r for r in recs if "det" in r]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    missing = {k for k in range(INPUTS_PER_RUN)} - {r["input"] for r in untraced}
    if missing or (args.trace and not traced):
        print("\n".join(problems), file=sys.stderr)
        print(f"error: no experiment completed for inputs {sorted(missing)}", file=sys.stderr)
        return 1
    det_problems, trajectory_note = determinism(workload, args.seed, inputs_id, recs)
    problems += det_problems

    e2e, intervals = end_to_end(workload, untraced, setup_s)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for k in range(INPUTS_PER_RUN):
        config_seed, partition_seed, dataset_seed = derived_seeds(args.seed, workload.name, k)
        print(f"  input {k}: config seed {config_seed}, partition seed {partition_seed}, "
              f"dataset seed {dataset_seed}")
    print(f"  {len(untraced)} untraced + {len(traced)} traced experiments of {workload.rounds} "
          f"rounds, one at a time, BLAS threads 1; {len(setup_s)} set-ups")
    for name, (value, unit) in e2e.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    print(f"  {'failed_update_share':26s} {failed / attempted:14.6g} ratio"
          f"  ({failed} failed / {attempted} attempted client updates)")
    beyond = sum(1 for v in intervals if v > e2e["round_ms_tail"][0])
    reached = sum(g[0]["target_round"] is not None for g in by_input(untraced).values())
    print(f"  round_ms_tail is p{workload.tail_pct:g} of {len(intervals)} round intervals "
          f"({beyond} beyond)")
    print(f"  time_to_target_s waits for global_acc >= {workload.target_acc}: {reached} of "
          f"{INPUTS_PER_RUN} inputs reach it; a miss counts its whole round loop")
    print(f"  trajectory: {trajectory_note}")

    metrics, kind = e2e, "end_to_end"
    if args.trace:
        kind = "per_layer"
        metrics, self_times, round_ms = per_layer(traced, e2e["client_updates_per_s"][0])
        print(f"  traced round wall {round_ms:.3f} ms; self time per round by span:")
        for ms, name in self_times:
            print(f"    {name:44s} {ms:10.3f} ms {100 * ms / round_ms:6.1f}%")
        for name, (value, unit) in metrics.items():
            print(f"  {name:46s} {value:14.6g} {unit}")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
        print(f"CHECK FAILED: {workload.name} seed {args.seed}: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in declared(kind) or metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
