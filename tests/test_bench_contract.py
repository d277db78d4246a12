"""The names the benchmark harness (perfbench/) reaches into still exist,
and the kernel micro-benchmarks (bench/) still run.

perfbench/spans.py patches functions by name in the module namespaces
that look them up, and perfbench/run.py reads decoded wire updates.  A
change that renames or drops one of these would crash the benchmark, not
the suite; these tests make it fail here instead.  perfbench/ is only
read, never imported as a package or written to.  bench/ lies outside
the suite's testpaths, so it is run here once, timing disabled.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

from conftest import small_config
from fedcspack import aggregation, cli, model, packing, partition, protocol, report, wire
from fedcspack.config import config_to_dict

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
MODULES = {
    "aggregation": aggregation, "cli": cli, "model": model, "packing": packing,
    "partition": partition, "protocol": protocol, "report": report, "wire": wire,
}
# perfbench's own literal (perfbench/run.py), not protocol.BROADCAST_ID: this
# states perfbench's contract, so it must not follow a change in src/
BROADCAST_ID = 0xFFFFFFFF


def load_spans():
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return spans


def test_traced_names_resolve():
    spans = load_spans()
    for _, home, func, namespaces in spans.TRACED:
        assert callable(getattr(MODULES[home], func)), f"{home}.{func}"
        for ns in namespaces:
            assert callable(getattr(MODULES[ns], func)), f"{ns}.{func}"


def test_traced_run_and_decoded_updates(tmp_path):
    """One small `fedcspack run` of the fedcspack method under the tracer,
    with the client and broadcast blobs captured at protocol.encode_update
    and a traced round hook passed to `run`, as the harness does."""
    spans = load_spans()
    config = small_config(rounds=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    tracer = spans.Tracer()
    blobs = []
    round_hook = tracer.wrap("bench.round_hook", lambda t, server: None)

    def observe_run(run):
        return lambda setup, *args, **kwargs: run(setup, *args, round_hook=round_hook, **kwargs)

    def capture(encode_update):
        def observed(update):
            blob = encode_update(update)
            blobs.append(blob)
            return blob
        return observed

    replacements = tracer.replacements(MODULES) + [
        (cli, "run", observe_run), (protocol, "encode_update", capture)
    ]
    with spans.patched(replacements):
        assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0

    assert tracer.round == spans.REPORT
    # cmd_run sets up before it calls run, so run's span holds only rounds
    setup_names = ("partition.build_dataset", "partition.make_partition", "model.init_params")
    set_up = [(n, r, parent) for n, _, _, parent, r in tracer.spans if n in setup_names]
    assert sorted(set_up) == sorted((n, spans.SETUP, None) for n in setup_names)
    totals = tracer.layer_totals()
    assert totals["rounds"] == config.rounds

    def spans_of(name, t):
        return [(start, end) for n, start, end, _, r in tracer.spans if (n, r) == (name, t)]

    # the hook fires once a round, between that round's fold and its evaluation
    for t in range(config.rounds):
        (fold,), (hook,), (scored,) = (
            spans_of(name, t)
            for name in ("aggregation.aggregate", "bench.round_hook", "protocol.evaluate")
        )
        assert fold[1] <= hook[0] and hook[1] <= scored[0], f"round {t}"

    assert tracer.packages_scored > 0 and len(tracer.valid_share) == 2
    names = {span[0] for span in tracer.spans}
    assert {"protocol.evaluate", "aggregation.aggregate", "report.per_client_accuracy"} <= names
    # run's writer looks its report names up in cli's namespace, where they are traced
    assert {"report.write_metrics_csv", "report.write_run_json", "report.summarize",
            "report.emit_series"} <= names

    decoded = [wire.decode_update(blob) for blob in blobs]
    assert all(len(blob) == u.encoded_length() for blob, u in zip(blobs, decoded))
    broadcasts = [u for u in decoded if u.client_id == BROADCAST_ID]
    assert len(broadcasts) == 2 and len(decoded) > 2
    # every fedcspack client pulls before it trains, inside run's round loop
    pulls = totals["loop"]["aggregation.selective_pull.client"][2]
    assert pulls == len(decoded) - len(broadcasts)
    for u in decoded:
        assert len(u.entries) >= 1
        assert np.asarray(u.entries[0].payload, dtype="<f4").ndim == 1


def test_micro_benchmarks_run():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
