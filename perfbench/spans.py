"""Outside-in tracing of fedcspack: spans around calls into its functions.

A traced function is replaced, in every module namespace that looks its
name up at call time, by a wrapper that records one span: name, start,
end, the enclosing span and the round id.  Spans stay in memory and are
written out when the benchmark ends.  Nothing under src/ changes.

Round ids follow the program's round loop as seen from outside: spans
before `init_params` returns belong to set-up, round t ends when
`evaluate` returns for the t-th time, and spans after `run` returns belong
to the report.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

SETUP = -1
REPORT = -2

# (span name, module that defines the function, function, namespaces that
# look the name up).  `build_dataset` is defined in protocol.py but only
# dispatches to partition.synth_blobs / partition.load_idx, so it is
# reported with the partition layer.
TRACED = (
    ("protocol.run", "protocol", "run", ("cli",)),
    ("protocol.evaluate", "protocol", "evaluate", ("protocol",)),
    ("partition.build_dataset", "protocol", "build_dataset", ("protocol",)),
    ("partition.make_partition", "partition", "make_partition", ("protocol",)),
    ("model.init_params", "model", "init_params", ("protocol",)),
    ("model.local_train", "model", "local_train", ("protocol",)),
    ("model.gradient", "model", "gradient", ("model",)),
    ("model.forward_loss", "model", "forward_loss", ("protocol", "model")),
    ("packing.package_views", "packing", "package_views", ("protocol", "packing", "aggregation")),
    ("packing.score_packages", "packing", "score_packages", ("protocol",)),
    ("packing.select_topk", "packing", "select_topk", ("protocol",)),
    ("aggregation.selective_pull", "aggregation", "selective_pull", ("protocol", "aggregation")),
    ("aggregation.aggregate", "aggregation", "aggregate", ("protocol",)),
    ("wire.encode_update", "wire", "encode_update", ("protocol",)),
    ("wire.decode_update", "wire", "decode_update", ("protocol",)),
    ("report.write_metrics_csv", "report", "write_metrics_csv", ("cli",)),
    ("report.write_run_json", "report", "write_run_json", ("cli",)),
    ("report.per_client_accuracy", "report", "per_client_accuracy", ("cli",)),
    ("report.emit_series", "report", "emit_series", ("cli",)),
    ("report.summarize", "report", "summarize", ("cli",)),
)

# selective_pull is reported per caller, named by the enclosing span
PULL_CALLERS = {
    "protocol.run": "client",
    "protocol.evaluate": "evaluate",
    "report.per_client_accuracy": "report",
}


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set `module.name = make(current)` for each triple."""
    saved = []
    try:
        for module, name, make in replacements:
            current = getattr(module, name)
            saved.append((module, name, current))
            setattr(module, name, make(current))
        yield
    finally:
        for module, name, current in reversed(saved):
            setattr(module, name, current)


class Tracer:
    """Span recorder for one experiment (one `fedcspack run`)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.round = SETUP
        self.round_edges: list[float] = []  # round t spans edges[t]..edges[t+1]
        self.packages_scored = 0
        self.valid_share: list[float] = []
        self._stack: list[int] = []

    def _on_return(self, name: str, value, end: float) -> None:
        if name == "model.init_params" and self.round == SETUP:
            self.round = 0
            self.round_edges.append(end)
        elif name == "protocol.evaluate":
            self.round += 1
            self.round_edges.append(end)
        elif name == "protocol.run":
            self.round = REPORT
        elif name == "packing.score_packages":
            self.packages_scored += value.num_packages
        elif name == "aggregation.aggregate":
            mask = value.state.global_mask
            self.valid_share.append(float(mask.valid.sum()) / len(mask.totals))

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.round])
            stack.append(index)
            try:
                value = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = end = clock()
            self._on_return(name, value, end)
            return value

        return traced

    def replacements(self, modules: dict):
        """Patch triples that install this tracer's wrappers."""
        out = []
        for name, home, func, namespaces in TRACED:
            wrapper = self.wrap(name, getattr(modules[home], func))
            out.extend((modules[ns], func, lambda _current, w=wrapper: w) for ns in namespaces)
        return out

    def layer_totals(self) -> dict:
        """Per-name totals over the round loop plus set-up and report totals.

        Returns {"rounds": n, "round_ms": total round wall ms,
        "loop": {name: [ms, self_ms, calls]}, "setup": {...}, "report": {...}}.
        protocol.run's self time in the loop is what no child span covers.
        """
        child_ms = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ms[parent] += end - start
        loop, setup, report = (defaultdict(lambda: [0.0, 0.0, 0]) for _ in range(3))
        run_children_in_loop = 0.0
        for i, (name, start, end, parent, round_) in enumerate(self.spans):
            if name == "protocol.run":
                continue
            if name == "aggregation.selective_pull" and parent is not None:
                name = f"{name}.{PULL_CALLERS.get(self.spans[parent][0], 'other')}"
            bucket = setup if round_ == SETUP else report if round_ == REPORT else loop
            row = bucket[name]
            row[0] += (end - start) * 1e3
            row[1] += (end - start - child_ms[i]) * 1e3
            row[2] += 1
            if round_ >= 0 and parent is not None and self.spans[parent][0] == "protocol.run":
                run_children_in_loop += end - start
        edges = self.round_edges
        round_s = edges[-1] - edges[0] if len(edges) > 1 else 0.0
        loop["protocol.run"] = [round_s * 1e3, (round_s - run_children_in_loop) * 1e3, 1]
        return {
            "rounds": max(len(edges) - 1, 0),
            "round_ms": round_s * 1e3,
            "loop": dict(loop),
            "setup": dict(setup),
            "report": dict(report),
        }

    def dump(self, path: Path, experiment: int, mode: str = "a") -> None:
        with open(path, mode) as f:
            for i, (name, start, end, parent, round_) in enumerate(self.spans):
                f.write(json.dumps({
                    "experiment": experiment, "span": i, "name": name, "start": start,
                    "end": end, "parent": parent, "round": round_,
                }) + "\n")
