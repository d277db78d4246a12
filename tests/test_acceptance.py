"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import csv
import json
import time

import numpy as np
import pytest

import package_oracle as oracle
from conftest import cosine_of, full_selection_constant_weights, kl_of, small_config
from fedcspack.aggregation import GlobalMask, ServerState, aggregate
from fedcspack.cli import main as cli_main
from fedcspack.config import DatasetSpec, RunConfig
from fedcspack.model import Batch, FlatParams, ShapeSpec, forward_loss, gradient, init_params
from fedcspack.packing import package_views
from fedcspack.partition import PartitionSpec, label_histogram, make_partition, synth_blobs
from fedcspack.protocol import run, setup_run
from fedcspack.report import summarize
from fedcspack.wire import PackedUpdate, decode_update, encode_update
from test_model import central_difference


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def desk_config(method, rounds=40, **kw):
    """The traffic-relation configuration: 20 clients, CPR 0.5, MLP 32-64-10."""
    return RunConfig(
        method=method,
        rounds=rounds,
        clients=20,
        cpr=0.5,
        local_epochs=2,
        lr=0.2,
        batch_size=32,
        pack=128,
        seed=5,
        cap_ratio=0.25,
        partition=PartitionSpec(law="dirichlet", num_clients=20, seed=6, alpha=1.0),
        model=ShapeSpec([32, 64, 10]),
        dataset=DatasetSpec(
            kind="blobs", num_classes=10, dim=32, samples_per_class=100, spread=0.3, seed=7
        ),
        **kw,
    )


def test_fedavg_oracle_equivalence(monkeypatch):
    """fedcspack with single package, full selection and constant weight
    tracks a fedavg run round-by-round to 1e-6 per coordinate."""
    started = time.perf_counter()
    base = dict(rounds=20, pack=10_000, cpr=0.5, clients=8)
    oracle = {}
    run(
        *setup_run(small_config(method="fedavg", **base)),
        round_hook=lambda t, s: oracle.__setitem__(t, s.global_params.values.copy()),
    )
    candidate = {}
    full_selection_constant_weights(monkeypatch)
    run(
        *setup_run(small_config(method="fedcspack", cap_ratio=1.0, **base)),
        round_hook=lambda t, s: candidate.__setitem__(t, s.global_params.values.copy()),
    )
    ok = len(oracle) == 20 and all(
        np.max(np.abs(candidate[t].astype(np.float64) - oracle[t].astype(np.float64))) <= 1e-6
        for t in range(20)
    )
    ok = ok and (time.perf_counter() - started) < 10.0
    report("fedavg-oracle equivalence (20 rounds, <=1e-6/coord, <10s)", ok)


def test_gradient_correctness():
    """Analytic vs central finite differences: 10 pairs x 32 coordinates."""
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(10):
        spec = ShapeSpec([6, 12, 5])
        params = init_params(spec, seed=100 + trial)
        batch = Batch(
            rng.normal(size=(8, 6)).astype(np.float32), rng.integers(0, 5, size=8)
        )
        g = gradient(params.values.astype(np.float64), batch, params.shape)
        for c in rng.choice(spec.total_params, size=32, replace=False):
            fd = central_difference(params, batch, c)
            scale = max(abs(fd), abs(g[c]), 1e-4)
            if abs(g[c] - fd) / scale >= 1e-3:
                ok = False
    report("gradient correctness (320 coords, rel err < 1e-3)", ok)


def test_aggregation_brute_force_oracle():
    """Weighted package combination equals a scalar reference exactly."""
    rng = np.random.default_rng(314)
    ok = True
    for _ in range(50):
        j_count = int(rng.integers(1, 5))
        pack = int(rng.integers(1, 4))
        # plus one package that no client sends, so the model has >= 2 params
        d = (j_count + 1) * pack
        spec = ShapeSpec((d - 1, 1), "identity")
        server = ServerState(
            FlatParams(rng.normal(size=d).astype(np.float32), spec),
            GlobalMask(np.ones(j_count + 1)),
        )
        updates = []
        for cid in range(int(rng.integers(1, 6))):
            sel = np.sort(rng.choice(j_count, size=int(rng.integers(1, j_count + 1)), replace=False))
            weights = rng.uniform(0.01, 2.0, size=len(sel))
            payload = rng.normal(size=pack * len(sel)).astype(np.float32)
            # beta carries each package's fold weight w; theta is unused
            zeros, lengths = np.zeros(len(sel)), np.full(len(sel), pack)
            updates.append(PackedUpdate(cid, 0, pack, sel, zeros, weights, lengths, payload))
        layout = package_views(d, pack)
        by_beta = [u.beta for u in updates]
        got = aggregate(server, updates, by_beta, layout).state.global_params.values

        step = [0.0] * d
        totals = [0.0] * (j_count + 1)
        for u in updates:
            for j, w in zip(u.packages, u.beta):
                totals[j] += float(w)
        for u in updates:
            for i, (j, w) in enumerate(zip(u.packages, u.beta)):
                for k in range(pack):
                    step[j * pack + k] += (float(w) / totals[j]) * float(u.payload[i * pack + k])
        before = server.global_params.values.astype(np.float64)
        expected = (before + np.array(step)).astype(np.float32)
        if not np.array_equal(got, expected):
            ok = False
    report("aggregation brute-force oracle (<=5 clients, exact)", ok)


def test_partition_invariants():
    """200 randomized cases: exact cover, disjointness, determinism; plus
    Dirichlet entropy ordering across alpha over 20 seeds."""
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    for case in range(200):
        classes = int(rng.integers(2, 8))
        per_class = int(rng.integers(20, 60))
        data = synth_blobs(classes, 4, per_class, spread=0.5, seed=case)
        if rng.random() < 0.5:
            spec = PartitionSpec(
                law="dirichlet",
                num_clients=int(rng.integers(2, 12)),
                seed=case * 3 + 1,
                alpha=float(rng.uniform(0.05, 10.0)),
            )
        else:
            spec = PartitionSpec(
                law="pathological",
                num_clients=int(rng.integers(2, 8)),
                seed=case * 3 + 2,
                shards_per_client=int(rng.integers(1, 4)),
            )
        part = make_partition(data, spec)
        rows = np.concatenate(part.assignment)
        if len(rows) != len(data) or len(np.unique(rows)) != len(data):
            ok = False
        for tr, te in zip(part.train, part.test):
            if len(np.intersect1d(tr, te)) != 0:
                ok = False
        again = make_partition(data, spec)
        if not all(np.array_equal(a, b) for a, b in zip(part.assignment, again.assignment)):
            ok = False

    data = synth_blobs(10, 4, 100, spread=0.5, seed=999)
    means = {}
    for alpha in (0.1, 1.0, 100.0):
        vals = []
        for seed in range(20):
            spec = PartitionSpec(law="dirichlet", num_clients=10, seed=seed, alpha=alpha)
            part = make_partition(data, spec)
            ents = []
            for rows in part.assignment:
                p = label_histogram(data, rows) / len(rows)
                p = p[p > 0]
                ents.append(float(-(p * np.log(p)).sum()))
            vals.append(np.mean(ents))
        means[alpha] = float(np.mean(vals))
    ok = ok and means[0.1] < means[1.0] < means[100.0]
    ok = ok and (time.perf_counter() - started) < 30.0
    report("partition invariants (200 cases + entropy ordering, <30s)", ok)


def test_wire_exactness():
    """1000 fuzzed round-trips, closed-form lengths, and bytes_up metric
    equal to the analytic per-round codec total."""
    rng = np.random.default_rng(55)
    fields = ("packages", "theta", "beta", "lengths", "payload")
    ok = True
    for _ in range(1000):
        n_entries = int(rng.integers(0, 10))
        lens = rng.integers(0, 24, size=n_entries)
        u = PackedUpdate(
            client_id=int(rng.integers(0, 2**32)),
            round=int(rng.integers(0, 1000)),
            pack=int(rng.integers(1, 1024)),
            packages=np.arange(n_entries),
            theta=rng.uniform(-1, 1, size=n_entries).astype(np.float32),
            beta=rng.uniform(0, 3, size=n_entries).astype(np.float32),
            lengths=lens,
            payload=rng.normal(size=int(lens.sum())).astype(np.float32),
        )
        blob = encode_update(u)
        if len(blob) != 22 + sum(16 + 4 * int(n) for n in lens):
            ok = False
        back = decode_update(blob)
        if (back.client_id, back.round, back.pack) != (u.client_id, u.round, u.pack) or not all(
            np.array_equal(getattr(back, f), getattr(u, f)) for f in fields
        ):
            ok = False

    # dense fedavg: every round's bytes_up is participants * (22 + 16J + 4d)
    config = small_config(method="fedavg", rounds=3, pack=64)
    result = run(*setup_run(config))
    d = config.model.total_params
    j_count = -(-d // 64)
    for m in result.metrics:
        if m.bytes_up != len(m.participants) * (22 + 16 * j_count + 4 * d):
            ok = False
    report("wire exactness (1000 fuzz + closed form + bytes_up metric)", ok)


def test_traffic_reduction_relation():
    """Capped packaging reaches >=3x uplink compression without losing more
    than 2 accuracy points against the same-seed fedavg reference."""
    started = time.perf_counter()
    fedavg = run(*setup_run(desk_config("fedavg")))
    reference = summarize(fedavg.metrics, fedavg.config.model.total_params)
    packed = run(*setup_run(desk_config("fedcspack")))
    candidate = summarize(packed.metrics, packed.config.model.total_params)
    ok = candidate.compression_vs_dense >= 3.0
    ok = ok and candidate.final_personalized_acc >= reference.final_personalized_acc - 0.02
    ok = ok and (time.perf_counter() - started) < 120.0
    print(
        f"  compression={candidate.compression_vs_dense:.2f} "
        f"packed_acc={candidate.final_personalized_acc:.4f} "
        f"fedavg_acc={reference.final_personalized_acc:.4f}"
    )
    report("traffic-reduction relation (>=3x, within 2pp of fedavg, <2min)", ok)


def write_config(tmp_path, rounds=30):
    doc = {
        "method": "fedcspack",
        "rounds": rounds,
        "clients": 10,
        "cpr": 0.5,
        "local_epochs": 1,
        "lr": 0.2,
        "batch_size": 32,
        "pack": 64,
        "cap_ratio": 0.5,
        "seed": 11,
        "partition": {"law": "dirichlet", "num_clients": 10, "seed": 12, "alpha": 1.0},
        "model": {"widths": [16, 32, 10], "activation": "relu"},
        "dataset": {
            "kind": "blobs",
            "num_classes": 10,
            "dim": 16,
            "samples_per_class": 60,
            "spread": 0.3,
            "seed": 13,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_dual_weight_ablation_harness(tmp_path):
    """One sweep command produces the 3-row weight-mode table and every run
    clears chance level (0.1) by round 30."""
    config_path = write_config(tmp_path)
    out = tmp_path / "ablation"
    code = cli_main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--grid",
            "weight_mode=cos_only,kl_only,dual",
            "--out",
            str(out),
        ]
    )
    ok = code == 0
    with open(out / "sweep_summary.csv") as f:
        rows = list(csv.DictReader(f))
    ok = ok and len(rows) == 3
    ok = ok and {r["weight_mode"] for r in rows} == {"cos_only", "kl_only", "dual"}
    for row in rows:
        with open(out / row["cell"] / "metrics.csv") as f:
            cells = list(csv.DictReader(f))
        if float(cells[29]["global_acc"]) <= 0.1:
            ok = False
    report("dual-weight ablation harness (3-row table, above chance by r30)", ok)


def test_cpr_robustness_harness(tmp_path):
    """cpr sweep completes; every round samples exactly ceil_share(cpr, N)
    distinct clients; metrics files exist for all cells."""
    config_path = write_config(tmp_path, rounds=8)
    out = tmp_path / "cpr"
    code = cli_main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--grid",
            "cpr=0.3,0.6,1.0",
            "--out",
            str(out),
        ]
    )
    ok = code == 0
    with open(out / "sweep_summary.csv") as f:
        rows = list(csv.DictReader(f))
    ok = ok and len(rows) == 3
    for row in rows:
        cell = out / row["cell"]
        ok = ok and (cell / "metrics.csv").exists() and (cell / "run.json").exists()
        expect = oracle.ceil_share(float(row["cpr"]), 10)
        with open(cell / "metrics.csv") as f:
            for record in csv.DictReader(f):
                members = record["participants"].split(";")
                if len(members) != expect or len(set(members)) != expect:
                    ok = False
    report("cpr robustness harness (|S_t| = ceil_share(cpr, N), all cells emitted)", ok)


def test_kl_cosine_unit_identities():
    """cos(v,v)=1, orthogonal cos=0, KL(p,p)=0, KL>=0 over fixtures plus 500
    random vectors, each pair scored by score_packages/package_kl as the
    parameters of one-package models."""
    ok = True
    fixtures = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 2.0, 3.0]),
        np.array([-4.0, 5.0, -6.0]),
        np.array([0.5, 0.5, 0.5, 0.5]),
    ]
    for v in fixtures:
        ok = ok and cosine_of(v, v) == pytest.approx(1.0, abs=1e-12)
        ok = ok and kl_of(v, v) == pytest.approx(0.0, abs=1e-12)
    ok = ok and cosine_of(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    rng = np.random.default_rng(404)
    for _ in range(500):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=n) * float(rng.uniform(0.1, 10))
        b = rng.normal(size=n) * float(rng.uniform(0.1, 10))
        if not (abs(cosine_of(a, a) - 1.0) < 1e-12):
            ok = False
        if kl_of(a, a) > 1e-12:
            ok = False
        if kl_of(a, b) < 0:
            ok = False
        if not (-1.0 <= cosine_of(a, b) <= 1.0):
            ok = False
    report("kl/cosine unit identities (fixtures + 500 random)", ok)
