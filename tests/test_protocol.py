import dataclasses
import hashlib
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import package_oracle as oracle
from conftest import (
    copied_state,
    full_selection_constant_weights,
    idx_blobs,
    layout_for,
    params_of,
    small_config,
    topk_kept,
    weight_mode_of,
    widened,
)
from fedcspack.aggregation import GlobalMask, ServerState, aggregate
from fedcspack.config import DatasetSpec
from fedcspack import protocol
from fedcspack.errors import ConfigError, DecodeError, InvariantError, ProtocolViolation
from fedcspack.model import FlatParams, ShapeSpec, init_params
from fedcspack.packing import package_views
from fedcspack.partition import Dataset, Partition, PartitionSpec
from fedcspack.protocol import (
    BROADCAST_ID, RunResult, RunSetup, evaluate, round_step, run, setup_run
)
from fedcspack.report import metrics_rows
from fedcspack.wire import MAGIC, VERSION, encode_update


class TestMagnitudeTopk:
    """The coordinates a magnitude Top-k client sends."""

    def test_full_fraction_is_dense(self):
        rng = np.random.default_rng(1)
        g = params_of(rng.normal(size=10))
        loc = params_of(rng.normal(size=10))
        kept = topk_kept(loc, g, 1.0)
        assert np.array_equal(kept, np.arange(10))

    def test_argmax_magnitude(self):
        g = params_of(np.zeros(3))
        loc = params_of([0.1, -5.0, 0.2])
        kept = topk_kept(loc, g, 1 / 3)
        assert list(kept) == [1]

    def test_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = 100
            g = params_of(rng.normal(size=d))
            loc = params_of(rng.normal(size=d))
            frac = float(rng.uniform(0.05, 0.9))
            kept = topk_kept(loc, g, frac)
            delta = np.abs(loc.values.astype(np.float64) - g.values.astype(np.float64))
            k = oracle.ceil_share(frac, d)
            expected = sorted(sorted(range(d), key=lambda i: (-delta[i], i))[:k])
            assert list(kept) == expected

    def test_tie_prefers_lower_index(self):
        g = params_of(np.zeros(4))
        loc = params_of(np.ones(4))
        kept = topk_kept(loc, g, 0.5)
        assert list(kept) == [0, 1]

    @pytest.mark.parametrize("fraction", [0.55, np.float64(0.55)], ids=["float", "float64"])
    def test_fraction_is_the_decimal_share(self, fraction):
        # 0.55 * 100 is 55.00000000000001 in float64: 55 coordinates, not 56
        loc = params_of(np.random.default_rng(3).normal(size=100))
        assert len(topk_kept(loc, params_of(np.zeros(100)), fraction)) == 55


class TestRunLoop:
    def test_result_fields_are_the_set_up_then_the_outcome(self):
        names = [f.name for f in dataclasses.fields(RunResult)]
        setup_names = [f.name for f in dataclasses.fields(RunSetup)]
        assert names == setup_names + ["metrics", "server", "locals_", "per_client_acc"]

    def test_result_carries_its_start(self):
        start = setup_run(small_config(rounds=1))
        result = run(*start)
        setup, _, locals_ = start
        for name in ("config", "dataset", "partition", "layout"):
            assert getattr(result, name) is getattr(setup, name), name
        assert result.locals_ is locals_
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.metrics = []

    def test_single_client_fedavg_degeneracy(self):
        config = small_config(
            method="fedavg", clients=1, cpr=1.0, rounds=3, pack=10_000
        )
        result = run(*setup_run(config))
        # the global model is the single client's trained model, up to the
        # float32 delta round-trip
        assert np.allclose(
            result.server.global_params.values, result.locals_[0].values, atol=1e-6
        )

    def test_sampling_size_and_distinctness(self):
        config = small_config(cpr=0.6, rounds=4)
        result = run(*setup_run(config))
        expect = oracle.ceil_share(0.6, config.clients)
        for m in result.metrics:
            assert len(m.participants) == expect
            assert len(set(m.participants)) == expect

    def test_repeated_client_in_sample_raises(self, monkeypatch):
        # the round's sampling stream, [seed, 17, t], made to draw its first
        # client twice; every other stream is numpy's own
        config = small_config(rounds=2)
        default_rng = np.random.default_rng

        class Repeating:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def choice(self, *args, **kwargs):
                drawn = self.rng.choice(*args, **kwargs)
                drawn[-1] = drawn[0]
                return drawn

        def sampling_repeats(seed=None):
            if isinstance(seed, list) and seed[:2] == [config.seed, 17]:
                return Repeating(seed)
            return default_rng(seed)

        size = oracle.ceil_share(config.cpr, config.clients)
        drawn = default_rng([config.seed, 17, 0]).choice(config.clients, size=size, replace=False)
        drawn[-1] = drawn[0]
        monkeypatch.setattr(protocol.np.random, "default_rng", sampling_repeats)
        with pytest.raises(InvariantError) as raised:
            run(*setup_run(config))
        assert str(raised.value) == f"round 0: sampled clients {sorted(drawn.tolist())} are not distinct"

    def test_sample_size_is_the_decimal_share(self):
        # 0.14 * 50 is 7.000000000000001 in float64: 7 clients a round, not 8
        result = run(*setup_run(small_config(clients=50, cpr=0.14, rounds=2)))
        assert [len(m.participants) for m in result.metrics] == [7, 7]

    def test_determinism_csv(self):
        config = small_config(rounds=4)
        a = run(*setup_run(config))
        b = run(*setup_run(config))
        # wall_ms (column 6) is the only non-deterministic field
        rows_a = [r[:6] + r[7:] for r in metrics_rows(a.metrics)]
        rows_b = [r[:6] + r[7:] for r in metrics_rows(b.metrics)]
        assert rows_a == rows_b

    def test_fedcspack_matches_fedavg_with_overrides(self, monkeypatch):
        base = dict(rounds=6, pack=10_000, cpr=0.5)
        fedavg = run(*setup_run(small_config(method="fedavg", **base)))
        trace = {}
        fedavg_trace = {}
        run(
            *setup_run(small_config(method="fedavg", **base)),
            round_hook=lambda t, s: fedavg_trace.__setitem__(t, s.global_params.values.copy()),
        )
        full_selection_constant_weights(monkeypatch)
        run(
            *setup_run(small_config(method="fedcspack", cap_ratio=1.0, **base)),
            round_hook=lambda t, s: trace.__setitem__(t, s.global_params.values.copy()),
        )
        for t in fedavg_trace:
            assert np.allclose(trace[t], fedavg_trace[t], atol=1e-6)
        assert fedavg.metrics  # sanity

    def test_cap_ratio_reduces_uplink(self):
        full = run(*setup_run(small_config(cap_ratio=1.0, rounds=3)))
        capped = run(*setup_run(small_config(cap_ratio=0.25, rounds=3)))
        for a, b in zip(capped.metrics, full.metrics):
            assert a.bytes_up <= b.bytes_up

    def test_method_isolation_same_partition_and_init(self):
        a = run(*setup_run(small_config(method="fedavg", rounds=1)))
        b = run(*setup_run(small_config(method="fedcspack", rounds=1)))
        for x, y in zip(a.partition.assignment, b.partition.assignment):
            assert np.array_equal(x, y)

    def test_prox_runs(self):
        result = run(*setup_run(small_config(method="fedprox", prox_mu=0.1, rounds=3)))
        assert len(result.metrics) == 3

    def test_magnitude_topk_runs_and_is_sparse(self):
        dense = run(*setup_run(small_config(method="fedavg", rounds=3, pack=10_000)))
        sparse = run(*setup_run(small_config(method="magnitude_topk", topk_fraction=0.05, rounds=3)))
        assert sum(m.bytes_up for m in sparse.metrics) < sum(m.bytes_up for m in dense.metrics)

    def test_dataset_model_dim_mismatch(self, tmp_path):
        # blobs declare their width, so the config is rejected at load
        with pytest.raises(ConfigError, match="dataset dim 16 != model input 20"):
            small_config(model=ShapeSpec([20, 6]))
        # an IDX file's width is known only once run reads it
        config = small_config(dataset=idx_blobs(tmp_path, 6, 16, 10, seed=4), model=ShapeSpec([20, 6]))
        with pytest.raises(ConfigError, match="dataset dim 16 != model input 20"):
            run(*setup_run(config))

    def test_idx_dataset_with_more_classes_than_model_outputs(self, tmp_path):
        config = small_config(
            dataset=idx_blobs(tmp_path, 12, 16, 10, seed=4), model=ShapeSpec([16, 24, 10])
        )
        with pytest.raises(ConfigError, match="12 > model outputs 10"):
            run(*setup_run(config))

    def test_weight_mode_ablation_runs(self):
        for mode in ("dual", "cos_only", "kl_only"):
            result = run(*setup_run(small_config(weight_mode=mode, rounds=2)))
            assert len(result.metrics) == 2

    @pytest.mark.parametrize("overrides", [dict(method="fedcspack"), dict(method="fedprox", prox_mu=0.1)])
    def test_shared_global_never_written(self, overrides):
        # the round's global model is shared, not copied: fedprox trains from
        # it and anchors on it, and never-sampled clients keep the initial one
        kept = []
        run(
            *setup_run(small_config(rounds=4, **overrides)),
            round_hook=lambda t, s: kept.append(
                (s.global_params.values, hashlib.sha256(s.global_params.values).digest())
            ),
        )
        assert len(kept) == 4
        for values, digest in kept:
            assert hashlib.sha256(values).digest() == digest

        config = small_config(rounds=1, **overrides)
        result = run(*setup_run(config))
        start = init_params(config.model, config.seed)
        never_sampled = sorted(set(range(config.clients)) - set(result.metrics[0].participants))
        assert never_sampled
        for i in never_sampled:
            assert np.array_equal(result.locals_[i].values, start.values)

        # the rule is the type's: shared values are read-only, and the server
        # state is replaced each round, never changed
        for params in [*result.locals_, result.server.global_params]:
            assert not params.values.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.server.global_params = start

    @pytest.mark.parametrize("method", ["fedcspack", "magnitude_topk"])
    def test_widened_global_never_written(self, monkeypatch, method):
        # every client of a round scores against one float64 widening of the
        # global model; a kernel that wrote it would skew every later client
        rounds = {}
        client_update = protocol._client_update

        def observed(config, i, t, trained, global_snapshot, global64, layout):
            vector, want = rounds.setdefault(t, (global64, widened(global_snapshot).tobytes()))
            assert global64 is vector and global64.tobytes() == want
            assert not global64.flags.writeable
            return client_update(config, i, t, trained, global_snapshot, global64, layout)

        def after_round(t, server):
            vector, want = rounds[t]
            assert vector.tobytes() == want

        monkeypatch.setattr(protocol, "_client_update", observed)
        run(*setup_run(small_config(method=method, rounds=3)), round_hook=after_round)
        assert sorted(rounds) == [0, 1, 2]


class TestRoundStep:
    def test_repeatable_and_untouched_clients_aliased(self):
        # two clients of eight a round: after round 0 six still hold the
        # initial model, which they share as one read-only object
        config = small_config(cpr=0.25)
        setup, server, locals_ = setup_run(config)
        initial = server.global_params
        server, _, _ = round_step(setup, server, locals_, 0)
        untouched = [i for i, m in enumerate(locals_) if m is initial]
        assert len(untouched) == config.clients - 2
        assert not initial.values.flags.writeable

        outcomes = []
        for _ in range(2):
            start, models = copied_state(server, locals_)
            before = list(models)
            after, metrics, per_client = round_step(setup, start, models, 1)
            kept = [i for i in range(config.clients) if i not in metrics.participants]
            assert all(models[i] is before[i] for i in kept)
            outcomes.append((
                after.global_params.values.tobytes(), after.global_mask.totals.tobytes(),
                dataclasses.replace(metrics, wall_ms=0.0), per_client,
                [m.values.tobytes() for m in models],
            ))
        assert outcomes[0] == outcomes[1]


def drop_last_entry(decode):
    """A decode_update that loses one entry, so the closed-form length of
    the decoded updates no longer matches the bytes sent."""

    def lossy(blob):
        u = decode(blob)
        kept = len(u.payload) - int(u.lengths[-1])
        return dataclasses.replace(
            u,
            packages=u.packages[:-1],
            theta=u.theta[:-1],
            beta=u.beta[:-1],
            lengths=u.lengths[:-1],
            payload=u.payload[:kept],
        )

    return lossy


class TestMeteringCheck:
    def test_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(protocol, "decode_update", drop_last_entry(protocol.decode_update))
        with pytest.raises(InvariantError, match="metering drifted from the codec on client"):
            run(*setup_run(small_config(rounds=1)))

    def test_survives_optimized_mode(self):
        # `python -O` strips asserts; the check must still fire
        code = (
            "import pytest; from conftest import small_config; "
            "from fedcspack import protocol; from fedcspack.errors import InvariantError; "
            "from test_protocol import drop_last_entry; "
            "protocol.decode_update = drop_last_entry(protocol.decode_update); "
            "start = protocol.setup_run(small_config(rounds=1)); "
            "pytest.raises(InvariantError, protocol.run, *start)"
        )
        tests = Path(__file__).resolve().parent
        env_path = f"{tests}:{tests.parent / 'src'}"
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={"PYTHONPATH": env_path, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr


def with_value(values, k, value):
    """A copy of `values` with entry k set to `value`."""
    out = np.array(values)
    out[k] = value
    return out


def first_package_set(u, value):
    """The payload of `u` with its first package's values set to `value`."""
    payload = np.array(u.payload, dtype=np.float32)
    payload[: u.lengths[0]] = value
    return payload


# each takes a client update and the package count J; the value is the
# corruption and how `_server_ingest` rejects its blob: DecodeError for
# bytes the codec cannot read, ProtocolViolation for an update the server
# must not fold
CORRUPTIONS = {
    "index_out_of_range": (
        lambda u, j_count: dataclasses.replace(u, packages=with_value(u.packages, -1, j_count)),
        ProtocolViolation,
    ),
    "nan_payload": (
        lambda u, _: dataclasses.replace(u, payload=first_package_set(u, np.nan)),
        ProtocolViolation,
    ),
    "inf_payload": (
        lambda u, _: dataclasses.replace(u, payload=first_package_set(u, np.inf)),
        ProtocolViolation,
    ),
    # one value short, with its length: the blob decodes, the length is wrong
    "short_payload": (
        lambda u, _: dataclasses.replace(
            u,
            lengths=with_value(u.lengths, 0, u.lengths[0] - 1),
            payload=np.delete(u.payload, u.lengths[0] - 1),
        ),
        ProtocolViolation,
    ),
    # one value short, lengths as announced: the blob is truncated
    "short_payload_only": (
        lambda u, _: dataclasses.replace(u, payload=u.payload[:-1]), DecodeError
    ),
    "header_pack": (lambda u, _: dataclasses.replace(u, pack=u.pack + 1), ProtocolViolation),
    "header_round": (lambda u, _: dataclasses.replace(u, round=u.round + 1), ProtocolViolation),
    "unsampled_client": (
        lambda u, _: dataclasses.replace(u, client_id=1000), ProtocolViolation
    ),
    "nan_theta": (
        lambda u, _: dataclasses.replace(u, theta=with_value(u.theta, 0, np.nan)),
        ProtocolViolation,
    ),
    "theta_out_of_range": (
        lambda u, _: dataclasses.replace(u, theta=np.full(len(u.theta), 1e30)),
        ProtocolViolation,
    ),
    "negative_beta": (
        lambda u, _: dataclasses.replace(u, beta=with_value(u.beta, 0, -0.9)),
        ProtocolViolation,
    ),
}

# each takes an encoded client update; none of the results decodes
BLOB_CORRUPTIONS = {
    "bad_magic": lambda blob: b"XXXX" + blob[len(MAGIC) :],
    "truncated": lambda blob: blob[:-3],
    "trailing_byte": lambda blob: blob + b"\0",
    "bad_version": lambda blob: blob[:4] + struct.pack("<H", VERSION + 1) + blob[6:],
}

# every corruption under both weightings: fedcspack's mask weights, and
# fedavg's 1.0, which never reads theta or beta
FAULT_CASES = [
    (method, kind) for method in ("fedcspack", "fedavg") for kind in [*CORRUPTIONS, *BLOB_CORRUPTIONS]
]


def first_client_sends(encode, send, honest, sent):
    """An encode_update whose first call (the run's first client update)
    returns `send(update)`; it collects the other client blobs of round 0
    in `honest` and every client blob of round 0, as sent, in `sent`."""
    calls = []

    def wrapped(update):
        calls.append(update.client_id)
        blob = send(update) if len(calls) == 1 else encode(update)
        if update.round == 0 and update.client_id != BROADCAST_ID:
            sent.append(blob)
            if len(calls) > 1:
                honest.append((update.client_id, blob))
        return blob

    return wrapped


def corrupt_first_update(encode, corrupt, honest, sent):
    """first_client_sends, with the first update passed through `corrupt`
    before it is encoded."""
    return first_client_sends(encode, lambda u: encode(corrupt(u)), honest, sent)


def corrupt_first_blob(encode, corrupt, honest, sent):
    """first_client_sends, with the first update's blob passed through
    `corrupt` after it is encoded."""
    return first_client_sends(encode, lambda u: corrupt(encode(u)), honest, sent)


class TestMalformedUpdates:
    @pytest.mark.parametrize("method, kind", FAULT_CASES)
    def test_counted_not_fatal(self, monkeypatch, method, kind):
        config = small_config(method=method, rounds=2)
        layout = layout_for(config)
        honest, sent = [], []
        encode = protocol.encode_update
        if kind in BLOB_CORRUPTIONS:
            wrapped = corrupt_first_blob(encode, BLOB_CORRUPTIONS[kind], honest, sent)
        else:
            corrupt = lambda u: CORRUPTIONS[kind][0](u, layout.num_packages)  # noqa: E731
            wrapped = corrupt_first_update(encode, corrupt, honest, sent)
        monkeypatch.setattr(protocol, "encode_update", wrapped)
        globals_ = []
        result = run(
            *setup_run(config), round_hook=lambda t, s: globals_.append(s.global_params.values.copy())
        )

        assert [m.violations for m in result.metrics] == [1, 0]
        assert all(np.isfinite(g).all() for g in globals_)
        # a rejected blob was still sent, so it is still metered
        assert result.metrics[0].bytes_up == sum(map(len, sent))
        # round 0's global is the aggregate of the other clients' updates
        start = init_params(config.model, config.seed)
        others = [protocol._server_ingest(blob, cid, 0, layout) for cid, blob in honest]
        assert len(others) == len(sent) - 1 == len(result.metrics[0].participants) - 1
        server = ServerState(start, GlobalMask(np.ones(layout.num_packages)))
        want = aggregate(server, others, layout, weight_mode_of(config)).state.global_params.values
        assert np.array_equal(globals_[0], want)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_rejected_where_expected(self, kind):
        config = small_config()
        layout = package_views(config.model.total_params, config.pack)
        global_ = init_params(config.model, config.seed)
        noise = np.random.default_rng(4).normal(scale=0.05, size=config.model.total_params)
        trained = FlatParams((global_.values + noise).astype(np.float32), config.model)
        corrupt, error = CORRUPTIONS[kind]
        update = protocol._client_update(config, 2, 0, trained, global_, widened(global_), layout)
        protocol._server_ingest(encode_update(update), 2, 0, layout)  # honest: accepted
        blob = encode_update(corrupt(update, layout.num_packages))
        with pytest.raises(error):
            protocol._server_ingest(blob, 2, 0, layout)


def dropped_at_ingest(ingest, round_, position, victim):
    """An ingest that rejects the `position`-th update of round `round_`
    as a violation and appends its sender to `victim`."""
    senders = []

    def wrapped(blob, sender, t, layout):
        if t == round_:
            senders.append(sender)
            if len(senders) == position + 1:
                victim.append(sender)
                raise ProtocolViolation("dropped")
        return ingest(blob, sender, t, layout)

    return wrapped


def corrupted_at(encode, round_, victim, kind, j_count):
    """An encode_update that applies corruption `kind` to client `victim`'s
    update of round `round_`, or to its blob for a blob corruption."""

    def wrapped(update):
        if (update.round, update.client_id) != (round_, victim):
            return encode(update)
        if kind in BLOB_CORRUPTIONS:
            return BLOB_CORRUPTIONS[kind](encode(update))
        return encode(CORRUPTIONS[kind][0](update, j_count))

    return wrapped


def trajectory(config):
    """Per round: the global parameters' digest and both accuracies; and
    the violation counts, after checking that every global is finite."""
    globals_ = []
    result = run(
        *setup_run(config), round_hook=lambda t, s: globals_.append(s.global_params.values.copy())
    )
    assert all(np.isfinite(g).all() for g in globals_)
    rounds = [
        (hashlib.sha256(g.tobytes()).hexdigest(), m.global_acc, m.personalized_acc)
        for g, m in zip(globals_, result.metrics)
    ]
    return rounds, [m.violations for m in result.metrics]


class TestFaultProperty:
    """One corrupted update, at any sampled client in any round, costs the
    run exactly that update: the trajectory is that of the same run with
    the update dropped at ingest."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(FAULT_CASES),
        st.integers(0, 2),
        st.integers(0, 3),  # among the 4 clients sampled per round
    )
    # the range and infinite-payload kinds run every time, for both methods
    @example(("fedcspack", "theta_out_of_range"), 0, 1)
    @example(("fedavg", "theta_out_of_range"), 2, 0)
    @example(("fedcspack", "negative_beta"), 1, 3)
    @example(("fedavg", "negative_beta"), 0, 2)
    @example(("fedcspack", "inf_payload"), 2, 2)
    @example(("fedavg", "inf_payload"), 1, 0)
    def test_equals_run_with_update_dropped(self, case, round_, position):
        method, kind = case
        config = small_config(method=method, rounds=3)
        victim = []
        drop = dropped_at_ingest(protocol._server_ingest, round_, position, victim)
        with mock.patch.object(protocol, "_server_ingest", drop):
            want, want_violations = trajectory(config)
        assert len(victim) == 1
        j_count = layout_for(config).num_packages
        corrupt = corrupted_at(protocol.encode_update, round_, victim[0], kind, j_count)
        with mock.patch.object(protocol, "encode_update", corrupt):
            got, violations = trajectory(config)
        assert violations == want_violations == [int(t == round_) for t in range(config.rounds)]
        assert got == want


@pytest.mark.parametrize("method", ["fedavg", "magnitude_topk"])
def test_baselines_ignore_theta_and_beta(method):
    """A baseline weighs every package 1.0: one update that carries in-range
    theta -0.5 and beta 2.0 leaves the trajectory of the honest run."""
    config = small_config(method=method, rounds=3)
    want = trajectory(config)
    encode, skewed = protocol.encode_update, []

    def skew_one(update):
        if update.round == 1 and update.client_id != BROADCAST_ID and not skewed:
            skewed.append(update.client_id)
            n = len(update.packages)
            update = dataclasses.replace(update, theta=np.full(n, -0.5), beta=np.full(n, 2.0))
        return encode(update)

    with mock.patch.object(protocol, "encode_update", skew_one):
        got = trajectory(config)
    assert len(skewed) == 1
    assert got == want


class TestEvaluate:
    def constant_predictor(self, num_classes, winner):
        # zero weights, bias picks the winner class
        spec = ShapeSpec([2, num_classes])
        values = np.zeros(spec.total_params, dtype=np.float32)
        values[2 * num_classes + winner] = 10.0
        return FlatParams(values, spec)

    def test_dataset_size_weighting(self):
        # |D_1| = 3 |D_2|; client 1 always right, client 2 always wrong
        spec = ShapeSpec([2, 2])
        config = small_config(
            clients=2, pack=spec.total_params, model=spec,
            dataset=DatasetSpec(
                kind="blobs", num_classes=2, dim=2, samples_per_class=4, spread=0.3, seed=3
            ),
        )
        features = np.zeros((8, 2), dtype=np.float32)
        labels = np.array([0] * 6 + [0, 0])
        dataset = Dataset(features=features, labels=labels, num_classes=2)
        partition = Partition(
            assignment=[np.arange(6), np.arange(6, 8)],
            train=[np.arange(5), np.arange(6, 7)],
            test=[np.arange(5, 6), np.arange(7, 8)],
        )
        locals_ = [self.constant_predictor(2, 0), self.constant_predictor(2, 1)]
        server = ServerState(
            global_params=FlatParams(np.zeros(spec.total_params, dtype=np.float32), spec),
            global_mask=GlobalMask(np.zeros(1)),  # nothing valid: pull keeps locals
        )
        setup = dataclasses.replace(setup_run(config)[0], dataset=dataset, partition=partition)
        _, personalized, per_client = evaluate(setup, server, locals_)
        assert personalized == pytest.approx(0.75 * 1.0 + 0.25 * 0.0)
        assert per_client == [1.0, 0.0]

    def test_no_client_holds_a_test_row(self):
        # 8 one-row classes dealt as 8 one-shard clients: every row trains
        config = small_config(
            rounds=2,
            model=ShapeSpec([16, 24, 8]),
            dataset=DatasetSpec(
                kind="blobs", num_classes=8, dim=16, samples_per_class=1, spread=0.3, seed=3
            ),
            partition=PartitionSpec(
                law="pathological", num_clients=8, seed=2, shards_per_client=1
            ),
        )
        result = run(*setup_run(config))
        assert not any(len(rows) for rows in result.partition.test)
        assert [(m.global_acc, m.personalized_acc) for m in result.metrics] == [(0.0, 0.0)] * 2
        assert result.per_client_acc == [0.0] * 8

    def test_chance_level_for_zero_model(self):
        config = small_config(rounds=1)
        setup = setup_run(config)[0]
        # untrained uniform model scores near chance on balanced classes
        spec = config.model
        zero = FlatParams(np.zeros(spec.total_params, dtype=np.float32), spec)
        server = ServerState(zero, GlobalMask(np.ones(setup.layout.num_packages)))
        global_acc, _, _ = evaluate(setup, server, [zero] * config.clients)
        assert 0.0 <= global_acc <= 0.45  # 6 classes, argmax ties resolve to class 0
