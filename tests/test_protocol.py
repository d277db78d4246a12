import dataclasses
import hashlib
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import full_selection_constant_weights, small_config
from fedcspack.aggregation import GlobalMask, ServerState, aggregate
from fedcspack.config import DatasetSpec
from fedcspack import protocol
from fedcspack.errors import ConfigError, DecodeError, InvariantError, ProtocolViolation
from fedcspack.model import FlatParams, ShapeSpec, init_params
from fedcspack.packing import package_views
from fedcspack.partition import Dataset, Partition, PartitionSpec
from fedcspack.protocol import baseline_magnitude_topk, effective_pack, evaluate, run
from fedcspack.report import metrics_rows
from fedcspack.wire import MAGIC, VERSION, decode_update, encode_update

BROADCAST_ID = 0xFFFFFFFF


def spec_with_total(n):
    return ShapeSpec(layer_dims=((n - 1, 1),), activation="identity")


class TestMagnitudeTopk:
    def test_full_fraction_is_dense(self):
        rng = np.random.default_rng(1)
        g = FlatParams(rng.normal(size=10).astype(np.float32), spec_with_total(10))
        loc = FlatParams(rng.normal(size=10).astype(np.float32), spec_with_total(10))
        kept = baseline_magnitude_topk(loc, g, 1.0)
        assert np.array_equal(kept, np.arange(10))

    def test_argmax_magnitude(self):
        g = FlatParams(np.zeros(3, dtype=np.float32), spec_with_total(3))
        loc = FlatParams(np.array([0.1, -5.0, 0.2], dtype=np.float32), spec_with_total(3))
        kept = baseline_magnitude_topk(loc, g, 1 / 3)
        assert list(kept) == [1]

    def test_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = 100
            g = FlatParams(rng.normal(size=d).astype(np.float32), spec_with_total(d))
            loc = FlatParams(rng.normal(size=d).astype(np.float32), spec_with_total(d))
            frac = float(rng.uniform(0.05, 0.9))
            kept = baseline_magnitude_topk(loc, g, frac)
            delta = np.abs(loc.values.astype(np.float64) - g.values.astype(np.float64))
            k = math.ceil(frac * d)
            expected = sorted(sorted(range(d), key=lambda i: (-delta[i], i))[:k])
            assert list(kept) == expected

    def test_tie_prefers_lower_index(self):
        g = FlatParams(np.zeros(4, dtype=np.float32), spec_with_total(4))
        loc = FlatParams(np.array([1.0, 1.0, 1.0, 1.0], dtype=np.float32), spec_with_total(4))
        kept = baseline_magnitude_topk(loc, g, 0.5)
        assert list(kept) == [0, 1]


class TestRunLoop:
    def test_single_client_fedavg_degeneracy(self):
        config = small_config(
            method="fedavg", clients=1, cpr=1.0, rounds=3, pack=10_000
        )
        result = run(config)
        # the global model is the single client's trained model, up to the
        # float32 delta round-trip
        assert np.allclose(
            result.server.global_params.values, result.locals_[0].values, atol=1e-6
        )

    def test_sampling_size_and_distinctness(self):
        config = small_config(cpr=0.6, rounds=4)
        result = run(config)
        expect = math.ceil(0.6 * config.clients)
        for m in result.metrics:
            assert len(m.participants) == expect
            assert len(set(m.participants)) == expect

    def test_determinism_csv(self):
        config = small_config(rounds=4)
        a = run(config)
        b = run(config)
        # wall_ms (column 6) is the only non-deterministic field
        rows_a = [r[:6] + r[7:] for r in metrics_rows(a.metrics)]
        rows_b = [r[:6] + r[7:] for r in metrics_rows(b.metrics)]
        assert rows_a == rows_b

    def test_fedcspack_matches_fedavg_with_overrides(self, monkeypatch):
        base = dict(rounds=6, pack=10_000, cpr=0.5)
        fedavg = run(small_config(method="fedavg", **base))
        trace = {}
        fedavg_trace = {}
        run(small_config(method="fedavg", **base), round_hook=lambda t, s: fedavg_trace.__setitem__(t, s.global_params.values.copy()))
        full_selection_constant_weights(monkeypatch)
        run(
            small_config(method="fedcspack", cap_ratio=1.0, **base),
            round_hook=lambda t, s: trace.__setitem__(t, s.global_params.values.copy()),
        )
        for t in fedavg_trace:
            assert np.allclose(trace[t], fedavg_trace[t], atol=1e-6)
        assert fedavg.metrics  # sanity

    def test_cap_ratio_reduces_uplink(self):
        full = run(small_config(cap_ratio=1.0, rounds=3))
        capped = run(small_config(cap_ratio=0.25, rounds=3))
        for a, b in zip(capped.metrics, full.metrics):
            assert a.bytes_up <= b.bytes_up

    def test_method_isolation_same_partition_and_init(self):
        a = run(small_config(method="fedavg", rounds=1))
        b = run(small_config(method="fedcspack", rounds=1))
        for x, y in zip(a.partition.assignment, b.partition.assignment):
            assert np.array_equal(x, y)

    def test_prox_runs(self):
        result = run(small_config(method="fedprox", prox_mu=0.1, rounds=3))
        assert len(result.metrics) == 3

    def test_magnitude_topk_runs_and_is_sparse(self):
        dense = run(small_config(method="fedavg", rounds=3, pack=10_000))
        sparse = run(small_config(method="magnitude_topk", topk_fraction=0.05, rounds=3))
        assert sum(m.bytes_up for m in sparse.metrics) < sum(m.bytes_up for m in dense.metrics)

    def test_dataset_model_dim_mismatch(self):
        config = small_config(model=ShapeSpec.from_widths([20, 6]))
        with pytest.raises(ConfigError):
            run(config)

    def test_weight_mode_ablation_runs(self):
        for mode in ("dual", "cos_only", "kl_only"):
            result = run(small_config(weight_mode=mode, rounds=2))
            assert len(result.metrics) == 2

    @pytest.mark.parametrize("overrides", [dict(method="fedcspack"), dict(method="fedprox", prox_mu=0.1)])
    def test_shared_global_never_written(self, overrides):
        # the round's global model is shared, not copied: fedprox trains from
        # it and anchors on it, and never-sampled clients keep the initial one
        kept = []
        run(
            small_config(rounds=4, **overrides),
            round_hook=lambda t, s: kept.append(
                (s.global_params.values, hashlib.sha256(s.global_params.values).digest())
            ),
        )
        assert len(kept) == 4
        for values, digest in kept:
            assert hashlib.sha256(values).digest() == digest

        config = small_config(rounds=1, **overrides)
        result = run(config)
        start = init_params(config.model, config.seed)
        never_sampled = sorted(set(range(config.clients)) - set(result.metrics[0].participants))
        assert never_sampled
        for i in never_sampled:
            assert np.array_equal(result.locals_[i].values, start.values)


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
            run(small_config(rounds=1))

    def test_survives_optimized_mode(self):
        # `python -O` strips asserts; the check must still fire
        code = (
            "import pytest; from conftest import small_config; "
            "from fedcspack import protocol; from fedcspack.errors import InvariantError; "
            "from test_protocol import drop_last_entry; "
            "protocol.decode_update = drop_last_entry(protocol.decode_update); "
            "pytest.raises(InvariantError, protocol.run, small_config(rounds=1))"
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


def first_payload_nan(u):
    payload = np.array(u.payload, dtype=np.float32)
    payload[: u.lengths[0]] = np.nan
    return payload


# each takes a client update and the package count J; the value is the
# corruption and where the server rejects it: the decoder (DecodeError),
# the ingest (ProtocolViolation) or `aggregate` (None, counted there)
CORRUPTIONS = {
    "index_out_of_range": (
        lambda u, j_count: dataclasses.replace(u, packages=with_value(u.packages, -1, j_count)),
        ProtocolViolation,
    ),
    "nan_payload": (lambda u, _: dataclasses.replace(u, payload=first_payload_nan(u)), None),
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
        lambda u, _: dataclasses.replace(u, theta=with_value(u.theta, 0, np.nan)), None
    ),
}

# each takes an encoded client update; none of the results decodes
BLOB_CORRUPTIONS = {
    "bad_magic": lambda blob: b"XXXX" + blob[len(MAGIC) :],
    "truncated": lambda blob: blob[:-3],
    "trailing_byte": lambda blob: blob + b"\0",
    "bad_version": lambda blob: blob[:4] + struct.pack("<H", VERSION + 1) + blob[6:],
}


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
    @pytest.mark.parametrize(
        "method, kind",
        [("fedcspack", kind) for kind in [*CORRUPTIONS, *BLOB_CORRUPTIONS]]
        # fedavg weighs every package 1.0 and never reads theta
        + [("fedavg", kind) for kind in [*CORRUPTIONS, *BLOB_CORRUPTIONS] if kind != "nan_theta"],
    )
    def test_counted_not_fatal(self, monkeypatch, method, kind):
        config = small_config(method=method, rounds=2)
        layout = package_views(config.model.total_params, effective_pack(config))
        honest, sent = [], []
        encode = protocol.encode_update
        if kind in BLOB_CORRUPTIONS:
            wrapped = corrupt_first_blob(encode, BLOB_CORRUPTIONS[kind], honest, sent)
        else:
            corrupt = lambda u: CORRUPTIONS[kind][0](u, layout.num_packages)  # noqa: E731
            wrapped = corrupt_first_update(encode, corrupt, honest, sent)
        monkeypatch.setattr(protocol, "encode_update", wrapped)
        globals_ = []
        result = run(config, round_hook=lambda t, s: globals_.append(s.global_params.values.copy()))

        assert [m.violations for m in result.metrics] == [1, 0]
        assert all(np.isfinite(g).all() for g in globals_)
        # a rejected blob was still sent, so it is still metered
        assert result.metrics[0].bytes_up == sum(map(len, sent))
        # round 0's global is the aggregate of the other clients' updates
        start = init_params(config.model, config.seed)
        others = [
            protocol._server_ingest(config, decode_update(blob), cid, 0, layout)
            for cid, blob in honest
        ]
        assert len(others) == len(sent) - 1 == len(result.metrics[0].participants) - 1
        server = ServerState(start, GlobalMask.all_valid(layout.num_packages))
        want = aggregate(server, others, layout).state.global_params.values
        assert np.array_equal(globals_[0], want)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_rejected_where_expected(self, kind):
        config = small_config()
        layout = package_views(config.model.total_params, config.pack)
        global_ = init_params(config.model, config.seed)
        noise = np.random.default_rng(4).normal(scale=0.05, size=config.model.total_params)
        trained = FlatParams((global_.values + noise).astype(np.float32), config.model)
        corrupt, error = CORRUPTIONS[kind]
        update = protocol._client_update(config, 2, 0, trained, global_, layout)
        blob = encode_update(corrupt(update, layout.num_packages))
        if error is not None:
            with pytest.raises(error):
                protocol._server_ingest(config, decode_update(blob), 2, 0, layout)
        else:
            ingested = protocol._server_ingest(config, decode_update(blob), 2, 0, layout)
            server = ServerState(global_, GlobalMask.all_valid(layout.num_packages))
            assert aggregate(server, [ingested], layout).violations == 1


class TestEvaluate:
    def constant_predictor(self, num_classes, winner):
        # zero weights, bias picks the winner class
        spec = ShapeSpec.from_widths([2, num_classes])
        values = np.zeros(spec.total_params, dtype=np.float32)
        values[2 * num_classes + winner] = 10.0
        return FlatParams(values, spec)

    def test_dataset_size_weighting(self):
        # |D_1| = 3 |D_2|; client 1 always right, client 2 always wrong
        spec = ShapeSpec.from_widths([2, 2])
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
            round=0,
        )
        _, personalized, per_client = evaluate(
            server, locals_, partition, dataset, pack=spec.total_params
        )
        assert personalized == pytest.approx(0.75 * 1.0 + 0.25 * 0.0)
        assert per_client == [1.0, 0.0]

    def test_no_client_holds_a_test_row(self):
        # 8 one-row classes dealt as 8 one-shard clients: every row trains
        config = small_config(
            rounds=2,
            model=ShapeSpec.from_widths([16, 24, 8]),
            dataset=DatasetSpec(
                kind="blobs", num_classes=8, dim=16, samples_per_class=1, spread=0.3, seed=3
            ),
            partition=PartitionSpec(
                law="pathological", num_clients=8, seed=2, shards_per_client=1
            ),
        )
        result = run(config)
        assert not any(len(rows) for rows in result.partition.test)
        assert [(m.global_acc, m.personalized_acc) for m in result.metrics] == [(0.0, 0.0)] * 2
        assert result.per_client_acc == [0.0] * 8

    def test_chance_level_for_zero_model(self):
        config = small_config(rounds=1)
        result = run(config)
        # untrained uniform model scores near chance on balanced classes
        spec = config.model
        zero = FlatParams(np.zeros(spec.total_params, dtype=np.float32), spec)
        server = ServerState(zero, GlobalMask.all_valid(1), 0)
        locals_ = [zero.copy() for _ in range(config.clients)]
        global_acc, _, _ = evaluate(
            server, locals_, result.partition, result.dataset, pack=spec.total_params
        )
        assert 0.0 <= global_acc <= 0.45  # 6 classes, argmax ties resolve to class 0
