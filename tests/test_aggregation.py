import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import package_oracle as oracle
from conftest import layout_of, params_of, same
from fedcspack.aggregation import GlobalMask, ServerState, aggregate, selective_pull
from fedcspack.errors import NumericError, ProtocolViolation, ShapeError
from fedcspack.packing import mask_weights, package_views
from fedcspack.protocol import _server_ingest
from fedcspack.wire import PackedUpdate, encode_update
from test_kernels_bitwise import rounds, weights_under


def update_of(client_id, weights, payloads=None, pack=3):
    """A PackedUpdate from {package: weight} and {package: payload} that
    `fold` weighs, under "dual", at the float32 of each weight: theta 0.0
    and beta the weight.  Payloads default to ones of length `pack`."""
    entries = {j: {"theta": 0.0, "beta": w} for j, w in weights.items()}
    for j, payload in (payloads or {}).items():
        entries[j]["payload"] = payload
    return packed_of(client_id, entries, pack)


def packed_of(client_id, entries, pack=3):
    """A round-0 PackedUpdate from {package: fields}; each entry's theta
    defaults to 1.0, beta to 0.0 (mask weight 1.0) and payload to ones."""
    packages = sorted(entries)
    field = lambda name, default: [entries[j].get(name, default) for j in packages]  # noqa: E731
    payloads = field("payload", np.ones(pack, dtype=np.float32))
    return PackedUpdate(
        client_id,
        0,
        pack,
        np.array(packages, dtype=np.uint32),
        np.array(field("theta", 1.0), dtype=np.float32),
        np.array(field("beta", 0.0), dtype=np.float32),
        np.array([len(p) for p in payloads], dtype=np.uint32),
        np.concatenate([np.zeros(0, np.float32)] + payloads),
    )


def fold(server, updates, pack):
    """`aggregate` of `updates` at their "dual" weights, at package size `pack`."""
    weights = weights_under(updates, "dual")
    return aggregate(server, updates, weights, layout_of(server.global_params, pack))


class TestFoldMasks:
    """The global mask is the sum of the accepted clients' weights."""

    def test_empty(self):
        server = make_server(np.zeros(12), pack=3)
        gm = fold(server, [], 3).state.global_mask
        assert np.array_equal(gm.totals, np.zeros(4))
        assert not gm.valid.any()

    def test_direct_sum(self):
        server = make_server(np.zeros(9), pack=3)
        a = update_of(0, {1: 0.5})
        b = update_of(1, {1: 0.25, 2: 0.1})
        gm = fold(server, [a, b], 3).state.global_mask
        assert gm.totals[1] == pytest.approx(0.75)
        assert gm.totals[2] == pytest.approx(0.1)
        assert list(gm.valid) == [False, True, True]

    def test_length_mismatch(self):
        server = make_server(np.zeros(12), pack=3)
        short = update_of(0, {0: 1.0}, {0: np.ones(2, dtype=np.float32)})
        with pytest.raises(ShapeError, match="payload of 2 values for packages of 3"):
            fold(server, [short], 3)


class TestFoldWeights:
    """`aggregate` folds the weights it is handed: one finite, positive
    float64 weight per package, and only their ratios within a package
    move the model."""

    def test_weight_count_mismatch(self):
        server = make_server(np.zeros(9), pack=3)
        update = update_of(0, {0: 1.0, 2: 1.0})
        with pytest.raises(ShapeError, match="1 weights for 2 packages"):
            aggregate(server, [update], [np.ones(1)], layout_of(server.global_params, 3))

    @pytest.mark.parametrize("bad_weight", [0.0, -1.0, np.nan, np.inf])
    def test_weight_not_finite_and_positive(self, bad_weight):
        server = make_server(np.zeros(9), pack=3)
        update = update_of(0, {0: 1.0, 2: 1.0})
        with pytest.raises(ValueError, match="not finite and > 0"):
            aggregate(
                server, [update], [np.array([1.0, bad_weight])], layout_of(server.global_params, 3)
            )

    @settings(max_examples=100, deadline=None)
    @given(rounds(), st.integers(-30, 30))
    def test_power_of_two_scale_is_bit_identical(self, case, k):
        """Scaling every weight by 2^k scales each package's total exactly
        and leaves every normalized step, so the model, bit for bit."""
        server, updates, pack, weight_mode = case
        layout = layout_of(server.global_params, pack)
        weights = weights_under(updates, weight_mode)
        got = aggregate(server, updates, weights, layout).state
        scaled = aggregate(server, updates, [w * 2.0**k for w in weights], layout).state
        assert same(scaled.global_params.values, got.global_params.values)
        assert same(scaled.global_mask.totals, got.global_mask.totals * 2.0**k)

    @settings(max_examples=100, deadline=None)
    @given(rounds())
    def test_all_ones_is_the_plain_mean(self, case):
        """Weight 1.0 on every package is the oracle's plain mean over
        senders, the baselines' fold."""
        server, updates, pack, _ = case
        ones = [np.ones(len(u.packages)) for u in updates]
        got = aggregate(server, updates, ones, layout_of(server.global_params, pack)).state
        want = oracle.aggregate(server, updates, pack, None).state
        assert same(got.global_params.values, want.global_params.values)
        assert same(got.global_mask.totals, want.global_mask.totals)


def make_server(values, pack):
    params = params_of(values)
    j_count = package_views(len(values), pack).num_packages
    return ServerState(params, GlobalMask(np.ones(j_count)))


class TestAggregate:
    def test_empty_updates(self):
        server = make_server(np.arange(6, dtype=float), pack=3)
        result = fold(server, [], 3)
        assert np.array_equal(result.state.global_params.values, server.global_params.values)

    def test_single_client_weights_cancel(self):
        server = make_server(np.zeros(3), pack=3)
        payload = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        update = update_of(0, {0: 0.37}, {0: payload})
        result = fold(server, [update], 3)
        assert np.allclose(result.state.global_params.values, payload, atol=1e-7)

    def test_two_clients_weighted(self):
        server = make_server(np.zeros(3), pack=3)
        p = np.array([1.0, 0.0, 2.0], dtype=np.float32)
        q = np.array([0.0, 4.0, -2.0], dtype=np.float32)
        updates = [update_of(0, {0: 1.0}, {0: p}), update_of(1, {0: 3.0}, {0: q})]
        result = fold(server, updates, 3)
        assert np.allclose(result.state.global_params.values, 0.25 * p + 0.75 * q, atol=1e-7)

    def test_untouched_packages_bitwise_unchanged(self):
        rng = np.random.default_rng(3)
        server = make_server(rng.normal(size=9), pack=3)
        update = update_of(0, {1: 1.0})
        result = fold(server, [update], 3)
        out = result.state.global_params.values
        assert np.array_equal(out[0:3], server.global_params.values[0:3])
        assert np.array_equal(out[6:9], server.global_params.values[6:9])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        server = make_server(rng.normal(size=12), pack=4)
        updates = []
        for cid in range(5):
            entries = {int(j): float(rng.uniform(0.1, 1.0)) for j in rng.choice(3, 2, replace=False)}
            deltas = {j: rng.normal(size=4).astype(np.float32) for j in entries}
            updates.append(update_of(cid, entries, deltas))
        a = fold(server, updates, 4)
        shuffled = [updates[i] for i in rng.permutation(5)]
        b = fold(server, shuffled, 4)
        assert np.array_equal(a.state.global_params.values, b.state.global_params.values)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(5)
        server = make_server(np.zeros(4), pack=4)
        payloads = [rng.normal(size=4).astype(np.float32) for _ in range(3)]
        updates = [
            update_of(i, {0: float(rng.uniform(0.1, 2.0))}, {0: p}) for i, p in enumerate(payloads)
        ]
        result = fold(server, updates, 4)
        applied = result.state.global_params.values
        lo = np.min(payloads, axis=0)
        hi = np.max(payloads, axis=0)
        assert np.all(applied >= lo - 1e-6)
        assert np.all(applied <= hi + 1e-6)

    # a weight comes from the transmitted theta and beta: NaN theta gives
    # a NaN weight, infinite beta an infinite one
    @pytest.mark.parametrize("bad_weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad_weight):
        terms = {"theta": bad_weight} if np.isnan(bad_weight) else {"beta": bad_weight}
        assert not np.isfinite(mask_weights(terms.get("theta", 1.0), terms.get("beta", 0.0)))
        self.check_one_rejected(packed_of(1, {0: {}, 1: terms}))

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, bad_value):
        payload = np.ones(3, dtype=np.float32)
        payload[1] = bad_value
        self.check_one_rejected(packed_of(1, {0: {}, 1: {"payload": payload}}))

    def check_one_rejected(self, bad):
        """`bad` is rejected at the server boundary, so the aggregate is
        that of the good client alone."""
        server = make_server(np.zeros(6), pack=3)
        layout = layout_of(server.global_params, 3)
        ingest = lambda u: _server_ingest(encode_update(u), u.client_id, 0, layout)  # noqa: E731
        good = ingest(packed_of(0, {0: {}}))
        with pytest.raises(ProtocolViolation):
            ingest(bad)
        result = aggregate(server, [good], weights_under([good], "dual"), layout)
        assert np.allclose(result.state.global_params.values[:3], 1.0, atol=1e-7)
        assert np.array_equal(result.state.global_params.values[3:], np.zeros(3, dtype=np.float32))
        assert list(result.state.global_mask.totals) == [1.0, 0.0]

    def test_overflowing_step_raises(self):
        """A finite update the server accepts, whose step takes a valid
        package past float32 max, raises NumericError and leaves the
        input server state as it was."""
        big = np.finfo(np.float32).max
        server = make_server(np.array([big, 1, 2, 3, -0.0, 5]), pack=3)
        layout = layout_of(server.global_params, 3)
        values, totals = server.global_params.values.copy(), server.global_mask.totals.copy()
        blob = encode_update(packed_of(0, {0: {"payload": np.full(3, big, np.float32)}}))
        update = _server_ingest(blob, 0, 0, layout)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            aggregate(server, [update], weights_under([update], "dual"), layout)
        assert same(server.global_params.values, values)
        assert same(server.global_mask.totals, totals)

    def test_fedavg_equivalence_single_package(self):
        rng = np.random.default_rng(11)
        d = 8
        server = make_server(rng.normal(size=d), pack=d)
        deltas = [rng.normal(size=d).astype(np.float32) for _ in range(4)]
        updates = [update_of(i, {0: 1.0}, {0: p}) for i, p in enumerate(deltas)]
        result = fold(server, updates, d)
        fedavg = server.global_params.values.astype(np.float64) + np.mean(
            [p.astype(np.float64) for p in deltas], axis=0
        )
        assert np.allclose(result.state.global_params.values, fedavg, atol=1e-6)


class TestSelectivePull:
    def test_all_valid_full_sync(self):
        rng = np.random.default_rng(1)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        out = selective_pull(local, global_, GlobalMask(np.ones(3)), layout_of(local, 3))
        assert out is global_

    def test_none_valid_keeps_local(self):
        rng = np.random.default_rng(2)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        out = selective_pull(local, global_, GlobalMask(np.zeros(3)), layout_of(local, 3))
        assert out is local

    def test_partial_pull(self):
        rng = np.random.default_rng(3)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        mask = GlobalMask(np.array([1.0, 0.0, 0.0]))
        out = selective_pull(local, global_, mask, layout_of(local, 3))
        assert np.array_equal(out.values[0:3], global_.values[0:3])
        assert np.array_equal(out.values[3:9], local.values[3:9])

    def test_shape_mismatch(self):
        local = params_of(np.zeros(9))
        other = params_of(np.zeros(8))
        with pytest.raises(ShapeError, match="local/global shape mismatch"):
            selective_pull(local, other, GlobalMask(np.ones(3)), layout_of(local, 3))

    def test_mask_length_mismatch(self):
        local = params_of(np.zeros(9))
        with pytest.raises(ShapeError, match="mask length 2 != package count 3"):
            selective_pull(local, local, GlobalMask(np.ones(2)), layout_of(local, 3))

    @pytest.mark.parametrize("pack", [1, 2, 4])
    def test_mixed_mask_gives_where_bytes(self, pack):
        """A mask neither all nor none valid builds a new model, byte for
        byte np.where of the element mask, at pack 1 as at wider packs."""
        rng = np.random.default_rng(4)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        layout = layout_of(local, pack)
        valid = np.arange(layout.num_packages) % 2 == 1
        out = selective_pull(local, global_, GlobalMask(valid.astype(float)), layout)
        adopt = np.repeat(valid, pack)[:9]
        assert out is not local and out is not global_
        assert out.values.tobytes() == np.where(adopt, global_.values, local.values).tobytes()
