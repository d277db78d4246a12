import numpy as np
import pytest

from fedcspack.aggregation import (
    ClientUpdate,
    GlobalMask,
    ServerState,
    aggregate,
    selective_pull,
)
from fedcspack.errors import ShapeError
from fedcspack.model import FlatParams, ShapeSpec
from fedcspack.packing import package_views


def spec_with_total(n):
    return ShapeSpec(layer_dims=((n - 1, 1),), activation="identity")


def params_of(values):
    values = np.asarray(values, dtype=np.float32)
    return FlatParams(values, spec_with_total(len(values)))


def update_of(client_id, weights, payloads=None, pack=3):
    """A ClientUpdate from {package: weight} and {package: payload}; payloads
    default to ones of length `pack`."""
    packages = sorted(weights)
    if payloads is None:
        payloads = {j: np.ones(pack, dtype=np.float32) for j in packages}
    return ClientUpdate(
        client_id,
        np.array(packages, dtype=np.intp),
        np.array([weights[j] for j in packages], dtype=np.float64),
        np.concatenate([np.zeros(0, np.float32)] + [payloads[j] for j in packages]),
    )


def scalar_reference(global_values, pack, updates):
    """Straight-line per-coordinate aggregation oracle."""
    d = len(global_values)
    layout = package_views(d, pack)
    totals = [0.0] * layout.num_packages
    for u in updates:
        for j, w in zip(u.packages, u.weights):
            totals[j] += float(w)
    out = [float(v) for v in global_values]
    for u in sorted(updates, key=lambda u: u.client_id):
        read = 0
        for j, w in zip(u.packages, u.weights):
            coef = float(w) / totals[j]
            for k in range(int(layout.lengths[j])):
                out[int(layout.offsets[j]) + k] += coef * float(u.payload[read])
                read += 1
    return np.array(out)


class TestFoldMasks:
    """The global mask is the sum of the accepted clients' weights."""

    def test_empty(self):
        server = make_server(np.zeros(12), pack=3)
        gm = aggregate(server, [], pack=3).state.global_mask
        assert np.array_equal(gm.totals, np.zeros(4))
        assert not gm.valid.any()

    def test_direct_sum(self):
        server = make_server(np.zeros(9), pack=3)
        a = update_of(0, {1: 0.5})
        b = update_of(1, {1: 0.25, 2: 0.1})
        gm = aggregate(server, [a, b], pack=3).state.global_mask
        assert gm.totals[1] == pytest.approx(0.75)
        assert gm.totals[2] == pytest.approx(0.1)
        assert list(gm.valid) == [False, True, True]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        server = make_server(np.zeros(12), pack=2)
        updates = []
        for cid in range(10):
            entries = {
                int(j): float(rng.uniform(0.01, 2.0))
                for j in rng.choice(6, size=rng.integers(1, 6), replace=False)
            }
            updates.append(update_of(cid, entries, pack=2))
        gm = aggregate(server, updates, pack=2).state.global_mask
        expected = np.zeros(6)
        for u in updates:
            for j, w in zip(u.packages, u.weights):
                expected[j] += w
        assert np.allclose(gm.totals, expected, atol=1e-12)

    def test_length_mismatch(self):
        server = make_server(np.zeros(12), pack=3)
        short = update_of(0, {0: 1.0}, {0: np.ones(2, dtype=np.float32)})
        with pytest.raises(ShapeError, match="payload of 2 values for packages of 3"):
            aggregate(server, [short], pack=3)


def make_server(values, pack):
    params = params_of(values)
    j_count = package_views(len(values), pack).num_packages
    return ServerState(params, GlobalMask.all_valid(j_count), round=0)


class TestAggregate:
    def test_empty_updates(self):
        server = make_server(np.arange(6, dtype=float), pack=3)
        result = aggregate(server, [], pack=3)
        assert np.array_equal(result.state.global_params.values, server.global_params.values)
        assert result.state.round == 1
        assert result.violations == 0

    def test_single_client_weights_cancel(self):
        server = make_server(np.zeros(3), pack=3)
        payload = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        update = update_of(0, {0: 0.37}, {0: payload})
        result = aggregate(server, [update], pack=3)
        assert np.allclose(result.state.global_params.values, payload, atol=1e-7)

    def test_two_clients_weighted(self):
        server = make_server(np.zeros(3), pack=3)
        p = np.array([1.0, 0.0, 2.0], dtype=np.float32)
        q = np.array([0.0, 4.0, -2.0], dtype=np.float32)
        updates = [update_of(0, {0: 1.0}, {0: p}), update_of(1, {0: 3.0}, {0: q})]
        result = aggregate(server, updates, pack=3)
        assert np.allclose(result.state.global_params.values, 0.25 * p + 0.75 * q, atol=1e-7)

    def test_randomized_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            j_count = int(rng.integers(1, 5))
            pack = 3
            d = j_count * pack
            server = make_server(rng.normal(size=d), pack=pack)
            updates = []
            for cid in range(int(rng.integers(1, 6))):
                sel = rng.choice(j_count, size=rng.integers(1, j_count + 1), replace=False)
                entries = {int(j): float(rng.uniform(0.01, 2.0)) for j in sel}
                deltas = {
                    j: rng.normal(size=pack).astype(np.float32) for j in entries
                }
                updates.append(update_of(cid, entries, deltas))
            result = aggregate(server, updates, pack=pack)
            expected = scalar_reference(server.global_params.values, pack, updates)
            assert np.allclose(
                result.state.global_params.values, expected, atol=1e-6
            )

    def test_untouched_packages_bitwise_unchanged(self):
        rng = np.random.default_rng(3)
        server = make_server(rng.normal(size=9), pack=3)
        update = update_of(0, {1: 1.0})
        result = aggregate(server, [update], pack=3)
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
        a = aggregate(server, updates, pack=4)
        shuffled = [updates[i] for i in rng.permutation(5)]
        b = aggregate(server, shuffled, pack=4)
        assert np.array_equal(a.state.global_params.values, b.state.global_params.values)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(5)
        server = make_server(np.zeros(4), pack=4)
        payloads = [rng.normal(size=4).astype(np.float32) for _ in range(3)]
        updates = [
            update_of(i, {0: float(rng.uniform(0.1, 2.0))}, {0: p}) for i, p in enumerate(payloads)
        ]
        result = aggregate(server, updates, pack=4)
        applied = result.state.global_params.values
        lo = np.min(payloads, axis=0)
        hi = np.max(payloads, axis=0)
        assert np.all(applied >= lo - 1e-6)
        assert np.all(applied <= hi + 1e-6)

    def test_protocol_violation_rejected(self):
        # payload on package 1 but weight 0 there
        self.check_one_rejected(update_of(1, {0: 1.0, 1: 0.0}))

    @pytest.mark.parametrize("bad_weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad_weight):
        self.check_one_rejected(update_of(1, {0: 1.0, 1: bad_weight}))

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, bad_value):
        payload = np.ones(3, dtype=np.float32)
        payload[1] = bad_value
        ones = np.ones(3, dtype=np.float32)
        self.check_one_rejected(update_of(1, {0: 1.0, 1: 1.0}, {0: ones, 1: payload}))

    def check_one_rejected(self, bad):
        server = make_server(np.zeros(6), pack=3)
        good = update_of(0, {0: 1.0})
        result = aggregate(server, [good, bad], pack=3)
        assert result.violations == 1
        # only the good client contributed
        assert np.allclose(result.state.global_params.values[:3], 1.0, atol=1e-7)
        assert np.array_equal(result.state.global_params.values[3:], np.zeros(3, dtype=np.float32))
        assert list(result.state.global_mask.totals) == [1.0, 0.0]

    def test_fedavg_equivalence_single_package(self):
        rng = np.random.default_rng(11)
        d = 8
        server = make_server(rng.normal(size=d), pack=d)
        deltas = [rng.normal(size=d).astype(np.float32) for _ in range(4)]
        updates = [update_of(i, {0: 1.0}, {0: p}) for i, p in enumerate(deltas)]
        result = aggregate(server, updates, pack=d)
        fedavg = server.global_params.values.astype(np.float64) + np.mean(
            [p.astype(np.float64) for p in deltas], axis=0
        )
        assert np.allclose(result.state.global_params.values, fedavg, atol=1e-6)


class TestSelectivePull:
    def test_all_valid_full_sync(self):
        rng = np.random.default_rng(1)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        out = selective_pull(local, global_, GlobalMask.all_valid(3), pack=3)
        assert np.array_equal(out.values, global_.values)

    def test_none_valid_keeps_local(self):
        rng = np.random.default_rng(2)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        out = selective_pull(local, global_, GlobalMask(np.zeros(3)), pack=3)
        assert np.array_equal(out.values, local.values)

    def test_partial_pull(self):
        rng = np.random.default_rng(3)
        local = params_of(rng.normal(size=9))
        global_ = params_of(rng.normal(size=9))
        mask = GlobalMask(np.array([1.0, 0.0, 0.0]))
        out = selective_pull(local, global_, mask, pack=3)
        assert np.array_equal(out.values[0:3], global_.values[0:3])
        assert np.array_equal(out.values[3:9], local.values[3:9])
