"""The array kernels over a PackageLayout equal the per-package reference
loops in package_oracle.py bit for bit (not merely to a tolerance)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import package_oracle as oracle
from conftest import layout_for, layout_of, same, small_config, spec_with_total, topk_kept, widened
from fedcspack import packing, protocol
from fedcspack.aggregation import GlobalMask, ServerState, aggregate, selective_pull
from fedcspack.model import FlatParams, ShapeSpec, init_params
from fedcspack.packing import (
    SimilarityProfile,
    mask_weights,
    package_kl,
    package_views,
    score_packages,
    select_topk,
)
from fedcspack.protocol import _client_update, _server_ingest
from fedcspack.wire import PackedUpdate, decode_update, encode_update


@st.composite
def model_pairs(draw, max_total=600):
    """(local, global, pack) with a short tail, zero-norm packages, identical
    packages and exact copies of package 0 (tied cosines) mixed in."""
    d = draw(st.integers(2, max_total))
    pack = draw(st.one_of(st.just(1), st.integers(1, 96), st.integers(d, d + 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 40.0]))
    g = rng.normal(scale=scale, size=d)
    loc = g + rng.normal(scale=scale * draw(st.sampled_from([1e-3, 0.3, 3.0])), size=d)
    kind = rng.choice(5, size=-(-d // pack), p=draw(st.sampled_from([
        [1.0, 0, 0, 0, 0], [0.4, 0.15, 0.15, 0.15, 0.15], [0.2, 0, 0, 0, 0.8],
    ])))
    for j, k in enumerate(kind):
        s = slice(j * pack, min(j * pack + pack, d))
        if k == 1:
            loc[s] = 0.0
        elif k == 2:
            g[s] = 0.0
        elif k == 3:
            loc[s] = g[s]
        elif k == 4 and s.stop - s.start == min(pack, d):  # a full package
            loc[s], g[s] = loc[:pack], g[:pack]
    spec = spec_with_total(d)
    return FlatParams(loc.astype(np.float32), spec), FlatParams(g.astype(np.float32), spec), pack


def assert_matches_oracle(local, global_, pack, subsets):
    """score_packages gives the oracle's overall and per-package cosines,
    and package_kl the oracle's KL at each ascending package subset, bit
    for bit."""
    layout = layout_of(local, pack)
    local64, global64 = widened(local), widened(global_)
    got = score_packages(local64, global64, layout)
    want = oracle.score_packages(local, global_, pack)
    assert same(got.overall, want.overall)
    assert same(got.per_package_cos, want.per_package_cos)
    for packages in subsets:
        got = package_kl(local64, global64, layout, packages)
        assert same(got, want.per_package_kl[packages])


def subsets_of(j_count, rng):
    """Every package, a random quarter with the last package, a random
    quarter without it, the last package alone, and no package."""
    quarter = np.flatnonzero(rng.random(j_count - 1) < 0.25)
    last = np.array([j_count - 1])
    return [np.arange(j_count), np.append(quarter, last), quarter, last, np.zeros(0, np.intp)]


class TestScorePackages:
    @settings(max_examples=150, deadline=None)
    @given(model_pairs(), st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, pair, seed):
        local, global_, pack = pair
        subsets = subsets_of(-(-len(local.values) // pack), np.random.default_rng(seed))
        assert_matches_oracle(local, global_, pack, subsets)

    @settings(max_examples=100, deadline=None)
    @given(model_pairs(), st.integers(0, 2**32 - 1))
    def test_inputs_unchanged(self, pair, seed):
        """Neither kernel writes its float64 inputs, whichever packages it
        scores: `_kl_rows` softmaxes its blocks in place, so it must only
        ever get copies."""
        local, global_, pack = pair
        layout = layout_of(local, pack)
        local64, global64 = widened(local), widened(global_)
        score_packages(local64, global64, layout)
        for packages in subsets_of(layout.num_packages, np.random.default_rng(seed)):
            package_kl(local64, global64, layout, packages)
        assert same(local64, widened(local)) and same(global64, widened(global_))

    # 68,362 = 2 * 7 * 19 * 257: packs 1, 257 and 68,362 divide d, the
    # others leave a short tail; 100,000 > d is one short package
    @pytest.mark.parametrize("pack", [1, 128, 257, 1000, 9000, 68_362, 100_000])
    def test_wide_model(self, pack):
        # MLP 256-256-10 (d = 68,362): long rows, many blocks
        spec = ShapeSpec([256, 256, 10])
        global_ = init_params(spec, seed=3)
        rng = np.random.default_rng(pack)
        noise = rng.normal(scale=0.01, size=spec.total_params)
        local = FlatParams((global_.values + noise).astype(np.float32), spec)
        subsets = subsets_of(-(-spec.total_params // pack), rng)
        profile = score_packages(widened(local), widened(global_), layout_of(local, pack))
        subsets.append(select_topk(profile, 0.25))
        assert_matches_oracle(local, global_, pack, subsets)

    def test_zero_norm_package_scores_zero_cosine(self):
        local = FlatParams(np.array([0, 0, 1, 2, 3], dtype=np.float32), spec_with_total(5))
        global_ = FlatParams(np.array([1, 2, 0, 0, 3], dtype=np.float32), spec_with_total(5))
        got = score_packages(widened(local), widened(global_), layout_of(local, 2))
        assert list(got.per_package_cos) == [0.0, 0.0, 1.0]
        assert_matches_oracle(local, global_, 2, subsets_of(3, np.random.default_rng(0)))


COSINES = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]


class TestSelectTopk:
    @settings(max_examples=300)
    @given(
        st.lists(st.sampled_from(COSINES), min_size=1, max_size=40),
        st.one_of(st.sampled_from(COSINES), st.floats(-1.0, 1.0)),
        st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    )
    def test_ties_match_oracle(self, cos, overall, cap_ratio):
        cos = np.array(cos)
        prof = SimilarityProfile(overall, cos)
        assert same(select_topk(prof, cap_ratio), oracle.select_topk(prof, cap_ratio))

    @settings(max_examples=60, deadline=None)
    @given(model_pairs(), st.floats(0.01, 1.0))
    def test_scored_models_match_oracle(self, pair, cap_ratio):
        local, global_, pack = pair
        prof = oracle.score_packages(local, global_, pack)
        assert same(select_topk(prof, cap_ratio), oracle.select_topk(prof, cap_ratio))


# float32 values whose differences repeat a few magnitudes, with +0.0 and -0.0
TIE_VALUES = np.array([0.0, -0.0, 0.5, -0.5, 1.0], dtype=np.float32)


def tie_heavy_pair(rng, spec):
    """(local, global) whose delta is all ties: |delta| in {0, 0.5, 1, 1.5, 2}."""
    local, global_ = (rng.choice(TIE_VALUES, size=spec.total_params) for _ in range(2))
    return FlatParams(local, spec), FlatParams(global_, spec)


class TestLeastK:
    """least_k against the oracle's full lexsort, at sizes where its
    partition and its fill of the ties at the k-th key both matter."""

    @pytest.mark.parametrize("seed", range(12))
    def test_tie_heavy_thousands(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1_000, 6_000))
        keys = np.round(rng.normal(size=d), int(rng.integers(0, 3)))
        keys[rng.random(d) < 0.2] = 0.0
        keys[rng.random(d) < 0.2] = -0.0
        if seed % 2:
            keys = -np.abs(keys)  # magnitude Top-k's keys: -0.0 and 0.0 tie at the top
        if seed % 3 == 0:
            keys = keys.astype(np.float32)
        for k in (1, int(rng.integers(2, d)), d):
            assert same(packing.least_k(keys, k), oracle.least_k(keys, k))

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_outside_range_rejected(self, k):
        with pytest.raises(ValueError, match="outside"):
            packing.least_k(np.zeros(4), k)


class TestMagnitudeTopk:
    def test_oracle_hand_built_ties(self):
        spec = spec_with_total(6)
        global_ = FlatParams(np.array([0, 0, 0, 0, -0.0, 0], dtype=np.float32), spec)
        local = FlatParams(np.array([1, -1, 0.5, -0.0, 0, 1], dtype=np.float32), spec)
        # |delta| = 1, 1, 0.5, 0, 0, 1: equal magnitudes go to the lower index
        assert oracle.magnitude_topk(local, global_, 0.5).tolist() == [0, 1, 5]
        assert oracle.magnitude_topk(local, global_, 0.8).tolist() == [0, 1, 2, 3, 5]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_tie_heavy_every_k(self, d, seed):
        """Repeated magnitudes and +-0.0 deltas, at every k from 1 to d."""
        local, global_ = tie_heavy_pair(np.random.default_rng(seed), spec_with_total(d))
        for k in range(1, d + 1):
            fraction = (k - 0.5) / d  # ceil(fraction * d) == k
            got = topk_kept(local, global_, fraction)
            assert len(got) == k
            assert same(got, oracle.magnitude_topk(local, global_, fraction))

    @pytest.mark.parametrize("fraction", [0.001, 0.05, 0.5, 1.0])
    def test_tie_heavy_client_update(self, fraction):
        config = small_config(method="magnitude_topk", topk_fraction=fraction)
        trained, global_ = tie_heavy_pair(np.random.default_rng(11), config.model)
        layout = package_views(config.model.total_params, 1)
        update = _client_update(config, 3, 2, trained, global_, widened(global_), layout)
        assert encode_update(update) == encode_update(
            oracle.client_update(config, 3, 2, trained, global_)
        )


def package_mask(rng, j_count):
    return np.where(rng.random(j_count) < 0.5, 0.0, rng.uniform(0.1, 2.0, size=j_count))


class TestSelectivePull:
    @settings(max_examples=100, deadline=None)
    @given(model_pairs(), st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, pair, seed):
        local, global_, pack = pair
        mask = GlobalMask(package_mask(np.random.default_rng(seed), -(-len(local.values) // pack)))
        got = selective_pull(local, global_, mask, layout_of(local, pack))
        assert same(got.values, oracle.selective_pull(local, global_, mask, pack).values)


@st.composite
def rounds(draw):
    """A server state, shuffled updates as the server accepts them (float32
    theta in [-1, 1] and beta >= 0, zeros among them; some carry a float64
    payload) and a weighting."""
    d = draw(st.integers(2, 400))
    pack = draw(st.one_of(st.just(1), st.integers(1, 64), st.integers(d, d + 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j_count = -(-d // pack)
    values = rng.normal(size=d).astype(np.float32)
    values[rng.random(d) < 0.1] = -0.0
    server = ServerState(FlatParams(values, spec_with_total(d)), GlobalMask(np.ones(j_count)))
    updates = []
    num_clients = draw(st.integers(0, 8))
    for cid in rng.permutation(3 * num_clients)[:num_clients]:
        chosen = np.sort(rng.permutation(j_count)[: int(rng.integers(0, j_count + 1))])
        zero = rng.random((2, len(chosen))) < 0.1
        theta = np.where(zero[0], 0.0, rng.uniform(-1.0, 1.0, size=len(chosen))).astype(np.float32)
        beta = np.where(zero[1], 0.0, rng.exponential(size=len(chosen))).astype(np.float32)
        dtype = np.float64 if rng.random() < 0.1 else np.float32
        payload = np.concatenate(
            [np.zeros(0)]
            + [
                rng.normal(scale=rng.choice([1e-4, 1.0]), size=min(pack, d - j * pack))
                for j in chosen.tolist()
            ]
        ).astype(dtype)
        lengths = np.minimum(pack, d - chosen * pack)
        updates.append(PackedUpdate(int(cid), 0, pack, chosen, theta, beta, lengths, payload))
    weight_mode = draw(st.sampled_from(["dual", "cos_only", "kl_only", None]))
    return server, updates, pack, weight_mode


def weights_under(updates, weight_mode):
    """The fold weights the oracle derives under `weight_mode`: each
    update's `mask_weights`, or 1.0 for every package under None."""
    if weight_mode is None:
        return [np.ones(len(u.packages)) for u in updates]
    return [mask_weights(u.theta, u.beta, weight_mode) for u in updates]


class TestAggregate:
    @settings(max_examples=150, deadline=None)
    @given(rounds())
    def test_matches_oracle(self, case):
        server, updates, pack, weight_mode = case
        layout = layout_of(server.global_params, pack)
        got = aggregate(server, updates, weights_under(updates, weight_mode), layout)
        want = oracle.aggregate(server, updates, pack, weight_mode)
        assert same(got.state.global_params.values, want.state.global_params.values)
        assert same(got.state.global_mask.totals, want.state.global_mask.totals)

    # MLP 256-256-10 (d = 68,362): at pack 128, 534 full packages and a
    # 10-element tail, at pack 257, 266 full packages and no tail; `rounds`
    # stops at d = 400
    @pytest.mark.parametrize("weight_mode", ["dual", None])
    @pytest.mark.parametrize(
        "pack, share, with_tail",
        [
            pytest.param(128, 1.0, True, id="every-package"),
            pytest.param(257, 1.0, False, id="every-package-no-tail"),
            pytest.param(128, 0.25, True, id="quarter-with-tail"),
            pytest.param(128, 0.25, False, id="quarter-without-tail"),
            pytest.param(128, 0.0, True, id="tail-only"),
            pytest.param(128, 0.0, False, id="empty"),
            pytest.param(1, 0.1, False, id="pack1-tenth"),
        ],
    )
    def test_wide_model(self, pack, share, with_tail, weight_mode):
        spec = ShapeSpec([256, 256, 10])
        layout = package_views(spec.total_params, pack)
        server = ServerState(init_params(spec, seed=4), GlobalMask(np.ones(layout.num_packages)))
        num_full = spec.total_params // pack
        rng = np.random.default_rng(pack)
        updates = []
        for cid in (5, 0, 3):
            full = rng.permutation(num_full)[: round(share * num_full)]
            tail = [num_full] if with_tail else []
            chosen = np.concatenate((np.sort(full), tail)).astype(np.intp)
            lengths = layout.lengths[chosen]
            payload = rng.normal(scale=0.01, size=lengths.sum()).astype(np.float32)
            theta = rng.uniform(-1.0, 1.0, size=len(chosen)).astype(np.float32)
            beta = rng.exponential(size=len(chosen)).astype(np.float32)
            updates.append(PackedUpdate(cid, 0, pack, chosen, theta, beta, lengths, payload))
        got = aggregate(server, updates, weights_under(updates, weight_mode), layout).state
        want = oracle.aggregate(server, updates, pack, weight_mode).state
        assert same(got.global_params.values, want.global_params.values)
        assert same(got.global_mask.totals, want.global_mask.totals)


CLIENT_CASES = [
    dict(method="fedcspack"),
    dict(method="fedcspack", weight_mode="kl_only", cap_ratio=0.1),
    dict(method="fedcspack", weight_mode="cos_only", cap_ratio=1.0),
    dict(method="fedcspack", cap_ratio=1.0),
    dict(method="fedavg"),
    dict(method="fedprox", prox_mu=0.1),
    dict(method="magnitude_topk", topk_fraction=0.05),
]


class TestClientIngestAndFold:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(CLIENT_CASES),
        st.sampled_from([1, 5, 64, 558, 1000]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, case, pack, seed):
        config = small_config(pack=pack, **case)
        rng = np.random.default_rng(seed)
        global_ = init_params(config.model, seed=seed % 1000)
        noise = rng.normal(scale=0.05, size=config.model.total_params)
        trained = FlatParams((global_.values + noise).astype(np.float32), config.model)
        layout = layout_for(config)

        update = _client_update(config, 3, 2, trained, global_, widened(global_), layout)
        blob = encode_update(update)
        assert blob == encode_update(oracle.client_update(config, 3, 2, trained, global_))

        # the boundary returns the decoded update, unchanged
        got = _server_ingest(blob, 3, 2, layout)
        want = decode_update(blob)
        assert (got.client_id, got.round, got.pack) == (want.client_id, want.round, want.pack)
        for field in ("packages", "theta", "beta", "lengths", "payload"):
            assert same(getattr(got, field), getattr(want, field))

        # folded at the run's weights for this method; the oracle reads the
        # method name itself, as run_oracle.py does
        server = ServerState(global_, GlobalMask(np.ones(layout.num_packages)))
        folded = aggregate(server, [got], [protocol.fold_weights(config, got)], layout).state
        weight_mode = config.weight_mode if config.method == "fedcspack" else None
        want = oracle.aggregate(server, [want], layout.pack, weight_mode).state
        assert same(folded.global_params.values, want.global_params.values)
        assert same(folded.global_mask.totals, want.global_mask.totals)
