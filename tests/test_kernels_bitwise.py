"""The array kernels over a PackageLayout equal the per-package reference
loops in package_oracle.py bit for bit (not merely to a tolerance)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import package_oracle as oracle
from conftest import small_config
from fedcspack import packing
from fedcspack.aggregation import ClientUpdate, GlobalMask, ServerState, aggregate, selective_pull
from fedcspack.model import FlatParams, ShapeSpec, init_params
from fedcspack.packing import (
    SimilarityProfile,
    cosine,
    kl_package,
    package_views,
    score_packages,
    select_topk,
)
from fedcspack.protocol import _client_update, _server_ingest, effective_pack
from fedcspack.wire import decode_update, encode_update


def same(a, b) -> bool:
    """Equal values, dtype, shape and bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and a.tobytes() == b.tobytes()
    )


def spec_with_total(n):
    return ShapeSpec(layer_dims=((n - 1, 1),), activation="identity")


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


def assert_same_profile(got, want):
    assert same(got.overall, want.overall)
    assert same(got.per_package_cos, want.per_package_cos)
    assert same(got.per_package_kl, want.per_package_kl)


class TestCosineKL:
    @settings(max_examples=150, deadline=None)
    @given(model_pairs(max_total=300))
    def test_match_oracle(self, pair):
        local, global_, _ = pair
        a, b = local.values, global_.values
        assert same(cosine(a, b), oracle.cosine(a, b))
        assert same(kl_package(a, b), oracle.kl_package(a, b))
        assert same(cosine(a, np.zeros_like(b)), 0.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 9000, 68_362])
    def test_float64_inputs(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert same(cosine(a, b), oracle.cosine(a, b))
        assert same(kl_package(a, b), oracle.kl_package(a, b))


class TestScorePackages:
    @settings(max_examples=150, deadline=None)
    @given(model_pairs(), st.sampled_from([1, 7, 64, packing.SCORE_BLOCK]))
    def test_matches_oracle(self, pair, block):
        local, global_, pack = pair
        with mock.patch.object(packing, "SCORE_BLOCK", block):
            got = score_packages(local, global_, pack)
        assert_same_profile(got, oracle.score_packages(local, global_, pack))

    @pytest.mark.parametrize("pack", [1, 128, 1000, 9000, 68_362, 100_000])
    def test_wide_model(self, pack):
        # MLP 256-256-10 (d = 68,362): long rows, a short tail, many blocks
        spec = ShapeSpec.from_widths([256, 256, 10])
        global_ = init_params(spec, seed=3)
        rng = np.random.default_rng(pack)
        local = FlatParams(global_.values + rng.normal(scale=0.01, size=spec.total_params), spec)
        assert_same_profile(
            score_packages(local, global_, pack), oracle.score_packages(local, global_, pack)
        )

    def test_zero_norm_package_scores_zero_cosine(self):
        local = FlatParams(np.array([0, 0, 1, 2, 3], dtype=np.float32), spec_with_total(5))
        global_ = FlatParams(np.array([1, 2, 0, 0, 3], dtype=np.float32), spec_with_total(5))
        got = score_packages(local, global_, 2)
        assert list(got.per_package_cos) == [0.0, 0.0, 1.0]
        assert_same_profile(got, oracle.score_packages(local, global_, 2))


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
        prof = SimilarityProfile(overall, cos, np.zeros_like(cos))
        assert same(select_topk(prof, cap_ratio), oracle.select_topk(prof, cap_ratio))

    @settings(max_examples=60, deadline=None)
    @given(model_pairs(), st.floats(0.01, 1.0))
    def test_scored_models_match_oracle(self, pair, cap_ratio):
        local, global_, pack = pair
        prof = oracle.score_packages(local, global_, pack)
        assert same(select_topk(prof, cap_ratio), oracle.select_topk(prof, cap_ratio))


def package_mask(rng, j_count):
    return np.where(rng.random(j_count) < 0.5, 0.0, rng.uniform(0.1, 2.0, size=j_count))


class TestSelectivePull:
    @settings(max_examples=100, deadline=None)
    @given(model_pairs(), st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, pair, seed):
        local, global_, pack = pair
        mask = GlobalMask(package_mask(np.random.default_rng(seed), -(-len(local.values) // pack)))
        got = selective_pull(local, global_, mask, pack)
        assert same(got.values, oracle.selective_pull(local, global_, mask, pack).values)
        layout = package_views(len(local.values), pack)
        assert same(selective_pull(local, global_, mask, layout).values, got.values)


@st.composite
def rounds(draw):
    """A server state plus shuffled updates; some carry a zero, NaN or
    infinite weight or a non-finite payload value (violations), some a
    float64 payload."""
    d = draw(st.integers(2, 400))
    pack = draw(st.one_of(st.just(1), st.integers(1, 64), st.integers(d, d + 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j_count = -(-d // pack)
    values = rng.normal(size=d).astype(np.float32)
    values[rng.random(d) < 0.1] = -0.0
    server = ServerState(FlatParams(values, spec_with_total(d)), GlobalMask.all_valid(j_count), 4)
    updates = []
    num_clients = draw(st.integers(0, 8))
    for cid in rng.permutation(3 * num_clients)[:num_clients]:
        chosen = np.sort(rng.permutation(j_count)[: int(rng.integers(0, j_count + 1))])
        weights = rng.uniform(1e-6, 3.0, size=len(chosen))
        dtype = np.float64 if rng.random() < 0.1 else np.float32
        payload = np.concatenate(
            [np.zeros(0)]
            + [
                rng.normal(scale=rng.choice([1e-4, 1.0]), size=min(pack, d - j * pack))
                for j in chosen.tolist()
            ]
        ).astype(dtype)
        n = len(payload)
        if len(chosen) and rng.random() < 0.2:
            weights[rng.integers(len(chosen))] = rng.choice([0.0, np.nan, np.inf])
        if n and rng.random() < 0.1:
            payload[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        updates.append(ClientUpdate(int(cid), chosen, weights, payload))
    return server, updates, pack


class TestAggregate:
    @settings(max_examples=150, deadline=None)
    @given(rounds())
    def test_matches_oracle(self, case):
        server, updates, pack = case
        got = aggregate(server, updates, pack)
        want = oracle.aggregate(server, updates, pack)
        assert same(got.state.global_params.values, want.state.global_params.values)
        assert same(got.state.global_mask.totals, want.state.global_mask.totals)
        assert (got.violations, got.state.round) == (want.violations, want.state.round)


CLIENT_CASES = [
    dict(method="fedcspack"),
    dict(method="fedcspack", weight_mode="kl_only", cap_ratio=0.1),
    dict(method="fedcspack", weight_mode="cos_only", cap_ratio=1.0),
    dict(method="fedcspack", cap_ratio=1.0),
    dict(method="fedavg"),
    dict(method="fedprox", prox_mu=0.1),
    dict(method="magnitude_topk", topk_fraction=0.05),
]


class TestClientUpdateAndIngest:
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
        trained = FlatParams(
            global_.values + rng.normal(scale=0.05, size=config.model.total_params), config.model
        )
        layout = package_views(config.model.total_params, effective_pack(config))

        blob = encode_update(_client_update(config, 3, 2, trained, global_, layout))
        assert blob == encode_update(oracle.client_update(config, 3, 2, trained, global_))

        update = decode_update(blob)
        got = _server_ingest(config, update, 3, 2, layout)
        want = oracle.server_ingest(config, update)
        assert got.client_id == want.client_id
        assert same(got.packages, want.packages)
        assert same(got.weights, want.weights)
        assert same(got.payload, want.payload)
