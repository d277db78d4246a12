import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from fedcspack.errors import ShapeError
from fedcspack.model import FlatParams, ShapeSpec, init_params
from fedcspack.packing import (
    EPS_W,
    SimilarityProfile,
    cosine,
    kl_package,
    mask_weights,
    package_views,
    score_packages,
    select_topk,
)
from fedcspack.protocol import _client_update


def spec_with_total(n):
    # (n-1, 1) layer has n-1 weights + 1 bias = n params
    return ShapeSpec(layer_dims=((n - 1, 1),), activation="identity")


def params_of(values):
    values = np.asarray(values, dtype=np.float32)
    return FlatParams(values, spec_with_total(len(values)))


class TestPackageViews:
    def test_exact_tiling(self):
        layout = package_views(10, 4)
        assert layout.num_packages == 3
        assert list(layout.offsets) == [0, 4, 8]
        assert list(layout.lengths) == [4, 4, 2]

    def test_single_package(self):
        layout = package_views(7, 100)
        assert layout.num_packages == 1 and list(layout.lengths) == [7]

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_partition_property(self, total, pack):
        layout = package_views(total, pack)
        covered = []
        for j, (offset, length) in enumerate(zip(layout.offsets, layout.lengths)):
            assert offset == j * pack
            assert 1 <= length <= pack
            covered.extend(range(offset, offset + length))
        assert covered == list(range(total))

    def test_layout_indexing(self):
        layout = package_views(10, 4)
        assert list(layout.elements(np.array([2, 0]))) == [8, 9, 0, 1, 2, 3]
        assert list(layout.element_mask(np.array([False, True, True]))) == [False] * 4 + [True] * 6

    def test_layout_of_another_size_rejected(self):
        a = params_of(np.ones(10))
        with pytest.raises(ShapeError):
            score_packages(a, a, package_views(12, 4))


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        # 32 / (sqrt(14) * sqrt(77))
        expected = 32.0 / (math.sqrt(14) * math.sqrt(77))
        got = cosine(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.974631846, abs=1e-9)

    def test_zero_norm_is_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cosine(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16),
    )
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        c = cosine(np.array(a[:n]), np.array(b[:n]))
        assert -1.0 <= c <= 1.0


class TestKL:
    def test_identical_is_zero(self):
        v = np.array([0.5, -2.0, 1.0])
        assert kl_package(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_both_zero_is_zero(self):
        assert kl_package(np.zeros(2), np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_high_precision_oracle(self):
        # p = softmax([1,0]), q = softmax([0,1]); KL computed with mpmath
        import mpmath

        mpmath.mp.dps = 50
        e = mpmath.e
        p = [e / (1 + e), 1 / (1 + e)]
        q = [1 / (1 + e), e / (1 + e)]
        expected = float(sum(pi * mpmath.log(pi / qi) for pi, qi in zip(p, q)))
        got = kl_package(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(expected, abs=1e-9)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    )
    def test_nonnegative(self, a, b):
        n = min(len(a), len(b))
        assert kl_package(np.array(a[:n]), np.array(b[:n])) >= 0.0


class TestScorePackages:
    def test_identical_models(self):
        rng = np.random.default_rng(5)
        p = params_of(rng.normal(size=15))
        prof = score_packages(p, p, pack=4)
        assert prof.overall == pytest.approx(1.0)
        assert np.allclose(prof.per_package_cos, 1.0)
        assert np.allclose(prof.per_package_kl, 0.0, atol=1e-12)

    def test_single_package_degeneracy(self):
        rng = np.random.default_rng(4)
        a = params_of(rng.normal(size=10))
        b = params_of(rng.normal(size=10))
        prof = score_packages(a, b, pack=100)
        assert prof.num_packages == 1
        assert prof.per_package_cos[0] == prof.overall

    def test_ceiling_arithmetic(self):
        rng = np.random.default_rng(4)
        a = params_of(rng.normal(size=10))
        b = params_of(rng.normal(size=10))
        prof = score_packages(a, b, pack=4)
        assert prof.num_packages == 3


class TestSelectTopk:
    def profile(self, overall, cos):
        cos = np.array(cos, dtype=float)
        return SimilarityProfile(overall=overall, per_package_cos=cos, per_package_kl=np.zeros_like(cos))

    def test_empty_candidates_fallback(self):
        prof = self.profile(0.9, [0.9, 0.9, 0.9])
        assert select_topk(prof, 1.0).tolist() == [0]

    def test_threshold_selection(self):
        prof = self.profile(0.9, [0.95, 0.5, 0.8, 0.92])
        assert select_topk(prof, 1.0).tolist() == [1, 2]

    def test_cap_ratio(self):
        prof = self.profile(0.9, [0.95, 0.5, 0.8, 0.92])
        assert select_topk(prof, 0.3).tolist() == [1, 2]  # cap = ceil(1.2) = 2
        assert select_topk(prof, 0.25).tolist() == [1]

    def test_tie_prefers_lower_index(self):
        prof = self.profile(0.9, [0.5, 0.5, 0.5])
        assert select_topk(prof, 1 / 3).tolist() == [0]

    @given(
        st.lists(st.floats(-1, 1), min_size=1, max_size=12),
        st.floats(0.05, 1.0),
    )
    def test_cardinality_bounds(self, cos, cap_ratio):
        prof = self.profile(0.0, cos)
        sel = select_topk(prof, cap_ratio)
        assert 1 <= len(sel) <= math.ceil(cap_ratio * len(cos))
        assert sel.dtype == np.intp and (np.diff(sel) > 0).all()


class TestBuildMask:
    """mask_weights: the weight of each shared package."""

    def test_empty_selection(self):
        assert mask_weights(np.array([]), np.array([])).shape == (0,)

    def test_dual_sum(self):
        assert mask_weights(np.array([0.5]), np.array([0.2]))[0] == pytest.approx(0.7)

    def test_clamp(self):
        assert mask_weights(np.array([-0.9]), np.array([0.1]))[0] == EPS_W
        assert np.isnan(mask_weights(np.array([np.nan]), np.array([0.1]))[0])

    def test_modes(self):
        cos, kl = np.array([0.4]), np.array([0.3])
        assert mask_weights(cos, kl, "cos_only")[0] == pytest.approx(0.4)
        assert mask_weights(cos, kl, "kl_only")[0] == pytest.approx(0.3)
        with pytest.raises(ValueError, match="weight_mode"):
            mask_weights(cos, kl, "both")

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=10), st.sampled_from(["dual", "cos_only", "kl_only"]))
    def test_selected_weights_positive(self, cos, mode):
        cos = np.array(cos)
        assert (mask_weights(cos, np.zeros_like(cos), mode) > 0).all()


def dense_update(loc, g, pack):
    """The payloads a dense (fedavg) client sends, one per package."""
    layout = package_views(len(loc.values), pack)
    update = _client_update(small_config(method="fedavg"), 0, 0, loc, g, layout)
    return np.split(update.payload, np.cumsum(update.lengths)[:-1])


class TestExtractDeltas:
    def test_identical_models_zero_payload(self):
        p = init_params(ShapeSpec.from_widths([4, 3]), seed=5)
        (payload,) = dense_update(p, p, pack=100)
        assert np.array_equal(payload, np.zeros(p.shape.total_params, dtype=np.float32))

    def test_plus_one(self):
        g = params_of(np.zeros(6))
        loc = params_of(np.ones(6))
        (payload,) = dense_update(loc, g, pack=6)
        assert np.array_equal(payload, np.ones(6, dtype=np.float32))

    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        g = params_of(rng.normal(size=20))
        loc = params_of(rng.normal(size=20))
        payloads = dense_update(loc, g, pack=6)
        assert [len(p) for p in payloads] == [6, 6, 6, 2]
        for j, payload in enumerate(payloads):
            span = slice(6 * j, 6 * j + len(payload))
            recon = g.values[span] + payload
            assert np.allclose(recon, loc.values[span], atol=1e-6)


@settings(max_examples=30)
@given(st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
def test_selection_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    a = params_of(rng.normal(size=24))
    b = params_of(rng.normal(size=24))
    a2 = params_of(a.values * scale)
    b2 = params_of(b.values * scale)
    p1 = score_packages(a, b, pack=5)
    p2 = score_packages(a2, b2, pack=5)
    assert np.allclose(p1.per_package_cos, p2.per_package_cos, atol=1e-6)
    assert p1.overall == pytest.approx(p2.overall, abs=1e-6)
    assert np.array_equal(select_topk(p1, 0.5), select_topk(p2, 0.5))
