import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import package_oracle as oracle
from conftest import cosine_of, kl_of, layout_of, params_of, small_config, widened
from fedcspack.aggregation import GlobalMask, ServerState, aggregate, selective_pull
from fedcspack.config import DatasetSpec
from fedcspack.errors import ShapeError
from fedcspack.model import ShapeSpec, init_params
from fedcspack.packing import (
    EPS_W,
    SimilarityProfile,
    ceil_share,
    mask_weights,
    package_kl,
    package_views,
    score_packages,
    select_topk,
)
from fedcspack.partition import Partition
from fedcspack.protocol import _client_update, evaluate, setup_run


@st.composite
def package_maps(draw):
    """A (total, pack) geometry and an ascending package set of its layout:
    none, every package, the last one alone, or a random set."""
    total, pack = draw(st.integers(1, 300)), draw(st.integers(1, 64))
    count = -(-total // pack)
    kind = draw(st.sampled_from(["empty", "all", "last", "random"]))
    if kind == "random":
        chosen = sorted(draw(st.sets(st.integers(0, count - 1))))
    else:
        chosen = {"empty": [], "all": range(count), "last": [count - 1]}[kind]
    return total, pack, tuple(chosen)


class TestPackageViews:
    def test_exact_tiling(self):
        layout = package_views(10, 4)
        assert layout.num_packages == 3
        assert list(np.cumsum(layout.lengths) - layout.lengths) == [0, 4, 8]
        assert list(layout.lengths) == [4, 4, 2]
        assert layout.segments == [(0, 0, 2, 4), (2, 8, 1, 2)]
        assert package_views(8, 4).segments == [(0, 0, 2, 4)]
        assert package_views(3, 4).segments == [(0, 0, 1, 3)]

    def test_single_package(self):
        layout = package_views(7, 100)
        assert layout.num_packages == 1 and list(layout.lengths) == [7]

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_partition_property(self, total, pack):
        layout = package_views(total, pack)
        covered = []
        starts = np.cumsum(layout.lengths) - layout.lengths
        for j, (start, length) in enumerate(zip(starts, layout.lengths)):
            assert start == j * pack
            assert 1 <= length <= pack
            covered.extend(range(start, start + length))
        assert covered == list(range(total))

    def test_layout_indexing(self):
        """`blocks(v)` gives a view of v per segment, `blocks(v, packages)` a
        copy of the chosen packages per segment that holds some."""
        layout = package_views(10, 4)
        v = np.arange(10.0)
        rows, tail = layout.blocks(v)
        assert rows.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]] and tail.tolist() == [[8, 9]]
        rows[1] = -1.0  # views: a write reaches v
        tail[0, 1] = -2.0
        assert v.tolist() == [0, 1, 2, 3, -1, -1, -1, -1, 8, -2]
        rows, tail = layout.blocks(v, np.array([1, 2]))
        assert rows.tolist() == [[-1, -1, -1, -1]] and tail.tolist() == [[8, -2]]
        rows[:] = 5.0  # copies: a write leaves v alone
        tail[:] = 5.0
        assert v.tolist() == [0, 1, 2, 3, -1, -1, -1, -1, 8, -2]
        rows, tail = layout.blocks(v, np.array([0, 1, 2]))  # whole segments: copies too
        assert not np.shares_memory(rows, v) and not np.shares_memory(tail, v)
        # a segment that holds no chosen package gives no block
        (rows,) = layout.blocks(v, np.array([0]))
        assert rows.tolist() == [[0, 1, 2, 3]]
        (tail,) = layout.blocks(v, np.array([2]))
        assert tail.tolist() == [[8, -2]]
        (none,) = layout.blocks(v, np.zeros(0, np.intp))
        assert none.shape == (0, 4)
        (rows,) = package_views(8, 4).blocks(np.arange(8.0))
        assert rows.shape == (2, 4)
        (tail,) = package_views(3, 4).blocks(np.arange(3.0))
        assert tail.tolist() == [[0, 1, 2]]
        assert list(layout.element_mask(np.array([False, True, True]))) == [False] * 4 + [True] * 6

    @pytest.mark.parametrize("total, pack", [(10, 4), (8, 4), (3, 4)])
    def test_add_inverts_gather(self, total, pack):
        """Adding gather(v, p) at scale 1 into zeros gives v on p's elements
        and 0 elsewhere, for every package set p, with or without a tail."""
        layout = package_views(total, pack)
        v = np.arange(1.0, total + 1)
        for k in range(1, layout.num_packages + 1):
            for chosen in itertools.combinations(range(layout.num_packages), k):
                packages = np.array(chosen)
                acc = np.zeros(total)
                layout.add(acc, packages, np.ones(k), layout.gather(v, packages))
                on = layout.element_mask(np.isin(np.arange(layout.num_packages), packages))
                assert acc.tolist() == np.where(on, v, 0.0).tolist(), chosen

    @settings(max_examples=300)
    @given(package_maps())
    @example((10, 4, ()))
    @example((10, 4, (0,)))
    @example((10, 4, (2,)))
    @example((10, 4, (1, 2)))
    @example((10, 4, (0, 1, 2)))
    @example((8, 4, (1,)))
    @example((8, 4, (0, 1)))
    @example((3, 4, (0,)))
    def test_package_map(self, geometry):
        """`gather` takes the chosen packages' slices of the cumulative
        lengths, `add` is its inverse at any scale, `element_mask` widens a
        mask by the lengths, and the views of `blocks(v)` cover v in order."""
        total, pack, chosen = geometry
        layout = package_views(total, pack)
        lengths = layout.lengths
        count = -(-total // pack)
        assert lengths.tolist() == [min(pack, total - j * pack) for j in range(count)]
        ends = np.cumsum(lengths)
        v = np.arange(1.0, total + 1)
        packages = np.array(chosen, dtype=np.intp)
        slices = [v[ends[j] - lengths[j] : ends[j]] for j in chosen]
        gathered = layout.gather(v, packages)
        assert gathered.tolist() == np.concatenate([v[:0], *slices]).tolist()

        scale = np.arange(2.0, len(chosen) + 2)
        acc = np.zeros(total)
        layout.add(acc, packages, scale, gathered)
        want = np.zeros(total)
        for j, k in zip(chosen, scale):
            want[ends[j] - lengths[j] : ends[j]] = k * v[ends[j] - lengths[j] : ends[j]]
        assert acc.tolist() == want.tolist()

        mask = np.isin(np.arange(count), packages)
        assert layout.element_mask(mask).tolist() == np.repeat(mask, lengths).tolist()

        views = layout.blocks(v)
        assert all(np.shares_memory(block, v) for block in views)
        assert [len(row) for block in views for row in block] == lengths.tolist()
        assert np.concatenate(views, axis=None).tolist() == v.tolist()

    @pytest.mark.parametrize(
        "total, pack, message",
        [(10, 0, "pack must be >= 1"), (0, 4, "total_params must be >= 1")],
    )
    def test_bad_geometry_rejected(self, total, pack, message):
        with pytest.raises(ValueError, match=message):
            package_views(total, pack)

    def test_layout_of_another_size_rejected(self, subtests):
        a = params_of(np.ones(10))
        a64 = widened(a)
        layout = package_views(12, 4)  # 3 packages, as a layout of 10 has
        server = ServerState(a, GlobalMask(np.ones(3)))
        # a run of a's model, its layout swapped and its test rows dropped,
        # so evaluate pulls nothing: its own check must fire
        config = small_config(
            clients=1, model=a.shape,
            dataset=DatasetSpec(kind="blobs", num_classes=1, dim=9, samples_per_class=2, seed=3),
        )
        partition = Partition([np.arange(2)], [np.arange(2)], [np.arange(0)])
        setup = dataclasses.replace(setup_run(config)[0], partition=partition, layout=layout)
        kernels = {
            "score_packages": lambda: score_packages(a64, a64, layout),
            "package_kl": lambda: package_kl(a64, a64, layout, np.arange(3)),
            "aggregate": lambda: aggregate(server, [], layout, "dual"),
            "selective_pull": lambda: selective_pull(a, a, server.global_mask, layout),
            "evaluate": lambda: evaluate(setup, server, [a]),
        }
        for name, call in kernels.items():
            with subtests.test(kernel=name):
                with pytest.raises(ShapeError, match="layout of 12 params used for 10"):
                    call()


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_of(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_of(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        # 32 / (sqrt(14) * sqrt(77))
        expected = 32.0 / (math.sqrt(14) * math.sqrt(77))
        got = cosine_of(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.974631846, abs=1e-9)

    def test_zero_norm_is_zero(self):
        assert cosine_of(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="local/global shape mismatch"):
            cosine_of(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16),
    )
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        c = cosine_of(np.array(a[:n]), np.array(b[:n]))
        assert -1.0 <= c <= 1.0


class TestKL:
    def test_identical_is_zero(self):
        v = np.array([0.5, -2.0, 1.0])
        assert kl_of(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_both_zero_is_zero(self):
        assert kl_of(np.zeros(2), np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_high_precision_oracle(self):
        # p = softmax([1, 0]), q = softmax([0, 1]): with s = 1/(1 + e),
        # KL = (e s) log e + s log(1/e) = (e - 1)/(e + 1) = tanh(1/2) exactly
        got = kl_of(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(math.tanh(0.5), abs=1e-9)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    )
    def test_nonnegative(self, a, b):
        n = min(len(a), len(b))
        assert kl_of(np.array(a[:n]), np.array(b[:n])) >= 0.0


class TestScorePackages:
    def test_identical_models(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=15)
        layout = package_views(15, 4)
        prof = score_packages(p, p, layout)
        assert prof.overall == pytest.approx(1.0)
        assert np.allclose(prof.per_package_cos, 1.0)
        kl = package_kl(p, p, layout, np.arange(prof.num_packages))
        assert np.allclose(kl, 0.0, atol=1e-12)

    def test_single_package_degeneracy(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=10), rng.normal(size=10)
        prof = score_packages(a, b, package_views(10, 100))
        assert prof.num_packages == 1
        assert prof.per_package_cos[0] == prof.overall

    def test_float32_rejected(self):
        # the kernels' sums are pinned in float64: a float32 model must be
        # widened by the caller, never scored as it is
        a64 = np.ones(10)
        layout = package_views(10, 4)
        for a, b in ((a64.astype(np.float32), a64), (a64, a64.astype(np.float32))):
            with pytest.raises(TypeError, match="float64"):
                score_packages(a, b, layout)
            with pytest.raises(TypeError, match="float64"):
                package_kl(a, b, layout, np.arange(3))

    def test_ceiling_arithmetic(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=10), rng.normal(size=10)
        prof = score_packages(a, b, package_views(10, 4))
        assert prof.num_packages == 3


class TestCeilShare:
    """ceil_share, the one rule for "a share of n", against the oracle's
    decimal ROUND_CEILING form."""

    @pytest.mark.parametrize(
        "fraction, n, k",
        [
            # float64 products just above an integer: math.ceil(f * n) is one more
            (0.14, 50, 7),
            (0.07, 100, 7),
            (np.float64(0.07), 100, 7),
            (0.55, 100, 55),
            # the pinned configurations keep their k
            (0.5, 10, 5),
            (0.5, 20, 10),
            (0.25, 22, 6),
            (0.25, 535, 134),
            (0.1, 2762, 277),
            (1.0, 22, 22),
        ],
    )
    def test_decimal_product(self, fraction, n, k):
        assert ceil_share(fraction, n) == oracle.ceil_share(fraction, n) == k

    @given(st.floats(1e-6, 1.0), st.integers(1, 10**6))
    def test_matches_oracle(self, fraction, n):
        assert ceil_share(fraction, n) == oracle.ceil_share(fraction, n)


class TestSelectTopk:
    def profile(self, overall, cos):
        cos = np.array(cos, dtype=float)
        return SimilarityProfile(overall=overall, per_package_cos=cos)

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

    @pytest.mark.parametrize("cap_ratio", [0.0, -0.5, 1.5])
    def test_cap_ratio_outside_unit_interval_rejected(self, cap_ratio):
        with pytest.raises(ValueError, match=re.escape("cap_ratio must be in (0, 1]")):
            select_topk(self.profile(0.9, [0.5, 0.95]), cap_ratio)

    def test_tie_prefers_lower_index(self):
        prof = self.profile(0.9, [0.5, 0.5, 0.5])
        assert select_topk(prof, 1 / 3).tolist() == [0]

    @pytest.mark.parametrize("cap_ratio", [0.07, np.float64(0.07)], ids=["float", "float64"])
    def test_cap_is_the_decimal_share(self, cap_ratio):
        # 0.07 * 100 is 7.000000000000001 in float64: the cap is 7, not 8
        prof = self.profile(1.0, np.linspace(-1.0, 0.5, 100))
        assert select_topk(prof, cap_ratio).tolist() == list(range(7))

    @given(
        st.lists(st.floats(-1, 1), min_size=1, max_size=12),
        st.floats(0.05, 1.0),
    )
    def test_cardinality_bounds(self, cos, cap_ratio):
        prof = self.profile(0.0, cos)
        sel = select_topk(prof, cap_ratio)
        assert 1 <= len(sel) <= oracle.ceil_share(cap_ratio, len(cos))
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

    def test_baselines_weigh_every_package_one(self):
        cos = np.array([-1.0, 0.5, np.nan, np.inf], dtype=np.float32)
        kl = np.array([3.0, -np.inf, 0.0, np.nan], dtype=np.float32)
        w = mask_weights(cos, kl, None)
        assert w.dtype == np.float64 and (w == 1.0).all()

    @pytest.mark.parametrize("mode", [None, "dual", "cos_only", "kl_only"])
    def test_float32_terms_widened_to_float64(self, mode, rng):
        """float32 theta and beta, as they arrive off the wire, weigh as
        their float64 widening does, bit for bit."""
        cos = rng.uniform(-1, 1, 257).astype(np.float32)
        kl = rng.exponential(0.3, 257).astype(np.float32)
        got = mask_weights(cos, kl, mode)
        want = mask_weights(cos.astype(np.float64), kl.astype(np.float64), mode)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=10), st.sampled_from(["dual", "cos_only", "kl_only"]))
    def test_selected_weights_positive(self, cos, mode):
        cos = np.array(cos)
        assert (mask_weights(cos, np.zeros_like(cos), mode) > 0).all()


def dense_update(loc, g, pack):
    """The payloads a dense (fedavg) client sends, one per package."""
    layout = layout_of(loc, pack)
    update = _client_update(small_config(method="fedavg"), 0, 0, loc, g, widened(g), layout)
    return np.split(update.payload, np.cumsum(update.lengths)[:-1])


class TestExtractDeltas:
    def test_identical_models_zero_payload(self):
        p = init_params(ShapeSpec([4, 3]), seed=5)
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
    a, b = rng.normal(size=24), rng.normal(size=24)
    a2, b2 = a * scale, b * scale
    layout = package_views(24, 5)
    p1 = score_packages(a, b, layout)
    p2 = score_packages(a2, b2, layout)
    assert np.allclose(p1.per_package_cos, p2.per_package_cos, atol=1e-6)
    assert p1.overall == pytest.approx(p2.overall, abs=1e-6)
    assert np.array_equal(select_topk(p1, 0.5), select_topk(p2, 0.5))
