"""Client-side parameter packaging: split the flat model into PACK-sized
packages, score each against its global counterpart by cosine similarity
and KL distance, pick the packages worth sharing, and weigh each shared
package for the server's fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import FlatParams

# Floors: KL denominator and mask weight clamp.
EPS_Q = 1e-8
EPS_W = 1e-6


class PackageLayout:
    """The package geometry of one flat model, built once per run.

    Package j covers [offsets[j], offsets[j] + lengths[j]); every package
    holds `pack` elements except a possibly shorter last one.
    """

    def __init__(self, total_params: int, pack: int):
        if pack < 1:
            raise ValueError("pack must be >= 1")
        if total_params < 1:
            raise ValueError("total_params must be >= 1")
        self.total_params = total_params
        self.pack = pack
        self.offsets = np.arange(0, total_params, pack)
        self.lengths = np.minimum(pack, total_params - self.offsets)
        self.num_packages = len(self.offsets)
        # packages of exactly `pack` elements: all but a short tail
        self.num_full = total_params // pack
        self.offsets.setflags(write=False)
        self.lengths.setflags(write=False)

    def element_mask(self, package_mask: np.ndarray) -> np.ndarray:
        """Per-element copy of a per-package boolean mask."""
        return np.repeat(package_mask, self.pack)[: self.total_params]

    def elements(self, packages: np.ndarray) -> np.ndarray:
        """Indices of the elements of `packages`, package by package in the
        order given."""
        lengths = self.lengths[packages]
        starts = np.cumsum(lengths) - lengths
        return np.repeat(self.offsets[packages] - starts, lengths) + np.arange(lengths.sum())

    def gather(self, v: np.ndarray, packages: np.ndarray) -> np.ndarray:
        """The elements of the ascending, distinct `packages` of the flat
        vector v, package after package: rows of its (num_full, pack) view,
        then the short tail package, which can only come last.  v itself
        when every package is chosen."""
        if len(packages) == self.num_packages:
            return v
        full = packages[packages < self.num_full]
        width = self.num_full * self.pack
        rows = v[:width].reshape(self.num_full, self.pack)[full].ravel()
        return rows if len(full) == len(packages) else np.concatenate((rows, v[width:]))


def package_views(total_params: int, pack: int) -> PackageLayout:
    """Tile [0, total_params) into ceil(total/pack) slices; tail may be short."""
    return PackageLayout(total_params, pack)


def as_layout(total_params: int, pack: int | PackageLayout) -> PackageLayout:
    """`pack` itself when it is already a layout of total_params elements,
    else a new layout of that package size."""
    if not isinstance(pack, PackageLayout):
        return package_views(total_params, pack)
    if pack.total_params != total_params:
        raise ShapeError(f"layout of {pack.total_params} params used for {total_params}")
    return pack


@dataclass(frozen=True)
class SimilarityProfile:
    """Per-round similarity record: overall cosine plus per-package scores."""

    overall: float
    per_package_cos: np.ndarray
    per_package_kl: np.ndarray

    @property
    def num_packages(self) -> int:
        return len(self.per_package_cos)


# Scoring works on row blocks of this many elements, so its float64
# temporaries stay small whatever the model size.
SCORE_BLOCK = 1 << 14


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of every row pair of two float64 (rows, n) blocks; 0 where a
    row has zero norm.

    Each row product is one BLAS dot, the same one a 1-D `@` or
    `np.linalg.norm` makes, so a row's value does not depend on the block
    it sits in.
    """
    dot = np.matmul(a[:, None, :], b[:, :, None]).ravel()
    na = np.sqrt(np.matmul(a[:, None, :], a[:, :, None]).ravel())
    nb = np.sqrt(np.matmul(b[:, None, :], b[:, :, None]).ravel())
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(dot / (na * nb), -1.0, 1.0)
    cos[(na == 0.0) | (nb == 0.0)] = 0.0
    return cos


def _simplex_rows(v: np.ndarray) -> np.ndarray:
    """Map each row of a float64 block to the simplex, in place: stabilized
    softmax, floored at EPS_Q and renormalized."""
    v -= v.max(axis=1, keepdims=True)
    np.exp(v, out=v)
    v /= v.sum(axis=1, keepdims=True)
    np.maximum(v, EPS_Q, out=v)
    v /= v.sum(axis=1, keepdims=True)
    return v


def _kl_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KL distance of every row pair of two float64 blocks, which it
    overwrites.  A sum over a contiguous row is the same pairwise sum as a
    1-D `.sum()`, so a row's value does not depend on the block either."""
    p = _simplex_rows(a)
    q = _simplex_rows(b)
    np.divide(p, q, out=q)
    np.log(q, out=q)
    q *= p
    kl = q.sum(axis=1)
    return np.where(0.0 > kl, 0.0, kl)  # max(kl, 0.0), keeping -0.0


def _row_pair(v: np.ndarray, other: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(v)
    other = np.asarray(other)
    if v.shape != other.shape or v.ndim != 1 or len(v) < 1:
        raise ShapeError(f"{what} shapes {v.shape} vs {other.shape}")
    return v.astype(np.float64)[None], other.astype(np.float64)[None]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with float64 accumulation; 0 on zero norm."""
    return float(_cosine_rows(*_row_pair(a, b, "cosine"))[0])


def kl_package(local: np.ndarray, global_: np.ndarray) -> float:
    """KL distance between the two package slices mapped to the simplex.

    Raw weights can be negative, so both slices are pushed through a
    stabilized softmax first; both distributions are floored at EPS_Q and
    renormalized (symmetric flooring keeps KL(v, v) exactly 0).
    """
    return float(_kl_rows(*_row_pair(local, global_, "kl"))[0])


def score_packages(
    local: FlatParams, global_: FlatParams, pack: int | PackageLayout
) -> SimilarityProfile:
    """Score every package of `local` against its global counterpart.

    Full packages are scored as rows of (rows, pack) blocks; a short tail
    package is scored on its own, since padding it would regroup its sums.
    """
    if local.shape != global_.shape:
        raise ShapeError("local/global shape mismatch")
    layout = as_layout(local.shape.total_params, pack)
    overall = cosine(local.values, global_.values)
    cos = np.empty(layout.num_packages)
    kl = np.empty(layout.num_packages)
    width = layout.pack
    step = max(1, SCORE_BLOCK // width)
    for r0 in range(0, layout.num_full, step):
        r1 = min(r0 + step, layout.num_full)
        span = slice(r0 * width, r1 * width)
        a = local.values[span].astype(np.float64).reshape(r1 - r0, width)
        b = global_.values[span].astype(np.float64).reshape(r1 - r0, width)
        cos[r0:r1] = _cosine_rows(a, b)
        kl[r0:r1] = _kl_rows(a, b)
    if layout.num_full < layout.num_packages:
        tail = slice(layout.num_full * width, layout.total_params)
        cos[-1] = cosine(local.values[tail], global_.values[tail])
        kl[-1] = kl_package(local.values[tail], global_.values[tail])
    return SimilarityProfile(overall=overall, per_package_cos=cos, per_package_kl=kl)


def select_topk(profile: SimilarityProfile, cap_ratio: float = 1.0) -> np.ndarray:
    """Pick the shared packages: those less similar than the overall cosine,
    keeping at most ceil(cap_ratio * J), least-similar first (lower index on
    ties).  Never empty: if no package is below the threshold, share the
    single least similar one.  Returns the indices ascending, as sent.
    """
    if not 0 < cap_ratio <= 1:
        raise ValueError("cap_ratio must be in (0, 1]")
    cos = profile.per_package_cos
    candidates = np.flatnonzero(cos < profile.overall)
    if len(candidates) == 0:
        return np.array([np.argmin(cos)], dtype=np.intp)
    k = min(len(candidates), math.ceil(cap_ratio * profile.num_packages))
    order = np.lexsort((candidates, cos[candidates]))
    return np.sort(candidates[order[:k]])


def mask_weights(cos: np.ndarray, kl: np.ndarray, weight_mode: str = "dual") -> np.ndarray:
    """Mask weight of each shared package from its cosine and KL terms,
    floored at EPS_W (a NaN term stays NaN).

    weight_mode drops one of the two terms for ablations.
    """
    if weight_mode == "dual":
        w = np.add(cos, kl)
    elif weight_mode == "cos_only":
        w = np.asarray(cos, dtype=np.float64)
    elif weight_mode == "kl_only":
        w = np.asarray(kl, dtype=np.float64)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    return np.maximum(w, EPS_W)
