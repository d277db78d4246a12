"""Client-side parameter packaging: split the flat model into PACK-sized
packages, score each against its global counterpart by cosine similarity,
pick the packages worth sharing, measure the KL distance of the shared
ones, and weigh each shared package for the server's fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ShapeError

# Floors: KL denominator and mask weight clamp.
EPS_Q = 1e-8
EPS_W = 1e-6


class PackageLayout:
    """The package geometry of one flat model, built once per run: a list of
    segments (first package, first element, rows, width) that tiles it in order,
    `rows` packages of `width` elements each.  A `pack` tiling has two at most:
    the pack-wide packages, then a shorter last one."""

    def __init__(self, total_params: int, pack: int):
        if pack < 1:
            raise ValueError("pack must be >= 1")
        if total_params < 1:
            raise ValueError("total_params must be >= 1")
        self.total_params = total_params
        self.pack = pack
        full, rest = divmod(total_params, pack)
        self.segments = [s for s in [(0, 0, full, pack), (full, full * pack, 1, rest)] if s[2] * s[3]]
        first, _, rows, width = np.array(self.segments).T
        self.lengths = np.repeat(width, rows)
        self.lengths.setflags(write=False)
        self.num_packages = len(self.lengths)
        self._ends = first + rows  # one past each segment's last package

    def check(self, total_params: int) -> None:
        """Raise ShapeError unless this layout tiles total_params elements."""
        if self.total_params != total_params:
            raise ShapeError(f"layout of {self.total_params} params used for {total_params}")

    def element_mask(self, package_mask: np.ndarray) -> np.ndarray:
        """Per-element copy of a per-package boolean mask; the mask itself at pack 1."""
        if self.pack == 1:
            return package_mask
        return np.repeat(package_mask, self.lengths)

    def _shares(self, views: list[np.ndarray], packages: np.ndarray):
        """(view, lo, hi, rows) for each segment view that holds packages[lo:hi], lo < hi:
        `rows` is slice(None) for the whole segment, else their indices re-based to it."""
        cuts = [0, *packages.searchsorted(self._ends).tolist()]
        for (first, _, rows, _), view, lo, hi in zip(self.segments, views, cuts, cuts[1:]):
            if hi - lo == rows:
                yield view, lo, hi, slice(None)
            elif lo < hi:
                yield view, lo, hi, packages[lo:hi] - first if first else packages[lo:hi]

    def blocks(self, v: np.ndarray, packages: np.ndarray | None = None) -> list[np.ndarray]:
        """v's packages as 2-D blocks in package order: a (rows, width) view of
        each segment if `packages` is None, else copies of those (ascending,
        distinct), one block per segment that holds some (one empty if none);
        a wholly chosen segment is copied by slice, the others by index."""
        views = [v[at : at + rows * width].reshape(rows, width) for _, at, rows, width in self.segments]
        if packages is None:
            return views
        shares = self._shares(views, packages)
        picked = [view.copy() if isinstance(rows, slice) else view[rows] for view, _, _, rows in shares]
        return picked or [views[0][:0]]

    def gather(self, v: np.ndarray, packages: np.ndarray) -> np.ndarray:
        """The elements of the ascending, distinct `packages` of v in one
        array: their `blocks` joined, or v itself if every package is chosen."""
        if len(packages) == self.num_packages:
            return v
        picked = self.blocks(v, packages)
        return picked[0].ravel() if len(picked) == 1 else np.concatenate(picked, axis=None)

    def add(self, v: np.ndarray, packages: np.ndarray, scale: np.ndarray, packed: np.ndarray) -> None:
        """In-place inverse of `gather`: add scale[i] times packages[i]'s packed elements to v."""
        at = 0
        for view, lo, hi, rows in self._shares(self.blocks(v), packages):
            # a whole segment's slice adds in place, with no gather and scatter
            n = (hi - lo) * view.shape[1]
            view[rows] += scale[lo:hi, None] * packed[at : at + n].reshape(hi - lo, -1)
            at += n


def package_views(total_params: int, pack: int) -> PackageLayout:
    """Tile [0, total_params) into ceil(total/pack) slices; tail may be short."""
    return PackageLayout(total_params, pack)


@dataclass(frozen=True)
class SimilarityProfile:
    """Per-round similarity record: overall cosine plus per-package cosines."""

    overall: float
    per_package_cos: np.ndarray

    @property
    def num_packages(self) -> int:
        return len(self.per_package_cos)


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of every row pair of two float64 (rows, n) blocks; 0 where a
    row has zero norm.

    Each row product is one BLAS dot, so a row's value does not depend on
    the other rows: it equals a 1-D `@` of the same row read in place.
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
    overwrites.  Raw weights can be negative, so both rows go through a
    stabilized softmax first; flooring both alike keeps KL(v, v) exactly 0.
    A sum over a contiguous row is the same pairwise sum as a 1-D `.sum()`,
    so a row's value does not depend on the other rows either."""
    p = _simplex_rows(a)
    q = _simplex_rows(b)
    np.divide(p, q, out=q)
    np.log(q, out=q)
    q *= p
    kl = q.sum(axis=1)
    return np.where(0.0 > kl, 0.0, kl)  # max(kl, 0.0), keeping -0.0


def _map_blocks(kernel, local: np.ndarray, global_: np.ndarray, layout: PackageLayout, packages=None):
    """`kernel` of every row pair of the paired `layout.blocks` of the
    float64 vectors local and global_, checked, as one array."""
    if local.shape != global_.shape:
        raise ShapeError("local/global shape mismatch")
    layout.check(len(local))
    if local.dtype != np.float64 or global_.dtype != np.float64:
        raise TypeError("scoring takes float64 vectors")
    pairs = zip(layout.blocks(local, packages), layout.blocks(global_, packages))
    return np.concatenate([kernel(a, b) for a, b in pairs])


def score_packages(local: np.ndarray, global_: np.ndarray, layout: PackageLayout) -> SimilarityProfile:
    """Cosine of the float64 vector `local` against `global_`: of the whole
    model as one row and of every package over `blocks` (a short tail as
    its own row: padding it would regroup its sums)."""
    cos = _map_blocks(_cosine_rows, local, global_, layout)
    overall = _cosine_rows(local[None], global_[None])[0]
    return SimilarityProfile(overall=float(overall), per_package_cos=cos)


def package_kl(local: np.ndarray, global_: np.ndarray, layout: PackageLayout, packages) -> np.ndarray:
    """KL distance of each of the ascending, distinct `packages` of the
    float64 vector `local` against `global_`: the beta sent with a shared
    package.  `_kl_rows` overwrites its blocks, so it gets the copies that
    `blocks` makes of chosen packages, never views of either input."""
    return _map_blocks(_kl_rows, local, global_, layout, packages)


def least_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest of the NaN-free keys (lower index on ties),
    ascending, in linear time: every key below the k-th smallest, then the
    lowest-index keys equal to it."""
    if not 1 <= k <= len(keys):
        raise ValueError(f"k = {k} outside [1, {len(keys)}]")
    kth = np.partition(keys, k - 1)[k - 1]
    keep = keys < kth
    keep[np.flatnonzero(keys == kth)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def ceil_share(fraction: float, n: int) -> int:
    """ceil(fraction * n) for the decimal `fraction` prints as: 0.07 of 100
    is 7, where the float product 7.000000000000001 would round up to 8."""
    return math.ceil(Fraction(str(fraction)) * n)


def select_topk(profile: SimilarityProfile, cap_ratio: float = 1.0) -> np.ndarray:
    """The shared packages, ascending: the k least similar (lower index on
    ties), k = min(max(below, 1), ceil_share(cap_ratio, J)) where `below`
    counts the packages less similar than the overall cosine: with below >= 1
    every package sent, ties at the k-th included, is one of them."""
    if not 0 < cap_ratio <= 1:
        raise ValueError("cap_ratio must be in (0, 1]")
    cos = profile.per_package_cos
    below = np.count_nonzero(cos < profile.overall)
    return least_k(cos, min(max(below, 1), ceil_share(cap_ratio, profile.num_packages)))


def mask_weights(cos: np.ndarray, kl: np.ndarray, weight_mode: str = "dual") -> np.ndarray:
    """Mask weight of each shared package from its cosine and KL terms, in
    float64 and floored at EPS_W (a NaN term stays NaN).

    weight_mode, one of `config.WEIGHT_MODES`, drops one of the two terms
    for ablations.
    """
    if weight_mode == "dual":
        w = np.add(cos, kl, dtype=np.float64)
    elif weight_mode == "cos_only":
        w = np.asarray(cos, dtype=np.float64)
    elif weight_mode == "kl_only":
        w = np.asarray(kl, dtype=np.float64)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    return np.maximum(w, EPS_W)
