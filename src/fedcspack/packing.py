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

    def check(self, total_params: int) -> None:
        """Raise ShapeError unless this layout tiles total_params elements."""
        if self.total_params != total_params:
            raise ShapeError(f"layout of {self.total_params} params used for {total_params}")

    def element_mask(self, package_mask: np.ndarray) -> np.ndarray:
        """Per-element copy of a per-package boolean mask."""
        return np.repeat(package_mask, self.pack)[: self.total_params]

    def blocks(self, v: np.ndarray, packages: np.ndarray | None = None) -> list[np.ndarray]:
        """v's packages as 2-D blocks in package order: the full packages'
        rows as one (n, pack) block, then a short tail as a one-row block.
        Views of every package if `packages` is None, else copies of those
        (ascending, distinct)."""
        width = self.num_full * self.pack
        rows = v[:width].reshape(self.num_full, self.pack)
        if packages is None:
            return [rows, v[None, width:]] if width < len(v) else [rows]
        n = packages.searchsorted(self.num_full)
        return [rows[packages[:n]], v[None, width:].copy()] if n < len(packages) else [rows[packages]]

    def gather(self, v: np.ndarray, packages: np.ndarray) -> np.ndarray:
        """The elements of the ascending, distinct `packages` of v in one
        array: their `blocks` joined, or v itself if every package is chosen."""
        if len(packages) == self.num_packages:
            return v
        picked = self.blocks(v, packages)
        return picked[0].ravel() if len(picked) == 1 else np.concatenate(picked, axis=None)

    def add(self, v: np.ndarray, packages: np.ndarray, scale: np.ndarray, packed: np.ndarray) -> None:
        """In-place inverse of `gather`: add scale[i] times packages[i]'s
        elements of `packed` to v's package packages[i]."""
        rows, *tail = self.blocks(v)
        n = packages.searchsorted(self.num_full)
        # every full package: add in place, with no gather and scatter
        full = slice(None) if n == self.num_full else packages[:n]
        rows[full] += scale[:n, None] * packed[: n * self.pack].reshape(n, self.pack)
        if n < len(packages):
            tail[0] += scale[n:, None] * packed[n * self.pack :]


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
    the other rows.  It equals a 1-D `@` of the same values copied elsewhere
    only under an OpenBLAS kernel whose sum ignores alignment: SkylakeX,
    Haswell, Sandybridge or Nehalem, not Katmai (`OPENBLAS_CORETYPE=Prescott`).
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
    """Pick the shared packages: those less similar than the overall cosine,
    at most the ceil_share(cap_ratio, J) least similar (lower index on ties).
    Never empty: if no package is below the threshold, share the single
    least similar one.  Returns the indices ascending, as sent.
    """
    if not 0 < cap_ratio <= 1:
        raise ValueError("cap_ratio must be in (0, 1]")
    cos = profile.per_package_cos
    candidates = np.flatnonzero(cos < profile.overall)
    if len(candidates) == 0:
        return least_k(cos, 1)
    k = min(len(candidates), ceil_share(cap_ratio, profile.num_packages))
    return candidates[least_k(cos[candidates], k)]


def mask_weights(cos: np.ndarray, kl: np.ndarray, weight_mode: str | None = "dual") -> np.ndarray:
    """Mask weight of each shared package from its cosine and KL terms, in
    float64 and floored at EPS_W (a NaN term stays NaN).

    weight_mode drops one of the two terms for ablations; None, the
    baselines' rule, weighs every package 1.0 whatever the terms say.
    """
    if weight_mode is None:
        return np.ones(len(cos))
    if weight_mode == "dual":
        w = np.add(cos, kl, dtype=np.float64)
    elif weight_mode == "cos_only":
        w = np.asarray(cos, dtype=np.float64)
    elif weight_mode == "kl_only":
        w = np.asarray(kl, dtype=np.float64)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    return np.maximum(w, EPS_W)
