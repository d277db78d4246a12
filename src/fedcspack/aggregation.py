"""Server-side fusion: fold the round's client updates into the global
mask and a weight-normalized package step, and `selective_pull`, the one
rule that adopts the valid global packages, for the fold and every client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import FlatParams
from .packing import PackageLayout
from .wire import PackedUpdate

# Kept importable from this module too: tools that time package_views patch
# it in every namespace that used to look it up (see perfbench/spans.py).
from .packing import package_views  # noqa: F401


@dataclass(frozen=True)
class GlobalMask:
    """Per-package accumulated weight totals; valid where total > 0."""

    totals: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return self.totals > 0


@dataclass(frozen=True)
class ServerState:
    global_params: FlatParams
    global_mask: GlobalMask


@dataclass(frozen=True)
class AggregateResult:
    state: ServerState


def aggregate(
    server: ServerState,
    updates: list[PackedUpdate],
    weights: list[np.ndarray],
    layout: PackageLayout,
) -> AggregateResult:
    """Fold the updates the server has accepted (`protocol._server_ingest`
    is the one place that rejects): each package of `updates[k]` weighs
    `weights[k]`, as `protocol.fold_weights` decides, and steps by the
    weight-normalized combination of its senders' payloads, folded in
    ascending client id so float sums do not depend on the caller's order.
    Raises ShapeError for a weight or payload length that does not fit
    the packages and ValueError for a weight not finite and > 0.
    """
    old = server.global_params
    total_params = old.shape.total_params
    layout.check(total_params)

    folds = sorted(zip(updates, weights, strict=True), key=lambda uw: uw[0].client_id)
    totals = np.zeros(layout.num_packages)
    for u, w in folds:
        expected = layout.lengths[u.packages].sum()
        if len(u.payload) != expected:
            raise ShapeError(f"payload of {len(u.payload)} values for packages of {expected}")
        if len(w) != len(u.packages):
            raise ShapeError(f"{len(w)} weights for {len(u.packages)} packages")
        if not ((0 < w) & (w < np.inf)).all():
            raise ValueError("a fold weight is not finite and > 0")
        totals[u.packages] += w

    # each client adds (w_j / total_j) * payload to its packages, which never
    # overlap, so every element sums its clients' terms in ascending client id
    acc = np.zeros(total_params)
    for u, w in folds:
        layout.add(acc, u.packages, w / totals[u.packages], u.payload)

    # float32(float64(global) + step), adopted where the new mask is valid
    acc += old.values
    new_mask = GlobalMask(totals=totals)
    stepped = FlatParams(acc.astype(np.float32), old.shape)
    return AggregateResult(ServerState(selective_pull(old, stepped, new_mask, layout), new_mask))


def selective_pull(
    local: FlatParams,
    global_: FlatParams,
    global_mask: GlobalMask,
    layout: PackageLayout,
) -> FlatParams:
    """Adopt global packages at valid mask positions, keep local elsewhere:
    `global_` itself if every package is valid, `local` itself if none is."""
    if local.shape != global_.shape:
        raise ShapeError("local/global shape mismatch")
    layout.check(local.shape.total_params)
    if len(global_mask.totals) != layout.num_packages:
        raise ShapeError(
            f"mask length {len(global_mask.totals)} != package count {layout.num_packages}"
        )
    valid = global_mask.valid
    count = np.count_nonzero(valid)
    # FlatParams values are read-only, so an input may be returned
    if count == len(valid):
        return global_
    if count == 0:
        return local
    adopt = layout.element_mask(valid)
    return FlatParams(np.where(adopt, global_.values, local.values), local.shape)
