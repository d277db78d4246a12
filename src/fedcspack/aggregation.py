"""Server-side fusion: fold the round's client updates into the global
mask, apply weight-normalized package deltas to the global model, and the
client-side selective pull that adopts only the valid global packages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import FlatParams
from .packing import PackageLayout, as_layout

# Kept importable from this module too: tools that time package_views patch
# it in every namespace that used to look it up (see perfbench/spans.py).
from .packing import package_views  # noqa: F401


@dataclass(frozen=True)
class ClientUpdate:
    """One client's update as the aggregator folds it: ascending package
    indices, one mask weight per package and one flat payload holding the
    packages' local-minus-global deltas, package after package."""

    client_id: int
    packages: np.ndarray
    weights: np.ndarray
    payload: np.ndarray


@dataclass(frozen=True)
class GlobalMask:
    """Per-package accumulated weight totals; valid where total > 0."""

    totals: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return self.totals > 0

    @classmethod
    def all_valid(cls, num_packages: int) -> "GlobalMask":
        # round-0 bootstrap: every client fully adopts the broadcast model
        return cls(totals=np.ones(num_packages))


@dataclass
class ServerState:
    global_params: FlatParams
    global_mask: GlobalMask
    round: int = 0


@dataclass(frozen=True)
class AggregateResult:
    state: ServerState
    violations: int


def aggregate(
    server: ServerState,
    updates: list[ClientUpdate],
    pack: int | PackageLayout,
) -> AggregateResult:
    """One round of dual-weight aggregation.

    Per package the applied step is the mask-weight normalized combination
    of client payloads.  An update whose weights are not all finite and
    > 0, or whose payload is not all finite, is rejected whole and
    counted as a protocol violation.  Folding is
    fixed to ascending client id so float sums are order-independent of
    the caller.
    """
    total_params = server.global_params.shape.total_params
    layout = as_layout(total_params, pack)

    accepted = []
    violations = 0
    totals = np.zeros(layout.num_packages)
    for u in sorted(updates, key=lambda u: u.client_id):
        if not ((u.weights > 0) & np.isfinite(u.weights)).all():
            violations += 1
            continue
        expected = layout.lengths[u.packages].sum()
        if len(u.payload) != expected:
            raise ShapeError(f"payload of {len(u.payload)} values for packages of {expected}")
        if not np.isfinite(u.payload).all():
            violations += 1
            continue
        totals[u.packages] += u.weights
        accepted.append(u)

    # each client adds (w_j / total_j) * payload to its packages' elements in
    # one scatter; packages of one client never overlap, so every element
    # sums its clients' terms in ascending client id
    acc = np.zeros(total_params)
    for u in accepted:
        if not len(u.packages):
            continue
        term = np.repeat(u.weights / totals[u.packages], layout.lengths[u.packages])
        term *= u.payload
        np.add.at(acc, layout.elements(u.packages), term)

    # packages with weight: float32(float64(global) + step), in place
    new_mask = GlobalMask(totals=totals)
    new_values = server.global_params.values.copy()
    acc += new_values
    np.copyto(new_values, acc, casting="same_kind", where=layout.element_mask(new_mask.valid))

    state = ServerState(
        global_params=FlatParams(new_values, server.global_params.shape),
        global_mask=new_mask,
        round=server.round + 1,
    )
    return AggregateResult(state=state, violations=violations)


def selective_pull(
    local: FlatParams,
    global_: FlatParams,
    global_mask: GlobalMask,
    pack: int | PackageLayout,
) -> FlatParams:
    """Adopt global packages at valid mask positions, keep local elsewhere."""
    if local.shape != global_.shape:
        raise ShapeError("local/global shape mismatch")
    layout = as_layout(local.shape.total_params, pack)
    if len(global_mask.totals) != layout.num_packages:
        raise ShapeError(
            f"mask length {len(global_mask.totals)} != package count {layout.num_packages}"
        )
    adopt = layout.element_mask(global_mask.valid)
    return FlatParams(np.where(adopt, global_.values, local.values), local.shape)
