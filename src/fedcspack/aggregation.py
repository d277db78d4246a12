"""Server-side fusion: fold the round's local masks into the global mask,
apply weight-normalized package deltas to the global model, and the
client-side selective pull that adopts only the valid global packages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import FlatParams
from .packing import DeltaPackages, LocalMask, PackageLayout, as_layout

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


def fold_masks(masks: list[LocalMask], num_packages: int) -> GlobalMask:
    """Sum local mask weights elementwise into the global mask."""
    totals = np.zeros(num_packages)
    for m in masks:
        if len(m.weights) != num_packages:
            raise ShapeError(
                f"mask length {len(m.weights)} != package count {num_packages}"
            )
        totals += m.weights
    return GlobalMask(totals=totals)


def combine_updates(
    accepted: list[tuple[int, LocalMask, DeltaPackages]],
    mask: GlobalMask,
    layout: PackageLayout,
    total_params: int,
) -> np.ndarray:
    """Weight-normalized float64 combination of accepted payloads, folded in
    the order given (callers sort by client id first).

    Each client adds (w_j / total_j) * payload to its packages' elements in
    one scatter; packages of one client never overlap, so every element
    sums its clients' terms in the given order.
    """
    acc = np.zeros(total_params)
    for _, local_mask, deltas in accepted:
        if not deltas.packages:
            continue
        chosen = _package_indices(deltas)
        term = np.repeat(local_mask.weights[chosen] / mask.totals[chosen], layout.lengths[chosen])
        term *= np.concatenate(list(deltas.packages.values()))
        np.add.at(acc, layout.elements(chosen), term)
    return acc


def _package_indices(deltas: DeltaPackages) -> np.ndarray:
    return np.fromiter(deltas.packages, dtype=np.intp, count=len(deltas.packages))


def aggregate(
    server: ServerState,
    updates: list[tuple[int, LocalMask, DeltaPackages]],
    pack: int | PackageLayout,
) -> AggregateResult:
    """One round of dual-weight aggregation.

    Each update is (client_id, mask, payloads); payloads are local-minus-
    global deltas.  Per package the applied step is the mask-weight
    normalized combination of client payloads.  Updates carrying a payload
    at a zero-weight position are rejected whole and counted as protocol
    violations.  Folding is fixed to ascending client id so float sums are
    order-independent of the caller.
    """
    total_params = server.global_params.shape.total_params
    layout = as_layout(total_params, pack)
    j_count = layout.num_packages

    accepted = []
    violations = 0
    for client_id, mask, deltas in sorted(updates, key=lambda u: u[0]):
        if len(mask.weights) != j_count:
            raise ShapeError(
                f"mask length {len(mask.weights)} != package count {j_count}"
            )
        chosen = _package_indices(deltas)
        if (mask.weights[chosen] <= 0).any():
            violations += 1
            continue
        sizes = np.fromiter(map(len, deltas.packages.values()), dtype=np.intp, count=len(chosen))
        wrong = np.flatnonzero(sizes != layout.lengths[chosen])
        if len(wrong):
            raise ShapeError(f"payload length mismatch on package {chosen[wrong[0]]}")
        accepted.append((client_id, mask, deltas))

    new_mask = fold_masks([m for _, m, _ in accepted], j_count)
    acc = combine_updates(accepted, new_mask, layout, total_params)

    # packages with weight: float32(float64(global) + step), in place
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
