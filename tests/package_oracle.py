"""Reference oracle: the straight per-package loops that the array kernels
in fedcspack.packing and fedcspack.aggregation replace.

Each function walks the packages one at a time, exactly as the simulator
used to, so `np.array_equal` against it proves a kernel bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal

import numpy as np

from fedcspack.aggregation import AggregateResult, GlobalMask, ServerState
from fedcspack.errors import ShapeError
from fedcspack.model import FlatParams
from fedcspack.packing import EPS_Q, EPS_W, SimilarityProfile
from fedcspack.wire import PackedUpdate


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a64)
    nb = np.linalg.norm(b64)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a64 @ b64 / (na * nb), -1.0, 1.0))


def _softmax64(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def kl_package(local: np.ndarray, global_: np.ndarray) -> float:
    p = np.maximum(_softmax64(np.asarray(local)), EPS_Q)
    p = p / p.sum()
    q = np.maximum(_softmax64(np.asarray(global_)), EPS_Q)
    q = q / q.sum()
    kl = float(np.sum(p * np.log(p / q)))
    return max(kl, 0.0)


@dataclass(frozen=True)
class ScoredProfile(SimilarityProfile):
    """The similarity record with the KL distance of every package."""

    per_package_kl: np.ndarray


def views(total_params: int, pack: int) -> list[tuple[int, int, int]]:
    """(index, offset, stop) of every package; the tail may be short."""
    return [
        (j, j * pack, min(j * pack + pack, total_params))
        for j in range(math.ceil(total_params / pack))
    ]


def score_packages(local: FlatParams, global_: FlatParams, pack: int) -> ScoredProfile:
    """Each model is widened once, as the round loop does, and every package
    is read as a view of that vector: at the offset the program reads it."""
    vs = views(local.shape.total_params, pack)
    local64 = local.values.astype(np.float64)
    global64 = global_.values.astype(np.float64)
    overall = cosine(local64, global64)
    cos = np.empty(len(vs))
    kl = np.empty(len(vs))
    for j, start, stop in vs:
        lv = local64[start:stop]
        gv = global64[start:stop]
        cos[j] = cosine(lv, gv)
        kl[j] = kl_package(lv, gv)
    return ScoredProfile(overall=overall, per_package_cos=cos, per_package_kl=kl)


def ceil_share(fraction, n: int) -> int:
    """The number of items that `fraction` of n covers, rounded up: the
    product taken in decimal on the digits `fraction` prints as, so a share
    the config writes as 0.07 of 100 is 7 whatever float64 says."""
    product = Decimal(str(fraction)) * n
    return int(product.to_integral_value(rounding=ROUND_CEILING))


def least_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest keys, ties to the lower index, ascending:
    one full lexsort on (key, index)."""
    return np.sort(np.lexsort((np.arange(len(keys)), keys))[:k])


def magnitude_topk(local: FlatParams, global_: FlatParams, fraction: float) -> np.ndarray:
    """The ceil_share(fraction, d) largest |delta| coordinates of the float64
    delta, ties to the lower index, in ascending order."""
    delta = local.values.astype(np.float64) - global_.values.astype(np.float64)
    return least_k(-np.abs(delta), ceil_share(fraction, len(delta)))


def package_size(config) -> int:
    """Magnitude Top-k sends single coordinates; every other method sends
    packages of config.pack."""
    return 1 if config.method == "magnitude_topk" else config.pack


def select_topk(profile: SimilarityProfile, cap_ratio: float = 1.0) -> np.ndarray:
    cos = profile.per_package_cos
    j_count = profile.num_packages
    candidates = [j for j in range(j_count) if cos[j] < profile.overall]
    if not candidates:
        return np.array([min(range(j_count), key=lambda j: (cos[j], j))], dtype=np.intp)
    k = min(len(candidates), ceil_share(cap_ratio, j_count))
    candidates.sort(key=lambda j: (cos[j], j))
    return np.array(sorted(candidates[:k]), dtype=np.intp)


def selective_pull(local: FlatParams, global_: FlatParams, global_mask: GlobalMask, pack: int) -> FlatParams:
    out = local.values.copy()
    for j, start, stop in views(local.shape.total_params, pack):
        if global_mask.totals[j] > 0:
            out[start:stop] = global_.values[start:stop]
    return FlatParams(out, local.shape)


def split_payload(u: PackedUpdate, vs) -> list[np.ndarray]:
    """The flat payload of `u` cut into one slice per package; ShapeError
    unless the package lengths add up to exactly the payload."""
    out, read = [], 0
    for j in u.packages:
        n = vs[j][2] - vs[j][1]
        if read + n > len(u.payload):
            raise ShapeError(f"payload too short at package {j}")
        out.append(u.payload[read : read + n])
        read += n
    if read != len(u.payload):
        raise ShapeError("payload longer than its packages")
    return out


def mask_weight(theta: float, beta: float, weight_mode: str | None) -> float:
    """One package's mask weight; 1.0 for the baselines (weight_mode None)."""
    if weight_mode is None:
        return 1.0
    if weight_mode == "dual":
        w = theta + beta
    elif weight_mode == "cos_only":
        w = theta
    else:
        w = beta
    return max(w, EPS_W)


def aggregate(
    server: ServerState, updates: list[PackedUpdate], pack: int, weight_mode: str | None
) -> AggregateResult:
    vs = views(server.global_params.shape.total_params, pack)
    accepted = []
    for u in sorted(updates, key=lambda u: u.client_id):
        terms = zip(u.theta.tolist(), u.beta.tolist())
        weights = [mask_weight(theta, beta, weight_mode) for theta, beta in terms]
        accepted.append((u, weights, split_payload(u, vs)))

    totals = np.zeros(len(vs))
    for u, weights, _ in accepted:
        per_package = np.zeros(len(vs))
        per_package[u.packages] = weights
        totals += per_package
    acc = np.zeros(server.global_params.shape.total_params)
    for u, weights, payloads in accepted:
        for j, w, payload in zip(u.packages, weights, payloads):
            _, start, stop = vs[j]
            acc[start:stop] += (w / totals[j]) * payload.astype(np.float64)

    new_values = server.global_params.values.copy()
    for j, start, stop in vs:
        if totals[j] > 0:
            seg = new_values[start:stop].astype(np.float64) + acc[start:stop]
            new_values[start:stop] = seg.astype(np.float32)
    state = ServerState(
        global_params=FlatParams(new_values, server.global_params.shape),
        global_mask=GlobalMask(totals),
    )
    return AggregateResult(state=state)


def client_update(config, client_id, round_, trained, global_snapshot) -> PackedUpdate:
    pack = package_size(config)
    vs = views(trained.shape.total_params, pack)
    # (package index, theta, beta, payload) per entry
    entries = []
    if config.method == "fedcspack":
        profile = score_packages(trained, global_snapshot, pack)
        selected = select_topk(profile, config.cap_ratio)
        for j in selected.tolist():
            _, start, stop = vs[j]
            payload = trained.values[start:stop] - global_snapshot.values[start:stop]
            entries.append(
                (
                    j,
                    float(profile.per_package_cos[j]),
                    float(profile.per_package_kl[j]),
                    payload.astype(np.float32),
                )
            )
    elif config.method == "magnitude_topk":
        kept = magnitude_topk(trained, global_snapshot, config.topk_fraction)
        delta = trained.values.astype(np.float64) - global_snapshot.values.astype(np.float64)
        entries = [(int(j), 1.0, 0.0, np.array([delta[j]], dtype=np.float32)) for j in kept]
    else:
        for j, start, stop in vs:
            payload = trained.values[start:stop] - global_snapshot.values[start:stop]
            entries.append((j, 1.0, 0.0, payload.astype(np.float32)))
    return PackedUpdate(
        client_id=client_id,
        round=round_,
        pack=pack,
        packages=np.array([e[0] for e in entries], dtype=np.intp),
        theta=np.array([e[1] for e in entries]),
        beta=np.array([e[2] for e in entries]),
        lengths=np.array([len(e[3]) for e in entries], dtype=np.intp),
        payload=np.concatenate([np.zeros(0, np.float32)] + [e[3] for e in entries]),
    )
