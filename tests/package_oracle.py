"""Reference oracle: the straight per-package loops that the array kernels
in fedcspack.packing and fedcspack.aggregation replace.

Each function walks the packages one at a time, exactly as the simulator
used to, so `np.array_equal` against it proves a kernel bit for bit.
`per_client_accuracy` is the separate pull-and-score loop that the
report used before `evaluate` returned the per-client accuracies.
"""

from __future__ import annotations

import math

import numpy as np

from fedcspack.aggregation import AggregateResult, ClientUpdate, GlobalMask, ServerState
from fedcspack.errors import ShapeError
from fedcspack.model import Batch, FlatParams, forward_loss
from fedcspack.packing import EPS_Q, EPS_W, SimilarityProfile
from fedcspack.protocol import baseline_magnitude_topk, effective_pack
from fedcspack.wire import PackedUpdate


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a64 = np.asarray(a).astype(np.float64)
    b64 = np.asarray(b).astype(np.float64)
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


def views(total_params: int, pack: int) -> list[tuple[int, int, int]]:
    """(index, offset, stop) of every package; the tail may be short."""
    return [
        (j, j * pack, min(j * pack + pack, total_params))
        for j in range(math.ceil(total_params / pack))
    ]


def score_packages(local: FlatParams, global_: FlatParams, pack: int) -> SimilarityProfile:
    vs = views(local.shape.total_params, pack)
    overall = cosine(local.values, global_.values)
    cos = np.empty(len(vs))
    kl = np.empty(len(vs))
    for j, start, stop in vs:
        lv = local.values[start:stop]
        gv = global_.values[start:stop]
        cos[j] = cosine(lv, gv)
        kl[j] = kl_package(lv, gv)
    return SimilarityProfile(overall=overall, per_package_cos=cos, per_package_kl=kl)


def select_topk(profile: SimilarityProfile, cap_ratio: float = 1.0) -> np.ndarray:
    cos = profile.per_package_cos
    j_count = profile.num_packages
    candidates = [j for j in range(j_count) if cos[j] < profile.overall]
    if not candidates:
        return np.array([min(range(j_count), key=lambda j: (cos[j], j))], dtype=np.intp)
    k = min(len(candidates), math.ceil(cap_ratio * j_count))
    candidates.sort(key=lambda j: (cos[j], j))
    return np.array(sorted(candidates[:k]), dtype=np.intp)


def selective_pull(local: FlatParams, global_: FlatParams, global_mask: GlobalMask, pack: int) -> FlatParams:
    out = local.values.copy()
    for j, start, stop in views(local.shape.total_params, pack):
        if global_mask.totals[j] > 0:
            out[start:stop] = global_.values[start:stop]
    return FlatParams(out, local.shape)


def split_payload(u: ClientUpdate, vs) -> list[np.ndarray]:
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


def aggregate(server: ServerState, updates: list[ClientUpdate], pack: int) -> AggregateResult:
    vs = views(server.global_params.shape.total_params, pack)
    accepted = []
    violations = 0
    for u in sorted(updates, key=lambda u: u.client_id):
        if any(not (w > 0 and math.isfinite(w)) for w in u.weights):
            violations += 1
            continue
        payloads = split_payload(u, vs)
        if any(not np.isfinite(payload).all() for payload in payloads):
            violations += 1
            continue
        accepted.append((u, payloads))

    totals = np.zeros(len(vs))
    for u, _ in accepted:
        weights = np.zeros(len(vs))
        weights[u.packages] = u.weights
        totals += weights
    acc = np.zeros(server.global_params.shape.total_params)
    for u, payloads in accepted:
        for j, w, payload in zip(u.packages, u.weights, payloads):
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
        round=server.round + 1,
    )
    return AggregateResult(state=state, violations=violations)


def client_update(config, client_id, round_, trained, global_snapshot) -> PackedUpdate:
    pack = effective_pack(config)
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
        kept = baseline_magnitude_topk(trained, global_snapshot, config.topk_fraction)
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


def server_ingest(config, update) -> ClientUpdate:
    packages, weights, payloads = [], [], []
    read = 0
    for j, theta, beta, n in zip(
        update.packages.tolist(),
        update.theta.tolist(),
        update.beta.tolist(),
        update.lengths.tolist(),
    ):
        if config.method == "fedcspack":
            if config.weight_mode == "dual":
                w = theta + beta
            elif config.weight_mode == "cos_only":
                w = theta
            else:
                w = beta
            weights.append(max(w, EPS_W))
        else:
            weights.append(1.0)
        packages.append(j)
        payloads.append(update.payload[read : read + n].astype(np.float32))
        read += n
    return ClientUpdate(
        update.client_id,
        np.array(packages, dtype=np.intp),
        np.array(weights),
        np.concatenate([np.zeros(0, np.float32)] + payloads),
    )


def per_client_accuracy(result) -> list[float]:
    """Final post-pull accuracy of every client on its own test rows."""
    pack = effective_pack(result.config)
    accs = []
    for i in range(result.partition.num_clients):
        rows = result.partition.test[i]
        if len(rows) == 0:
            accs.append(0.0)
            continue
        model = selective_pull(
            result.locals_[i], result.server.global_params, result.server.global_mask, pack
        )
        batch = Batch(result.dataset.features[rows], result.dataset.labels[rows])
        _, correct = forward_loss(model, batch)
        accs.append(correct / len(rows))
    return accs
