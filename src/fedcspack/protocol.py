"""The round loop: client sampling, local execution, wire exchange with
bit-exact traffic metering, server aggregation and evaluation.

All four methods (fedcspack, fedavg, fedprox, magnitude_topk) run under
the identical loop; they differ only in how the update payload is built
and weighted.  Everything is deterministic per config seed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .aggregation import GlobalMask, ServerState, aggregate, selective_pull
from .config import DatasetSpec, RunConfig
from .errors import ConfigError, InvariantError
from .model import Batch, FlatParams, forward_loss, init_params, local_train
from .packing import (
    DeltaPackages,
    LocalMask,
    PackageLayout,
    mask_weights,
    package_views,
    score_packages,
    select_topk,
)
from .partition import Dataset, Partition, load_idx, make_partition, synth_blobs
from .wire import PackedUpdate, UpdateEntry, decode_update, encode_update

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    method: str
    global_acc: float
    personalized_acc: float
    bytes_up: int
    bytes_down: int
    wall_ms: float
    participants: tuple[int, ...]
    violations: int


@dataclass
class RunResult:
    config: RunConfig
    metrics: list[RoundMetrics]
    server: ServerState
    locals_: list[FlatParams]
    partition: Partition
    dataset: Dataset
    dense_bytes_per_round: int


def build_dataset(spec: DatasetSpec) -> Dataset:
    if spec.kind == "blobs":
        return synth_blobs(
            num_classes=spec.num_classes,
            dim=spec.dim,
            samples_per_class=spec.samples_per_class,
            spread=spec.spread,
            seed=spec.seed,
        )
    return load_idx(spec.images, spec.labels)


def effective_pack(config: RunConfig) -> int:
    # magnitude top-k sparsifies at coordinate granularity
    if config.method == "magnitude_topk":
        return 1
    return config.pack


def baseline_magnitude_topk(
    local: FlatParams, global_: FlatParams, fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Classic magnitude Top-k over the dense delta.

    Returns the kept coordinate indices (ascending) and their delta values;
    keeps the ceil(fraction * d) largest |delta| coordinates, ties broken by
    lower index.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    delta = local.values.astype(np.float64) - global_.values.astype(np.float64)
    d = len(delta)
    k = math.ceil(fraction * d)
    order = np.lexsort((np.arange(d), -np.abs(delta)))
    kept = np.sort(order[:k])
    return kept, delta[kept].astype(np.float32)


def _entries(
    layout: PackageLayout,
    chosen: np.ndarray,
    theta: np.ndarray,
    beta: np.ndarray,
    source: np.ndarray,
) -> list[UpdateEntry]:
    """One wire entry per chosen package, its payload sliced from `source`."""
    return [
        UpdateEntry(package_index=j, theta=t, beta=b, payload=source[start : start + n])
        for j, t, b, start, n in zip(
            chosen.tolist(),
            theta.tolist(),
            beta.tolist(),
            layout.offsets[chosen].tolist(),
            layout.lengths[chosen].tolist(),
        )
    ]


def _client_update(
    config: RunConfig,
    client_id: int,
    round_: int,
    trained: FlatParams,
    global_snapshot: FlatParams,
    layout: PackageLayout,
) -> PackedUpdate:
    """Build the wire update for one client according to the method."""
    if config.method == "fedcspack":
        profile = score_packages(trained, global_snapshot, layout)
        if config.force_full_selection:
            chosen = np.arange(layout.num_packages)
        else:
            chosen = np.array(sorted(select_topk(profile, config.cap_ratio)), dtype=np.intp)
        if config.payload == "raw":
            source = trained.values.copy()
        else:
            source = trained.values - global_snapshot.values
        entries = _entries(
            layout,
            chosen,
            profile.per_package_cos[chosen],
            profile.per_package_kl[chosen],
            source,
        )
    elif config.method == "magnitude_topk":
        kept, values = baseline_magnitude_topk(trained, global_snapshot, config.topk_fraction)
        entries = [
            UpdateEntry(package_index=int(j), theta=1.0, beta=0.0, payload=np.array([v], dtype=np.float32))
            for j, v in zip(kept, values)
        ]
    else:  # fedavg / fedprox: dense delta, every package
        chosen = np.arange(layout.num_packages)
        entries = _entries(
            layout,
            chosen,
            np.ones(len(chosen)),
            np.zeros(len(chosen)),
            trained.values - global_snapshot.values,
        )
    return PackedUpdate(client_id=client_id, round=round_, pack=layout.pack, entries=tuple(entries))


def _server_ingest(
    config: RunConfig,
    update: PackedUpdate,
    global_snapshot: FlatParams,
    layout: PackageLayout,
) -> tuple[int, LocalMask, DeltaPackages]:
    """Rebuild (mask, deltas) from a decoded wire update.

    fedcspack weights derive from the transmitted theta/beta per the
    configured weight mode; baselines weigh every package equally so the
    normalized combination is the plain mean over senders.
    """
    entries = update.entries
    chosen = np.fromiter((e.package_index for e in entries), dtype=np.intp, count=len(entries))
    weights = np.zeros(layout.num_packages)
    if config.method == "fedcspack":
        weights[chosen] = mask_weights(
            np.fromiter((e.theta for e in entries), dtype=np.float64, count=len(entries)),
            np.fromiter((e.beta for e in entries), dtype=np.float64, count=len(entries)),
            config.weight_mode,
            config.weight_override,
        )
    else:
        weights[chosen] = 1.0
    payloads = [e.payload for e in entries]
    if config.method == "fedcspack" and config.payload == "raw":
        g = global_snapshot.values
        payloads = [
            p - g[start : start + n]
            for p, start, n in zip(
                payloads, layout.offsets[chosen].tolist(), layout.lengths[chosen].tolist()
            )
        ]
    packages = dict(zip(chosen.tolist(), payloads))
    mask = LocalMask(weights=weights, selected=frozenset(packages))
    return update.client_id, mask, DeltaPackages(packages=packages)


def evaluate(
    server: ServerState,
    locals_: list[FlatParams],
    partition: Partition,
    dataset: Dataset,
    pack: int | PackageLayout,
) -> tuple[float, float]:
    """Global accuracy on the pooled test rows and the dataset-size weighted
    mean of per-client post-pull accuracies on their own test rows."""
    pooled = np.concatenate([t for t in partition.test if len(t)]) if partition.test else np.array([], dtype=np.int64)
    if len(pooled):
        batch = Batch(dataset.features[pooled], dataset.labels[pooled])
        _, correct = forward_loss(server.global_params, batch)
        global_acc = correct / len(pooled)
    else:
        global_acc = 0.0

    num = 0.0
    den = 0.0
    for i in range(partition.num_clients):
        rows = partition.test[i]
        if len(rows) == 0:
            continue
        model = selective_pull(locals_[i], server.global_params, server.global_mask, pack)
        batch = Batch(dataset.features[rows], dataset.labels[rows])
        _, correct = forward_loss(model, batch)
        size = len(partition.assignment[i])
        num += size * (correct / len(rows))
        den += size
    return global_acc, (num / den if den else 0.0)


def run(config: RunConfig, dataset: Dataset | None = None, round_hook=None) -> RunResult:
    """Execute the full simulation; deterministic per config seed.

    round_hook(t, server), when given, is called after each aggregation
    with the post-round server state (read-only observer).
    """
    if dataset is None:
        dataset = build_dataset(config.dataset)
    if dataset.features.shape[1] != config.model.input_dim:
        raise ConfigError(
            f"dataset dim {dataset.features.shape[1]} != model input {config.model.input_dim}"
        )
    partition = make_partition(dataset, config.partition)
    pack = effective_pack(config)
    d = config.model.total_params
    layout = package_views(d, pack)

    server = ServerState(
        global_params=init_params(config.model, config.seed),
        global_mask=GlobalMask.all_valid(layout.num_packages),
        round=0,
    )
    locals_ = [server.global_params.copy() for _ in range(config.clients)]

    sample_size = math.ceil(config.cpr * config.clients)
    metrics: list[RoundMetrics] = []
    for t in range(config.rounds):
        t0 = time.perf_counter()
        sample_rng = np.random.default_rng([config.seed, 17, t])
        sampled = sorted(
            sample_rng.choice(config.clients, size=sample_size, replace=False).tolist()
        )
        if len(set(sampled)) != sample_size:
            raise InvariantError(f"round {t}: sampled clients {sampled} are not distinct")

        global_snapshot = server.global_params.copy()
        mask_snapshot = server.global_mask

        wire_blobs: list[bytes] = []
        decoded: list[PackedUpdate] = []
        for i in sampled:
            if len(partition.train[i]) == 0:
                log.info("round %d: client %d has no train data, skipped", t, i)
                continue
            if config.method == "fedcspack":
                pulled = selective_pull(locals_[i], global_snapshot, mask_snapshot, layout)
            else:
                pulled = global_snapshot.copy()
            rows = partition.train[i]
            data = Batch(dataset.features[rows], dataset.labels[rows])
            train_rng = np.random.default_rng([config.seed, 29, t, i])
            trained = local_train(
                pulled,
                data,
                epochs=config.local_epochs,
                lr=config.lr,
                batch_size=config.batch_size,
                rng=train_rng,
                prox_mu=config.prox_mu if config.method == "fedprox" else 0.0,
                anchor=pulled if config.method == "fedprox" else None,
            )
            locals_[i] = trained
            # encoded at once: the update's payloads are views of a full-size
            # delta that should not outlive this client
            blob = encode_update(_client_update(config, i, t, trained, global_snapshot, layout))
            wire_blobs.append(blob)
            decoded.append(decode_update(blob))

        bytes_up = sum(len(b) for b in wire_blobs)
        closed_form = sum(u.encoded_length() for u in decoded)
        if bytes_up != closed_form:
            raise InvariantError(
                f"round {t}: traffic metering drifted from the codec "
                f"({bytes_up} bytes sent, {closed_form} by encoded_length)"
            )

        updates = [_server_ingest(config, u, global_snapshot, layout) for u in decoded]
        result = aggregate(server, updates, layout)
        server = result.state

        # dense broadcast of the new global model, metered through the codec
        # as one full-vector entry per recipient
        broadcast = PackedUpdate(
            client_id=0xFFFFFFFF,
            round=t,
            pack=d,
            entries=(
                UpdateEntry(
                    package_index=0,
                    theta=1.0,
                    beta=0.0,
                    payload=server.global_params.values,
                ),
            ),
        )
        bytes_down = len(encode_update(broadcast)) * len(sampled)

        if round_hook is not None:
            round_hook(t, server)

        global_acc, personalized_acc = evaluate(server, locals_, partition, dataset, layout)
        metrics.append(
            RoundMetrics(
                round=t,
                method=config.method,
                global_acc=global_acc,
                personalized_acc=personalized_acc,
                bytes_up=bytes_up,
                bytes_down=bytes_down,
                wall_ms=(time.perf_counter() - t0) * 1000.0,
                participants=tuple(sampled),
                violations=result.violations,
            )
        )
    return RunResult(
        config=config,
        metrics=metrics,
        server=server,
        locals_=locals_,
        partition=partition,
        dataset=dataset,
        dense_bytes_per_round=d * 4 * sample_size,
    )
