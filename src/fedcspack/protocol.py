"""The round loop: client sampling, local execution, wire exchange with
bit-exact traffic metering, server aggregation and evaluation.

All four methods (fedcspack, fedavg, fedprox, magnitude_topk) run under
the identical loop; they differ only in which packages a client sends and
how the server weighs them.  Everything is deterministic per config seed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .aggregation import ClientUpdate, GlobalMask, ServerState, aggregate, selective_pull
from .config import DatasetSpec, RunConfig
from .errors import ConfigError, DecodeError, InvariantError, ProtocolViolation
from .model import Batch, FlatParams, forward_loss, init_params, local_train
from .packing import PackageLayout, mask_weights, package_views, score_packages, select_topk
from .partition import Dataset, Partition, load_idx, make_partition, synth_blobs
from .wire import PackedUpdate, decode_update, encode_update

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
    per_client_acc: list[float]


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


def baseline_magnitude_topk(local: FlatParams, global_: FlatParams, fraction: float) -> np.ndarray:
    """Classic magnitude Top-k over the dense delta.

    Returns the kept coordinate indices (ascending): the ceil(fraction * d)
    largest |delta| coordinates, ties broken by lower index.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    delta = local.values.astype(np.float64) - global_.values.astype(np.float64)
    d = len(delta)
    k = math.ceil(fraction * d)
    order = np.lexsort((np.arange(d), -np.abs(delta)))
    return np.sort(order[:k])


def _client_update(
    config: RunConfig,
    client_id: int,
    round_: int,
    trained: FlatParams,
    global_snapshot: FlatParams,
    layout: PackageLayout,
) -> PackedUpdate:
    """Build the wire update for one client: the methods differ only in the
    packages chosen and the (theta, beta) sent with each."""
    if config.method == "fedcspack":
        profile = score_packages(trained, global_snapshot, layout)
        chosen = select_topk(profile, config.cap_ratio)
        theta, beta = profile.per_package_cos[chosen], profile.per_package_kl[chosen]
    else:
        if config.method == "magnitude_topk":
            # float32(a64 - b64) == a32 - b32, so the delta gathered below
            # carries exactly the values the baseline keeps
            chosen = baseline_magnitude_topk(trained, global_snapshot, config.topk_fraction)
        else:  # fedavg / fedprox: dense delta, every package
            chosen = np.arange(layout.num_packages)
        theta, beta = np.ones(len(chosen)), np.zeros(len(chosen))
    payload = layout.gather(trained.values - global_snapshot.values, chosen)
    return PackedUpdate(
        client_id, round_, layout.pack, chosen, theta, beta, layout.lengths[chosen], payload
    )


def _server_ingest(
    config: RunConfig,
    update: PackedUpdate,
    sender: int,
    round_: int,
    layout: PackageLayout,
) -> ClientUpdate:
    """Check a decoded wire update against the round and the server's
    layout, and reduce it to the aggregator's arrays.

    fedcspack weights derive from the transmitted theta/beta per the
    configured weight mode; baselines weigh every package equally so the
    normalized combination is the plain mean over senders.  Raises
    ProtocolViolation for an update whose header or package geometry does
    not match the round; `aggregate` judges the values.
    """
    if (update.client_id, update.round, update.pack) != (sender, round_, layout.pack):
        raise ProtocolViolation(
            f"header (client {update.client_id}, round {update.round}, pack {update.pack}) "
            f"!= (client {sender}, round {round_}, pack {layout.pack})"
        )
    packages = update.packages.astype(np.intp)
    # decode_update guarantees ascending, distinct indices
    if len(packages) and packages[-1] >= layout.num_packages:
        raise ProtocolViolation(f"package index {packages[-1]} >= {layout.num_packages}")
    if (update.lengths != layout.lengths[packages]).any():
        raise ProtocolViolation("payload length differs from its package length")
    if config.method == "fedcspack":
        theta, beta = update.theta.astype(np.float64), update.beta.astype(np.float64)
        weights = mask_weights(theta, beta, config.weight_mode)
    else:
        weights = np.ones(len(packages))
    return ClientUpdate(update.client_id, packages, weights, update.payload)


def evaluate(
    server: ServerState,
    locals_: list[FlatParams],
    partition: Partition,
    dataset: Dataset,
    pack: int | PackageLayout,
) -> tuple[float, float, list[float]]:
    """Global accuracy on the pooled test rows, the dataset-size weighted
    mean of per-client post-pull accuracies on their own test rows, and
    those per-client accuracies (0.0 for a client without test rows)."""
    pooled = np.concatenate(partition.test)
    global_acc = 0.0
    if len(pooled):
        batch = Batch(dataset.features[pooled], dataset.labels[pooled])
        _, correct = forward_loss(server.global_params, batch)
        global_acc = correct / len(pooled)

    per_client = []
    num = 0.0
    den = 0.0
    for i in range(partition.num_clients):
        rows = partition.test[i]
        if len(rows) == 0:
            per_client.append(0.0)
            continue
        model = selective_pull(locals_[i], server.global_params, server.global_mask, pack)
        batch = Batch(dataset.features[rows], dataset.labels[rows])
        _, correct = forward_loss(model, batch)
        per_client.append(correct / len(rows))
        size = len(partition.assignment[i])
        num += size * per_client[-1]
        den += size
    return global_acc, (num / den if den else 0.0), per_client


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
    # nothing writes a FlatParams' values in place, so every client may
    # start from the one initial model
    locals_ = [server.global_params] * config.clients

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

        global_snapshot = server.global_params
        mask_snapshot = server.global_mask

        bytes_up = 0
        updates = []
        rejected = 0
        for i in sampled:
            if len(partition.train[i]) == 0:
                log.info("round %d: client %d has no train data, skipped", t, i)
                continue
            if config.method == "fedcspack":
                pulled = selective_pull(locals_[i], global_snapshot, mask_snapshot, layout)
            else:
                pulled = global_snapshot
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
            # encoded at once: a dense update's payload is the full-size delta,
            # which should not outlive this client
            blob = encode_update(_client_update(config, i, t, trained, global_snapshot, layout))
            # a blob the server rejects was still sent
            bytes_up += len(blob)
            try:
                u = decode_update(blob)
                if len(blob) != u.encoded_length():
                    raise InvariantError(
                        f"round {t}: traffic metering drifted from the codec on client {i} "
                        f"({len(blob)} bytes sent, {u.encoded_length()} by encoded_length)"
                    )
                updates.append(_server_ingest(config, u, i, t, layout))
            except (DecodeError, ProtocolViolation) as exc:
                log.info("round %d: update from client %d rejected: %s", t, i, exc)
                rejected += 1
        result = aggregate(server, updates, layout)
        server = result.state

        # dense broadcast of the new global model, metered through the codec
        # as one full-vector entry per recipient
        values = server.global_params.values
        broadcast = PackedUpdate(
            0xFFFFFFFF, t, d, np.zeros(1, np.intp), np.ones(1), np.zeros(1), np.array([d]), values
        )
        bytes_down = len(encode_update(broadcast)) * len(sampled)

        if round_hook is not None:
            round_hook(t, server)

        global_acc, personalized_acc, per_client_acc = evaluate(
            server, locals_, partition, dataset, layout
        )
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
                violations=rejected + result.violations,
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
        per_client_acc=per_client_acc,
    )
