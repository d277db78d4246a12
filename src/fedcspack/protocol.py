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

from .aggregation import GlobalMask, ServerState, aggregate, selective_pull
from .config import DatasetSpec, RunConfig, check_fits
from .errors import DecodeError, InvariantError, ProtocolViolation
from .model import Batch, FlatParams, forward_loss, init_params, local_train
from .packing import PackageLayout, least_k, package_kl, package_views, score_packages, select_topk
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


def checked_partition(config: RunConfig, dataset: Dataset) -> Partition:
    """The run's partition of `dataset`, after checking that the dataset
    fits the model; raises ConfigError for a row width other than the
    model's input width, more classes than the model has outputs, or a
    partition the data cannot fill."""
    check_fits(config.model, dataset.features.shape[1], dataset.num_classes)
    return make_partition(dataset, config.partition)


def effective_pack(config: RunConfig) -> int:
    # magnitude top-k sparsifies at coordinate granularity
    if config.method == "magnitude_topk":
        return 1
    return config.pack


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
        theta = profile.per_package_cos[chosen]
        beta = package_kl(trained, global_snapshot, layout, chosen)
    else:
        if config.method == "magnitude_topk":
            # the ceil(fraction * d) largest |delta|, ranked in float64, where
            # distinct magnitudes can share a float32; float32(a64 - b64) ==
            # a32 - b32, so the delta gathered below carries these values
            delta = trained.values.astype(np.float64) - global_snapshot.values.astype(np.float64)
            chosen = least_k(-np.abs(delta), math.ceil(config.topk_fraction * len(delta)))
        else:  # fedavg / fedprox: dense delta, every package
            chosen = np.arange(layout.num_packages)
        theta, beta = np.ones(len(chosen)), np.zeros(len(chosen))
    payload = layout.gather(trained.values - global_snapshot.values, chosen)
    return PackedUpdate(
        client_id, round_, layout.pack, chosen, theta, beta, layout.lengths[chosen], payload
    )


def _server_ingest(
    blob: bytes | bytearray, sender: int, round_: int, layout: PackageLayout
) -> PackedUpdate:
    """The server's one boundary: decode a client's bytes, check them
    against the round and the server's layout, and return the update it
    checked.

    Raises DecodeError for bytes the codec cannot read and
    ProtocolViolation for an update the server must not fold: a header
    other than (sender, round, pack), a package index >= J, a payload
    length other than its package's, a theta outside [-1, 1], a beta that
    is not finite and >= 0, or a non-finite payload value.  With finite
    theta and beta every mask weight is finite and >= EPS_W, so `aggregate`
    folds what this returns without a check of its own.
    """
    update = decode_update(blob)
    if len(blob) != update.encoded_length():
        raise InvariantError(
            f"round {round_}: traffic metering drifted from the codec on client {sender} "
            f"({len(blob)} bytes sent, {update.encoded_length()} by encoded_length)"
        )
    if (update.client_id, update.round, update.pack) != (sender, round_, layout.pack):
        raise ProtocolViolation(
            f"header (client {update.client_id}, round {update.round}, pack {update.pack}) "
            f"!= (client {sender}, round {round_}, pack {layout.pack})"
        )
    packages = update.packages
    # decode_update guarantees ascending, distinct indices
    if len(packages) and packages[-1] >= layout.num_packages:
        raise ProtocolViolation(f"package index {packages[-1]} >= {layout.num_packages}")
    if (update.lengths != layout.lengths[packages]).any():
        raise ProtocolViolation("payload length differs from its package length")
    # NaN fails every comparison; the -0.0 a KL term can be passes
    if not (np.abs(update.theta) <= 1.0).all():
        raise ProtocolViolation("theta outside [-1, 1]")
    if not ((0.0 <= update.beta) & (update.beta < np.inf)).all():
        raise ProtocolViolation("beta not finite and >= 0")
    if not np.isfinite(update.payload).all():
        raise ProtocolViolation("non-finite payload value")
    return update


def evaluate(
    server: ServerState,
    locals_: list[FlatParams],
    partition: Partition,
    dataset: Dataset,
    layout: PackageLayout,
) -> tuple[float, float, list[float]]:
    """Global accuracy on the pooled test rows, the dataset-size weighted
    mean of per-client post-pull accuracies on their own test rows, and
    those per-client accuracies (0.0 for a client without test rows)."""
    layout.check(server.global_params.shape.total_params)
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
        model = selective_pull(locals_[i], server.global_params, server.global_mask, layout)
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
    partition = checked_partition(config, dataset)
    d = config.model.total_params
    layout = package_views(d, effective_pack(config))
    # the server's one method branch: baselines weigh every package 1.0
    weight_mode = config.weight_mode if config.method == "fedcspack" else None

    server = ServerState(
        global_params=init_params(config.model, config.seed),
        global_mask=GlobalMask.all_valid(layout.num_packages),
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
            )
            locals_[i] = trained
            # encoded at once: a dense update's payload is the full-size delta,
            # which should not outlive this client
            blob = encode_update(_client_update(config, i, t, trained, global_snapshot, layout))
            # a blob the server rejects was still sent
            bytes_up += len(blob)
            try:
                updates.append(_server_ingest(blob, i, t, layout))
            except (DecodeError, ProtocolViolation) as exc:
                log.info("round %d: update from client %d rejected: %s", t, i, exc)
                rejected += 1
        server = aggregate(server, updates, layout, weight_mode).state

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
                violations=rejected,
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
