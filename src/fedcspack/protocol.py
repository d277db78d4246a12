"""The round protocol: client sampling, local execution, wire exchange with
bit-exact traffic metering, server aggregation and evaluation.

`setup_run` fixes the dataset, partition and package layout and returns the
state before round 0; `round_step` carries that state through one round, and
`run` folds it over the rounds.  The state is the server, the clients' local
models and t alone: every random stream is keyed by (seed, tag, t[, i]), so a
run resumed from a copy of the state equals a whole one.  The four methods
differ only in their row of `config.METHODS`, which `setup_run`, `round_step`,
`_client_update` and `fold_weights` read.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .aggregation import GlobalMask, ServerState, aggregate, selective_pull
from .config import METHODS, DatasetSpec, RunConfig, check_fits
from .errors import DecodeError, InvariantError, ProtocolViolation
from .model import Batch, FlatParams, forward_loss, init_params, local_train
from .packing import PackageLayout, ceil_share, least_k, mask_weights, package_kl, package_views
from .packing import score_packages, select_topk
from .partition import Dataset, Partition, load_idx, make_partition, synth_blobs
from .wire import PackedUpdate, decode_update, encode_update

log = logging.getLogger(__name__)

BROADCAST_ID = 0xFFFFFFFF  # the client id of the server's metered broadcast


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


@dataclass(frozen=True)
class RunSetup:
    """What a run fixes before round 0; a round only reads it."""

    config: RunConfig
    dataset: Dataset
    partition: Partition
    layout: PackageLayout


@dataclass(frozen=True)
class RunResult(RunSetup):  # a finished run: its set-up, then what its rounds made
    metrics: list[RoundMetrics]
    server: ServerState
    locals_: list[FlatParams]
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


def _client_update(
    config: RunConfig,
    client_id: int,
    round_: int,
    trained: FlatParams,
    global_snapshot: FlatParams,
    global64: np.ndarray,
    layout: PackageLayout,
) -> PackedUpdate:
    """Build the wire update for one client: the packages its method row's
    `sends` chooses and their (theta, beta), against `global64`, the round's float64 global."""
    sends = METHODS[config.method].sends
    if sends == "cosine":
        trained64 = trained.values.astype(np.float64)
        profile = score_packages(trained64, global64, layout)
        chosen = select_topk(profile, config.cap_ratio)
        theta = profile.per_package_cos[chosen]
        beta = package_kl(trained64, global64, layout, chosen)
    else:
        if sends == "magnitude":
            # the ceil_share(fraction, d) largest |delta|, ranked in float64,
            # where distinct magnitudes can share a float32; float32(a64 - b64)
            # == a32 - b32, so the delta gathered below carries these values
            delta = trained.values - global64
            chosen = least_k(-np.abs(delta), ceil_share(config.topk_fraction, len(delta)))
        else:  # "all": dense delta, every package
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
    theta and beta every fold weight is finite and >= EPS_W, so `aggregate`
    folds every update this returns: its checks serve direct callers.
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


def fold_weights(config: RunConfig, update: PackedUpdate) -> np.ndarray:
    """`aggregate`'s weight for each package of an accepted update: its `mask_weights`
    under `config.weight_mode` for a weighted method row, else 1.0 (the plain mean)."""
    if METHODS[config.method].weighted:
        return mask_weights(update.theta, update.beta, config.weight_mode)
    return np.ones(len(update.packages))


def evaluate(
    setup: RunSetup, server: ServerState, locals_: list[FlatParams]
) -> tuple[float, float, list[float]]:
    """Global accuracy on the pooled test rows, the dataset-size weighted
    mean of per-client post-pull accuracies on their own test rows, and
    those per-client accuracies."""
    dataset, partition, layout = setup.dataset, setup.partition, setup.layout
    pooled = np.concatenate(partition.test)
    batch = Batch(dataset.features[pooled], dataset.labels[pooled])
    global_acc = forward_loss(server.global_params, batch)[1] / len(pooled)

    per_client = []
    num = 0.0
    for i, rows in enumerate(partition.test):
        model = selective_pull(locals_[i], server.global_params, server.global_mask, layout)
        batch = Batch(dataset.features[rows], dataset.labels[rows])
        per_client.append(forward_loss(model, batch)[1] / len(rows))
        num += len(partition.assignment[i]) * per_client[-1]
    return global_acc, num / sum(len(rows) for rows in partition.assignment), per_client


def setup_run(
    config: RunConfig, dataset: Dataset | None = None
) -> tuple[RunSetup, ServerState, list[FlatParams]]:
    """The run's set-up and its state before round 0: the server and every
    client's local model.  Every command assembles and checks a run here:
    raises ConfigError for a row width other than the model's input width,
    more classes than the model has outputs, or a partition the data
    cannot fill."""
    if dataset is None:
        dataset = build_dataset(config.dataset)
    check_fits(config.model, dataset.features.shape[1], dataset.num_classes)
    partition = make_partition(dataset, config.partition)
    # a method that sends by magnitude picks single coordinates
    pack = 1 if METHODS[config.method].sends == "magnitude" else config.pack
    layout = package_views(config.model.total_params, pack)
    # the mask a fold of no updates leaves, with no package valid: every local
    # model starts as the initial model, so round 0's pulls return it anyway
    server = ServerState(
        init_params(config.model, config.seed), GlobalMask(np.zeros(layout.num_packages))
    )
    # FlatParams values are read-only, so every client may start from the one initial model
    locals_ = [server.global_params] * config.clients
    return RunSetup(config, dataset, partition, layout), server, locals_


def round_step(
    setup: RunSetup, server: ServerState, locals_: list[FlatParams], t: int, round_hook=None
) -> tuple[ServerState, RoundMetrics, list[float]]:
    """Round t from the state (`server`, `locals_`): the post-round server,
    the round's metrics and the per-client accuracies.  A sampled client
    that trains replaces its entry of `locals_` in place; every other entry
    keeps its object.

    round_hook(t, server), when given, is called after the aggregation
    with the post-round server state (read-only observer).
    """
    config, dataset, partition, layout = setup.config, setup.dataset, setup.partition, setup.layout
    method = METHODS[config.method]
    prox_mu = config.prox_mu if method.proximal else 0.0
    sample_size = ceil_share(config.cpr, config.clients)

    t0 = time.perf_counter()
    sample_rng = np.random.default_rng([config.seed, 17, t])
    sampled = sorted(sample_rng.choice(config.clients, size=sample_size, replace=False).tolist())
    if len(set(sampled)) != sample_size:
        raise InvariantError(f"round {t}: sampled clients {sampled} are not distinct")

    global_snapshot = server.global_params
    # widened once and read-only: every client of the round scores against it
    global64 = global_snapshot.values.astype(np.float64)
    global64.flags.writeable = False
    mask_snapshot = server.global_mask

    bytes_up, rejected, updates = 0, 0, []
    for i in sampled:
        pulled = global_snapshot
        if method.selective_pull:
            pulled = selective_pull(locals_[i], global_snapshot, mask_snapshot, layout)
        rows = partition.train[i]
        data = Batch(dataset.features[rows], dataset.labels[rows])
        train_rng = np.random.default_rng([config.seed, 29, t, i])
        trained = local_train(
            pulled, data, epochs=config.local_epochs, lr=config.lr,
            batch_size=config.batch_size, rng=train_rng, prox_mu=prox_mu,
        )
        locals_[i] = trained
        # encoded at once: a dense update's payload is the full-size delta,
        # which should not outlive this client
        blob = encode_update(_client_update(config, i, t, trained, global_snapshot, global64, layout))
        # a blob the server rejects was still sent
        bytes_up += len(blob)
        try:
            updates.append(_server_ingest(blob, i, t, layout))
        except (DecodeError, ProtocolViolation) as exc:
            log.info("round %d: update from client %d rejected: %s", t, i, exc)
            rejected += 1
    server = aggregate(server, updates, [fold_weights(config, u) for u in updates], layout).state

    # dense broadcast of the new global model, metered through the codec
    # as one full-vector entry per recipient
    d, values = config.model.total_params, server.global_params.values
    broadcast = PackedUpdate(
        BROADCAST_ID, t, d, np.zeros(1, np.intp), np.ones(1), np.zeros(1), np.array([d]), values
    )
    bytes_down = len(encode_update(broadcast)) * len(sampled)

    if round_hook is not None:
        round_hook(t, server)

    global_acc, personalized_acc, per_client_acc = evaluate(setup, server, locals_)
    metrics = RoundMetrics(
        round=t, method=config.method, global_acc=global_acc, personalized_acc=personalized_acc,
        bytes_up=bytes_up, bytes_down=bytes_down, wall_ms=(time.perf_counter() - t0) * 1000.0,
        participants=tuple(sampled), violations=rejected,
    )
    return server, metrics, per_client_acc


def run(setup: RunSetup, server: ServerState, locals_: list[FlatParams], round_hook=None) -> RunResult:
    """Fold `round_step`, with its `round_hook`, over the rounds from a `setup_run` start."""
    metrics: list[RoundMetrics] = []
    for t in range(setup.config.rounds):
        server, row, per_client_acc = round_step(setup, server, locals_, t, round_hook)
        metrics.append(row)
    return RunResult(
        **vars(setup), metrics=metrics, server=server, locals_=locals_, per_client_acc=per_client_acc
    )
