"""Reference oracle: a whole run as the README tells a round, built only
from the reference oracles in package_oracle.py, model_oracle.py and
partition_oracle.py.

Each round samples ceil_share(cpr, clients) distinct clients from the
generator [seed, 17, t].  Each sampled client starts from the global
model (fedcspack pulls it through last round's mask onto its own last
model), trains on the generator [seed, 29, t, i] (fedprox anchored on
that start), and sends its update, which the server reads
as the codec carries it: u32 indices and lengths, f32 theta, beta and
payload.  Uplink bytes follow the codec's closed form 22 + 16·n + 4·Σlen;
the dense broadcast is one entry of d values to every sampled client.
The server folds the round's updates in ascending client id and the
round is scored on the post-round global model and mask.  Nothing here
calls the program's round loop or its kernels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import model_oracle
import package_oracle
import partition_oracle
from fedcspack.aggregation import GlobalMask, ServerState
from fedcspack.model import Batch
from fedcspack.partition import Dataset, Partition
from fedcspack.wire import PackedUpdate

HEADER_BYTES = 22
ENTRY_BYTES = 16


@dataclass(frozen=True)
class OracleRound:
    global_bytes: bytes
    totals: np.ndarray
    bytes_up: int
    bytes_down: int
    violations: int
    global_acc: float
    personalized_acc: float


def read_idx(images: str, labels: str) -> Dataset:
    """An IDX image/label pair: big-endian headers, u8 pixels and labels."""
    img, lab = Path(images).read_bytes(), Path(labels).read_bytes()
    _, count, rows, cols = struct.unpack(">IIII", img[:16])
    pixels = np.frombuffer(img[16:], dtype=np.uint8).reshape(count, rows * cols)
    labels_ = np.frombuffer(lab[8:], dtype=np.uint8).astype(np.int64)
    return Dataset(
        partition_oracle.idx_features(pixels), labels_, int(labels_.max()) + 1, name="idx"
    )


def dataset_of(spec) -> Dataset:
    if spec.kind == "blobs":
        return partition_oracle.synth_blobs(
            spec.num_classes, spec.dim, spec.samples_per_class, spec.spread, spec.seed
        )
    return read_idx(spec.images, spec.labels)


def partition_of(dataset: Dataset, spec) -> Partition:
    if spec.law == "dirichlet":
        return partition_oracle.partition_dirichlet(dataset, spec)
    return partition_oracle.partition_pathological(dataset, spec)


def received(update: PackedUpdate) -> PackedUpdate:
    """The update as the server decodes it from the codec's bytes."""
    return PackedUpdate(
        update.client_id,
        update.round,
        update.pack,
        update.packages.astype(np.uint32),
        update.theta.astype(np.float32),
        update.beta.astype(np.float32),
        update.lengths.astype(np.uint32),
        update.payload.astype(np.float32),
    )


def evaluate(server, locals_, partition, dataset, pack):
    """Global accuracy on the pooled test rows; each client's accuracy
    after a pull through the round's mask; and their mean weighted by the
    clients' row counts."""
    pooled = np.concatenate(partition.test)
    batch = Batch(dataset.features[pooled], dataset.labels[pooled])
    global_acc = model_oracle.forward_loss(server.global_params, batch)[1] / len(pooled)
    per_client, num, den = [], 0.0, 0.0
    for i, rows in enumerate(partition.test):
        model = package_oracle.selective_pull(
            locals_[i], server.global_params, server.global_mask, pack
        )
        batch = Batch(dataset.features[rows], dataset.labels[rows])
        per_client.append(model_oracle.forward_loss(model, batch)[1] / len(rows))
        num += len(partition.assignment[i]) * per_client[-1]
        den += len(partition.assignment[i])
    return global_acc, num / den, per_client


def run(config) -> tuple[list[OracleRound], list[float]]:
    """Every round of `config` and the final per-client accuracies."""
    dataset = dataset_of(config.dataset)
    partition = partition_of(dataset, config.partition)
    d = config.model.total_params
    pack = package_oracle.package_size(config)
    selective = config.method == "fedcspack"
    weight_mode = config.weight_mode if config.method == "fedcspack" else None
    prox_mu = config.prox_mu if config.method == "fedprox" else 0.0

    init = partition_oracle.init_params(config.model, config.seed)
    # all valid, where the program starts with none valid: every local model
    # starts as init, so a round-0 pull gives init under either mask, and the
    # run-oracle tests check that the start mask decides nothing
    server = ServerState(init, GlobalMask(np.ones(-(-d // pack))))
    locals_ = [init] * config.clients
    size = package_oracle.ceil_share(config.cpr, config.clients)
    rounds = []
    for t in range(config.rounds):
        rng = np.random.default_rng([config.seed, 17, t])
        sampled = sorted(rng.choice(config.clients, size=size, replace=False).tolist())
        updates, bytes_up = [], 0
        for i in sampled:
            rows = partition.train[i]
            start = server.global_params
            if selective:
                start = package_oracle.selective_pull(locals_[i], start, server.global_mask, pack)
            trained = model_oracle.local_train(
                start,
                Batch(dataset.features[rows], dataset.labels[rows]),
                epochs=config.local_epochs,
                lr=config.lr,
                batch_size=config.batch_size,
                rng=np.random.default_rng([config.seed, 29, t, i]),
                prox_mu=prox_mu,
                anchor=start if prox_mu > 0 else None,
            )
            locals_[i] = trained
            update = package_oracle.client_update(config, i, t, trained, server.global_params)
            entries = len(update.packages)
            bytes_up += HEADER_BYTES + ENTRY_BYTES * entries + 4 * int(update.lengths.sum())
            updates.append(received(update))
        server = package_oracle.aggregate(server, updates, pack, weight_mode).state
        global_acc, personalized_acc, per_client = evaluate(
            server, locals_, partition, dataset, pack
        )
        rounds.append(
            OracleRound(
                global_bytes=server.global_params.values.tobytes(),
                totals=server.global_mask.totals,
                bytes_up=bytes_up,
                bytes_down=(HEADER_BYTES + ENTRY_BYTES + 4 * d) * len(sampled),
                violations=0,
                global_acc=global_acc,
                personalized_acc=personalized_acc,
            )
        )
    return rounds, per_client
