"""Kernel micro-benchmarks (pytest-benchmark), kept out of the test suite:

    python -m pytest bench --benchmark-only

Shapes follow the perfbench workloads: one client's local training on the
wide model (fedcspack-wide) and on the IDX model with the proximal term
(fedprox-idx), the encode and decode of one client update in the
magnitude Top-k shape at desk scale (topk-desk) and in the fedcspack shape
of the wide model (fedcspack-wide), one round's aggregation of 10 client
updates in those two shapes under fedcspack's weighting and the
baselines' and of the dense updates that fedavg and fedprox fold (wide
and IDX models), the server's ingest of one client's blob in those
shapes, package scoring, the KL of the 134 packages that one fedcspack
client sends (the cap-0.25 selection, the short tail package among them),
the payload gather of those 134 packages with and without the tail,
one fedcspack client's update (scoring, selection, the chosen packages'
KL and the payload gather at the fedcspack-wide cap of 0.25), one
magnitude Top-k client's update (the float64 delta, its ranking and the
payload gather) at the topk-desk shape (d = 2,762, fraction 0.1) and on
the wide model (fraction 0.05), the ranking alone (`least_k` of the 3,419
largest of the wide model's 68,362 |delta|), selective pull on the wide
model and one round's `evaluate` of 20 clients on it, each at pack 128
(half the packages valid) and at pack 1 (37% valid), and the
set-up kernels: the Dirichlet partition of topk-desk and
fedcspack-wide, the pathological partition of fedprox-idx, the holdout
alone on those two partitions, the blobs of fedcspack-wide and the wide
model's initial parameters.  `test_round_step` times one whole round
(`protocol.round_step`) of each of the four methods at desk (32-64-10)
and wide (256-256-10) scale from a fixed mid-run state: the ms/round
baseline of a change to the round.  The last benchmark times a whole
topk-desk set-up through the command line, from `main`'s argv to the
return of `init_params`.
"""

import json

import numpy as np
import pytest

from fedcspack import cli, protocol
from fedcspack.aggregation import GlobalMask, ServerState, aggregate, selective_pull
from fedcspack.config import config_from_dict
from fedcspack.model import Batch, FlatParams, ShapeSpec, init_params, local_train
from fedcspack.packing import (
    ceil_share, least_k, package_kl, package_views, score_packages, select_topk
)
from fedcspack.partition import (
    Dataset, PartitionSpec, _split_train_test, make_partition, synth_blobs
)
from fedcspack.wire import PackedUpdate, decode_update, encode_update

WIDE = ShapeSpec([256, 256, 10])  # d = 68,362
DESK = ShapeSpec([32, 64, 10])  # d = 2,762
IDX = ShapeSpec([64, 64, 10])  # d = 4,810, the fedprox-idx model


def client_data(rows: int, dim: int, classes: int) -> Batch:
    rng = np.random.default_rng(0)
    return Batch(rng.random((rows, dim), dtype=np.float32), rng.integers(0, classes, size=rows))


@pytest.mark.parametrize(
    "widths, rows, epochs, batch_size, prox_mu",
    [
        pytest.param([256, 256, 10], 40, 1, 16, 0.0, id="d68362"),
        pytest.param([64, 64, 10], 400, 3, 32, 0.01, id="d4810-prox"),
    ],
)
def test_local_train(benchmark, widths, rows, epochs, batch_size, prox_mu):
    shape = ShapeSpec(widths)
    params = init_params(shape, 0)
    data = client_data(rows, widths[0], widths[-1])
    benchmark(
        lambda: local_train(
            params,
            data,
            epochs=epochs,
            lr=0.2,
            batch_size=batch_size,
            rng=np.random.default_rng(1),
            prox_mu=prox_mu,
        )
    )


def sparse_update(shape: ShapeSpec, pack: int, count: int) -> PackedUpdate:
    """`count` random packages of one client, their payload gathered from
    one full-size delta as a client builds it."""
    layout = package_views(shape.total_params, pack)
    rng = np.random.default_rng(0)
    delta = rng.normal(scale=0.01, size=shape.total_params).astype(np.float32)
    chosen = np.sort(rng.choice(layout.num_packages, size=count, replace=False))
    return PackedUpdate(
        client_id=3,
        round=0,
        pack=pack,
        packages=chosen,
        theta=np.full(count, 0.5),
        beta=np.full(count, 0.1),
        lengths=layout.lengths[chosen],
        payload=layout.gather(delta, chosen),
    )


# (shape, pack, entries) of one client update in the topk-desk and
# fedcspack-wide workloads
UPDATE_SHAPES = [
    # MLP 32-64-10 (d = 2,762) at pack 1: 276 one-value entries
    pytest.param(DESK, 1, 276, id="topk-desk-276x1"),
    # 99 of the 535 packages of 128: about what one fedcspack-wide
    # client sends in a round
    pytest.param(WIDE, 128, 99, id="wide-99x128"),
]


@pytest.mark.parametrize("shape, pack, count", UPDATE_SHAPES)
def test_encode_update(benchmark, shape, pack, count):
    update = sparse_update(shape, pack, count)
    blob = benchmark(encode_update, update)
    assert len(blob) == update.encoded_length()


@pytest.mark.parametrize("shape, pack, count", UPDATE_SHAPES)
def test_decode_update(benchmark, shape, pack, count):
    update = sparse_update(shape, pack, count)
    blob = encode_update(update)
    decoded = benchmark(decode_update, blob)
    assert len(decoded.packages) == count and len(decoded.payload) == len(update.payload)


def model_pair(shape: ShapeSpec):
    global_ = init_params(shape, 0)
    rng = np.random.default_rng(1)
    noise = rng.normal(scale=0.01, size=shape.total_params)
    local = FlatParams((global_.values + noise).astype(np.float32), shape)
    return local, global_


# "dual" weighs each package from its theta and beta (fedcspack), None
# weighs every package 1.0 (the baselines); fedavg and fedprox fold dense
# updates, every package of every client
@pytest.mark.parametrize(
    "shape, pack, per_client, weight_mode",
    [
        pytest.param(DESK, 1, 277, "dual", id="topk-desk-10x277x1-dual"),
        pytest.param(DESK, 1, 277, None, id="topk-desk-10x277x1-None"),
        pytest.param(WIDE, 128, 134, "dual", id="wide-10x134x128-dual"),
        pytest.param(WIDE, 128, 134, None, id="wide-10x134x128-None"),
        pytest.param(WIDE, 128, 535, None, id="wide-dense-10x535x128-None"),
        pytest.param(IDX, 128, 38, None, id="fedprox-idx-dense-10x38x128-None"),
    ],
)
def test_aggregate(benchmark, shape, pack, per_client, weight_mode):
    layout = package_views(shape.total_params, pack)
    rng = np.random.default_rng(0)
    server = ServerState(init_params(shape, 0), GlobalMask(np.ones(layout.num_packages)))
    updates = []
    for cid in range(10):
        packages = np.sort(rng.choice(layout.num_packages, size=per_client, replace=False))
        lengths = layout.lengths[packages]
        payload = rng.normal(scale=0.01, size=lengths.sum()).astype(np.float32)
        theta = rng.uniform(-1.0, 1.0, size=per_client).astype(np.float32)
        beta = rng.uniform(0.0, 0.5, size=per_client).astype(np.float32)
        updates.append(PackedUpdate(cid, 0, pack, packages, theta, beta, lengths, payload))
    benchmark(aggregate, server, updates, layout, weight_mode)


@pytest.mark.parametrize(
    "shape, pack, count",
    [
        pytest.param(DESK, 1, 277, id="topk-desk-277x1"),
        pytest.param(WIDE, 128, 134, id="wide-134x128"),
    ],
)
def test_server_ingest(benchmark, shape, pack, count):
    """One client's blob through the server boundary: decode, header,
    index, length, theta/beta and payload finiteness checks."""
    update = sparse_update(shape, pack, count)
    blob = encode_update(update)
    layout = package_views(shape.total_params, pack)
    ingested = benchmark(protocol._server_ingest, blob, update.client_id, 0, layout)
    assert len(ingested.packages) == count and len(ingested.payload) == len(update.payload)


def widened_pair(shape: ShapeSpec):
    """model_pair's two models as the float64 vectors a client scores."""
    return tuple(p.values.astype(np.float64) for p in model_pair(shape))


def test_score_packages_wide(benchmark):
    local64, global64 = widened_pair(WIDE)
    layout = package_views(WIDE.total_params, 128)
    profile = benchmark(score_packages, local64, global64, layout)
    assert profile.num_packages == 535


def test_package_kl_wide(benchmark):
    """The beta of the packages one fedcspack-wide client sends: the
    cap-0.25 selection, the 10-element tail package among them."""
    local64, global64 = widened_pair(WIDE)
    layout = package_views(WIDE.total_params, 128)
    chosen = select_topk(score_packages(local64, global64, layout), 0.25)
    assert len(chosen) == 134 and chosen[-1] == layout.num_packages - 1
    beta = benchmark(package_kl, local64, global64, layout, chosen)
    assert len(beta) == 134


@pytest.mark.parametrize(
    "with_tail", [pytest.param(False, id="134x128"), pytest.param(True, id="134x128-tail")]
)
def test_gather_wide(benchmark, with_tail):
    """The payload of one fedcspack-wide client: 134 of the 535 packages (the
    cap-0.25 selection), the 10-element tail package among them or not."""
    layout = package_views(WIDE.total_params, 128)
    rng = np.random.default_rng(0)
    delta = rng.normal(scale=0.01, size=WIDE.total_params).astype(np.float32)
    chosen = np.sort(rng.choice(layout.num_packages - 1, size=134, replace=False))
    if with_tail:
        chosen[-1] = layout.num_packages - 1
    payload = benchmark(layout.gather, delta, chosen)
    assert len(payload) == layout.lengths[chosen].sum()


def client_config(shape: ShapeSpec, **overrides):
    """The topk-desk config with `overrides`, on a model of `shape`."""
    return config_from_dict({
        **TOPK_DESK, **overrides,
        "model": {"widths": list(shape.widths), "activation": "relu"},
        "dataset": {**TOPK_DESK["dataset"], "dim": shape.input_dim},
    })


def test_client_update_wide(benchmark):
    """One fedcspack-wide client's update, the trained model widened inside
    and the global one widened once per round beforehand, as `run` does."""
    local, global_ = model_pair(WIDE)
    global64 = global_.values.astype(np.float64)
    config = client_config(WIDE, method="fedcspack", cap_ratio=0.25)
    layout = protocol.setup_run(config)[0].layout
    update = benchmark(protocol._client_update, config, 3, 0, local, global_, global64, layout)
    assert len(update.packages) == 134  # ceil(0.25 * 535): the cap binds


@pytest.mark.parametrize(
    "shape, fraction, kept",
    [
        pytest.param(DESK, 0.1, 277, id="topk-desk-d2762-0.1"),
        pytest.param(WIDE, 0.05, 3419, id="wide-d68362-0.05"),
    ],
)
def test_client_update_topk(benchmark, shape, fraction, kept):
    local, global_ = model_pair(shape)
    global64 = global_.values.astype(np.float64)
    config = client_config(shape, topk_fraction=fraction)
    layout = protocol.setup_run(config)[0].layout
    update = benchmark(protocol._client_update, config, 3, 0, local, global_, global64, layout)
    assert len(update.packages) == kept  # ceil_share(fraction, d)


def test_least_k_wide(benchmark):
    """The ranking inside a wide magnitude Top-k update: the 3,419 largest
    |delta| of the wide model, as `_client_update` ranks them."""
    local, global_ = model_pair(WIDE)
    keys = -np.abs(np.subtract(local.values, global_.values, dtype=np.float64))
    kept = benchmark(least_k, keys, ceil_share(0.05, len(keys)))
    assert len(kept) == 3419


def pull_inputs(pack: int, valid_share: float):
    """A wide local and global model, the wide layout at `pack` and a mask
    with about `valid_share` of its packages valid."""
    local, global_ = model_pair(WIDE)
    layout = package_views(WIDE.total_params, pack)
    totals = np.where(np.random.default_rng(2).random(layout.num_packages) < valid_share, 1.0, 0.0)
    return local, global_, GlobalMask(totals), layout


def test_selective_pull_wide(benchmark):
    benchmark(selective_pull, *pull_inputs(128, 0.5))


def test_selective_pull_wide_pack1(benchmark):
    """Magnitude Top-k's scattered case: pack 1, 37% of the coordinates
    valid (topk-desk reads a valid share of 0.367-0.382)."""
    local, global_, mask, layout = pull_inputs(1, 0.37)
    pulled = benchmark(selective_pull, local, global_, mask, layout)
    assert np.array_equal(pulled.values, np.where(mask.valid, global_.values, local.values))


def evaluate_wide(benchmark, pack: int, valid_share: float):
    """A fedcspack run's set-up on the wide model at `pack`, over blobs
    dealt to 20 Dirichlet clients."""
    config = client_config(
        WIDE, method="fedcspack", pack=pack,
        partition={"law": "dirichlet", "num_clients": 20, "seed": 5, "alpha": 1.0},
    )
    setup = protocol.setup_run(config, synth_blobs(10, 256, 100, 0.1, 0))[0]
    local, global_, mask, layout = pull_inputs(pack, valid_share)
    server = ServerState(global_, mask)
    _, _, per_client = benchmark(protocol.evaluate, setup, server, [local] * 20)
    assert len(per_client) == 20


def test_evaluate_wide(benchmark):
    """One fedcspack-wide round's evaluation: the pooled global forward and
    each of 20 clients' pull and forward on its own test rows, half of the
    global packages valid."""
    evaluate_wide(benchmark, 128, 0.5)


def test_evaluate_wide_pack1(benchmark):
    """The same evaluation at pack 1 with 37% of the coordinates valid, the
    scattered case a magnitude Top-k round evaluates."""
    evaluate_wide(benchmark, 1, 0.37)


# (rows per class of 10, spec): the partitions of topk-desk (about 180
# (client, label) segments) and fedprox-idx (60 segments)
PARTITIONS = [
    pytest.param(
        100, PartitionSpec(law="dirichlet", num_clients=20, seed=5, alpha=1.0),
        id="dirichlet-20x1000",
    ),
    pytest.param(
        1000, PartitionSpec(law="pathological", num_clients=20, seed=5, shards_per_client=3),
        id="pathological-20x3x10000",
    ),
]


def label_only(rows_per_class: int) -> Dataset:
    labels = np.repeat(np.arange(10), rows_per_class)
    return Dataset(np.zeros((len(labels), 1), dtype=np.float32), labels, 10)


@pytest.mark.parametrize("rows_per_class, spec", PARTITIONS)
def test_make_partition(benchmark, rows_per_class, spec):
    data = label_only(rows_per_class)
    partition = benchmark(make_partition, data, spec)
    assert sum(len(rows) for rows in partition.assignment) == len(data)


@pytest.mark.parametrize("rows_per_class, spec", PARTITIONS)
def test_split_train_test(benchmark, rows_per_class, spec):
    """The holdout alone, on the clients' rows that `make_partition`
    hands it and a fresh generator each call."""
    data = label_only(rows_per_class)
    assignment = make_partition(data, spec).assignment
    train, test = benchmark(
        lambda: _split_train_test(
            assignment, data.labels, spec.test_fraction, np.random.default_rng(spec.seed)
        )
    )
    assert sum(len(rows) for rows in train + test) == len(data)


def test_synth_blobs_wide(benchmark):
    data = benchmark(synth_blobs, 10, 256, 100, 0.1, 0)
    assert data.features.shape == (1000, 256)


def test_init_params_wide(benchmark):
    params = benchmark(init_params, WIDE, 0)
    assert len(params.values) == 68_362


# one topk-desk input: MLP 32-64-10, 20 Dirichlet clients over 10 x 100 blobs
TOPK_DESK = {
    "method": "magnitude_topk", "rounds": 12, "clients": 20, "cpr": 0.5,
    "local_epochs": 2, "lr": 0.2, "batch_size": 32, "pack": 128, "seed": 1,
    "topk_fraction": 0.1,
    "partition": {"law": "dirichlet", "num_clients": 20, "seed": 2, "alpha": 1.0},
    "model": {"widths": [32, 64, 10], "activation": "relu"},
    "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32,
                "samples_per_class": 100, "spread": 0.2, "seed": 3},
}


# desk as in topk-desk; wide with fedcspack-wide's training (1 epoch,
# batch 16) and cap (0.25)
ROUND_SCALES = {
    "desk": (DESK, {}),
    "wide": (WIDE, dict(local_epochs=1, batch_size=16, cap_ratio=0.25)),
}


@pytest.mark.parametrize("scale", ROUND_SCALES)
@pytest.mark.parametrize("method", ["fedcspack", "fedavg", "fedprox", "magnitude_topk"])
def test_round_step(benchmark, method, scale):
    """One whole round, t = 2 after two rounds folded: sampling, pulls,
    training, updates, ingest, the fold, broadcast metering and evaluation.
    Each call starts from the same state, with a fresh copy of the local
    models."""
    shape, overrides = ROUND_SCALES[scale]
    config = client_config(shape, method=method, prox_mu=0.01, **overrides)
    setup, server, locals_ = protocol.setup_run(config)
    for t in range(2):
        server, _, _ = protocol.round_step(setup, server, locals_, t)
    _, metrics, _ = benchmark.pedantic(
        protocol.round_step, setup=lambda: ((setup, server, list(locals_), 2), {}), rounds=10
    )
    assert len(metrics.participants) == 10


class SetupDone(Exception):
    """Raised once init_params returns: the run's set-up is over."""


def test_cli_setup(benchmark, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOPK_DESK))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    init_params = protocol.init_params

    def stop_after(*args, **kwargs):
        init_params(*args, **kwargs)
        raise SetupDone

    monkeypatch.setattr(protocol, "init_params", stop_after)

    def setup():
        try:
            cli.main(argv)
        except SetupDone:
            return
        raise AssertionError("run returned without calling init_params")

    benchmark(setup)
