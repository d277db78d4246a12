"""Kernel micro-benchmarks (pytest-benchmark), kept out of the test suite:

    PYTHONPATH=src python -m pytest bench --benchmark-only

Shapes follow the perfbench workloads: one client's local training on the
wide model (fedcspack-wide) and on the IDX model with the proximal term
(fedprox-idx), the encode and decode of one client update in the
magnitude Top-k shape at desk scale (topk-desk) and in the fedcspack shape
of the wide model (fedcspack-wide), one round's aggregation of 10 client
updates in those two shapes, and package scoring and selective pull on the
wide model.
"""

import numpy as np
import pytest

from fedcspack.aggregation import ClientUpdate, GlobalMask, ServerState, aggregate, selective_pull
from fedcspack.model import Batch, FlatParams, ShapeSpec, init_params, local_train
from fedcspack.packing import package_views, score_packages
from fedcspack.wire import PackedUpdate, decode_update, encode_update

WIDE = ShapeSpec.from_widths([256, 256, 10])  # d = 68,362
DESK = ShapeSpec.from_widths([32, 64, 10])  # d = 2,762


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
    shape = ShapeSpec.from_widths(widths)
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
            anchor=params if prox_mu > 0 else None,
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


def wide_pair():
    global_ = init_params(WIDE, 0)
    rng = np.random.default_rng(1)
    local = FlatParams(global_.values + rng.normal(scale=0.01, size=WIDE.total_params), WIDE)
    return local, global_


@pytest.mark.parametrize(
    "shape, pack, per_client",
    [
        pytest.param(DESK, 1, 277, id="topk-desk-10x277x1"),
        pytest.param(WIDE, 128, 134, id="wide-10x134x128"),
    ],
)
def test_aggregate(benchmark, shape, pack, per_client):
    layout = package_views(shape.total_params, pack)
    rng = np.random.default_rng(0)
    server = ServerState(init_params(shape, 0), GlobalMask.all_valid(layout.num_packages))
    updates = []
    for cid in range(10):
        packages = np.sort(rng.choice(layout.num_packages, size=per_client, replace=False))
        payload = rng.normal(scale=0.01, size=layout.lengths[packages].sum()).astype(np.float32)
        updates.append(ClientUpdate(cid, packages, rng.uniform(0.5, 1.5, size=per_client), payload))
    result = benchmark(aggregate, server, updates, layout)
    assert result.violations == 0


def test_score_packages_wide(benchmark):
    local, global_ = wide_pair()
    layout = package_views(WIDE.total_params, 128)
    profile = benchmark(score_packages, local, global_, layout)
    assert profile.num_packages == 535


def test_selective_pull_wide(benchmark):
    local, global_ = wide_pair()
    layout = package_views(WIDE.total_params, 128)
    totals = np.where(np.random.default_rng(2).random(layout.num_packages) < 0.5, 1.0, 0.0)
    benchmark(selective_pull, local, global_, GlobalMask(totals), layout)
