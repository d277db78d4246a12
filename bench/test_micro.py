"""Kernel micro-benchmarks (pytest-benchmark), kept out of the test suite:

    PYTHONPATH=src python -m pytest bench --benchmark-only

Shapes follow the perfbench workloads: one client's local training on the
wide model (fedcspack-wide) and on the IDX model with the proximal term
(fedprox-idx), and the decode of one magnitude Top-k update at desk scale
(topk-desk).
"""

import numpy as np
import pytest

from fedcspack.model import Batch, ShapeSpec, init_params, local_train
from fedcspack.wire import PackedUpdate, UpdateEntry, decode_update, encode_update


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


def test_decode_topk_update(benchmark):
    # MLP 32-64-10 (d = 2,762) at pack 1: 276 one-value entries
    rng = np.random.default_rng(0)
    chosen = np.sort(rng.choice(2762, size=276, replace=False))
    entries = tuple(
        UpdateEntry(int(j), 1.0, 0.0, rng.normal(size=1).astype(np.float32)) for j in chosen
    )
    blob = encode_update(PackedUpdate(client_id=3, round=0, pack=1, entries=entries))
    update = benchmark(decode_update, blob)
    assert len(update.entries) == 276
