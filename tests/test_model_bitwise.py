"""The in-place SGD kernels against the allocating reference in
tests/model_oracle.py: exact equality (same values, same bytes), the same
errors at the same step, and a bounded heap peak per local_train call."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedcspack.model as model
import model_oracle as oracle
from fedcspack.errors import NumericError
from fedcspack.model import (
    Batch,
    FlatParams,
    ShapeSpec,
    forward_loss,
    gradient,
    init_params,
    local_train,
)
from fedcspack.wire import PackedUpdate, decode_update, encode_update


def assert_same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def make_data(seed: int, n: int, dim: int, classes: int, dtype=np.float32) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(rng.normal(size=(n, dim)).astype(dtype), rng.integers(0, classes, size=n))


@st.composite
def training_cases(draw):
    depth = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 12))]
    widths += [draw(st.integers(1, 16)) for _ in range(depth - 1)]
    widths.append(draw(st.integers(2, 6)))
    shape = ShapeSpec(widths, draw(st.sampled_from(["relu", "identity"])))
    n = draw(st.integers(1, 40))
    return dict(
        shape=shape,
        n=n,
        batch_size=draw(st.integers(1, n + 5)),
        epochs=draw(st.integers(1, 3)),
        lr=draw(st.floats(0.01, 1.0)),
        prox_mu=draw(st.sampled_from([0.0, 0.01, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )


def case(widths, activation, n, batch_size, epochs, prox_mu, lr=0.3, seed=5):
    shape = ShapeSpec(widths, activation)
    return dict(
        shape=shape, n=n, batch_size=batch_size, epochs=epochs, lr=lr,
        prox_mu=prox_mu, seed=seed,
    )


def outcome(fn, *args, **kwargs):
    """The result of a call, or the message of the NumericError it raised."""
    try:
        return fn(*args, **kwargs)
    except NumericError as exc:
        return str(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(training_cases())
@example(case([4, 3], "relu", n=7, batch_size=3, epochs=3, prox_mu=0.5))  # logistic, ragged
@example(case([5, 6, 4, 3], "identity", n=5, batch_size=1, epochs=2, prox_mu=0.0))
@example(case([3, 8, 2], "relu", n=4, batch_size=9, epochs=1, prox_mu=0.01))  # batch > n
@example(case([9, 1, 1, 2], "identity", n=5, batch_size=1, epochs=3, prox_mu=0.0, lr=1.0, seed=0))  # diverges
def test_local_train_matches_oracle(case):
    shape = case["shape"]
    params = init_params(shape, case["seed"])
    data = make_data(case["seed"], case["n"], shape.input_dim, shape.num_classes)
    kwargs = dict(
        epochs=case["epochs"],
        lr=case["lr"],
        batch_size=case["batch_size"],
        prox_mu=case["prox_mu"],
    )
    got = outcome(local_train, params, data, rng=np.random.default_rng(case["seed"]), **kwargs)
    # the oracle is told the anchor that local_train takes: the start model
    want = outcome(
        oracle.local_train, params, data, rng=np.random.default_rng(case["seed"]),
        anchor=params if case["prox_mu"] > 0 else None, **kwargs,
    )
    if isinstance(want, str):  # training diverged: the same error
        assert got == want
    else:
        assert_same(got.values, want.values)
        assert forward_loss(got, data) == oracle.forward_loss(got, data)

    assert_same(
        gradient(params.values.astype(np.float64), data, params.shape),
        oracle.gradient(params, data),
    )


@pytest.mark.parametrize("features", [np.float32, np.float64])
def test_gradient_into_buffer_matches_oracle(features):
    shape = ShapeSpec([7, 9, 5, 3])
    params = init_params(shape, 4)
    data = make_data(4, 11, 7, 3, dtype=features)
    out = np.full(shape.total_params, np.nan)
    w64 = params.values.astype(np.float64)
    assert gradient(w64, data, shape, out=out) is out
    assert_same(out, oracle.gradient(params, data))
    assert_same(w64, params.values.astype(np.float64))


def count_calls(monkeypatch, module) -> list[int]:
    calls = [0]
    inner = module.gradient

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, "gradient", counted)
    return calls


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("prox_mu", [0.0, 0.1])
def test_overflowing_lr_fails_like_oracle(monkeypatch, prox_mu):
    shape = ShapeSpec([6, 8, 3])
    params = init_params(shape, 2)
    data = make_data(2, 20, 6, 3)
    kwargs = dict(epochs=3, lr=1e30, batch_size=4, prox_mu=prox_mu)
    ours = count_calls(monkeypatch, model)
    theirs = count_calls(monkeypatch, oracle)
    got = outcome(local_train, params, data, rng=np.random.default_rng(0), **kwargs)
    want = outcome(
        oracle.local_train, params, data, rng=np.random.default_rng(0), anchor=params, **kwargs
    )
    assert got == want == "non-finite parameter values"
    assert ours[0] == theirs[0] > 1


def test_nan_gradient_names_its_layer():
    shape = ShapeSpec([5, 4, 3])
    params = init_params(shape, 1)
    data = make_data(1, 6, 5, 3)
    data.features[2, 1] = np.nan
    kwargs = dict(epochs=1, lr=0.1, batch_size=6)
    got = outcome(local_train, params, data, rng=np.random.default_rng(0), **kwargs)
    want = outcome(oracle.local_train, params, data, rng=np.random.default_rng(0), **kwargs)
    assert got == want == "non-finite gradient in layer 0"


def boundary_positions(shape: ShapeSpec) -> list[tuple[int, int]]:
    """(layer, flat index) of the first and last weight and the first and
    last bias of every layer, read off the oracle's layer walk."""
    index = FlatParams(np.arange(shape.total_params, dtype=np.float32), shape)
    return [
        (k, int(view[i]))
        for k, (w, b) in enumerate(oracle.unflatten(index))
        for view in (w.ravel(), b)
        for i in (0, -1)
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("widths", [[5, 4, 3], [9, 1, 1, 2]], ids=str)
def test_offending_layer_at_every_boundary(widths, bad):
    shape = ShapeSpec(widths)
    for k, pos in boundary_positions(shape):
        flat = np.zeros(shape.total_params)
        flat[pos] = bad
        # a later non-finite value does not move the report
        flat[-1] = bad
        assert model._offending_layer(shape, flat) == oracle._offending_layer(shape, flat) == k


@pytest.mark.parametrize("prox_mu, vectors", [(0.0, 3), (0.01, 4)])
def test_local_train_heap_peak(prox_mu, vectors):
    # the wide benchmark model: MLP 256-256-10, d = 68,362, batch 16; the
    # bound counts float64 vectors of d, one more for the proximal scratch
    shape = ShapeSpec([256, 256, 10])
    d = shape.total_params
    params = init_params(shape, 0)
    data = make_data(0, 64, 256, 10)
    kwargs = dict(epochs=1, lr=0.1, batch_size=16, prox_mu=prox_mu)
    local_train(params, data, rng=np.random.default_rng(0), **kwargs)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        local_train(params, data, rng=np.random.default_rng(0), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= vectors * 8 * d


def test_decoded_payloads_are_read_only_views_of_the_blob():
    update = PackedUpdate(
        client_id=1,
        round=0,
        pack=5,
        packages=np.arange(2),
        theta=np.ones(2),
        beta=np.zeros(2),
        lengths=np.array([5, 3]),
        payload=np.concatenate([np.arange(5), np.ones(3)]).astype(np.float32),
    )
    for blob in (encode_update(update), bytes(encode_update(update))):
        decoded = decode_update(blob)
        assert encode_update(decoded) == blob
        view = np.frombuffer(blob, dtype=np.uint8)
        for name in ("packages", "theta", "beta", "lengths", "payload"):
            array = getattr(decoded, name)
            assert np.shares_memory(array, view), name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
