import math

import numpy as np
import pytest

import model_oracle as oracle
from fedcspack.errors import EmptyDataError, ShapeError
from fedcspack.model import (
    Batch,
    FlatParams,
    ShapeSpec,
    forward_loss,
    gradient,
    init_params,
    local_train,
)


def random_batch(rng, n, dim, classes):
    return Batch(
        rng.normal(size=(n, dim)).astype(np.float32),
        rng.integers(0, classes, size=n),
    )


def test_shape_spec_total_params():
    spec = ShapeSpec([32, 64, 10])
    assert spec.total_params == 32 * 64 + 64 + 64 * 10 + 10
    assert spec.num_classes == 10


def test_shape_spec_layer_dims_from_widths():
    spec = ShapeSpec((4, 8, 2))
    assert spec.layer_dims == ((4, 8), (8, 2))
    # a width list is kept as a tuple, so equal chains give equal, hashable specs
    assert ShapeSpec([4, 8, 2]) == spec and hash(ShapeSpec([4, 8, 2])) == hash(spec)


def test_flat_params_length_checked():
    spec = ShapeSpec([4, 2])
    with pytest.raises(ShapeError):
        FlatParams(np.zeros(7, dtype=np.float32), spec)
    # float32 only: another dtype of the right length is refused, not cast
    for dtype in (np.float64, np.float16):
        with pytest.raises(ShapeError, match=np.dtype(dtype).name):
            FlatParams(np.zeros(spec.total_params, dtype=dtype), spec)
    # the array is held, not copied, and read-only
    values = np.zeros(spec.total_params, dtype=np.float32)
    params = FlatParams(values, spec)
    assert params.values is values
    with pytest.raises(ValueError, match="read-only"):
        params.values[0] = 1.0


def test_zero_weights_give_uniform_softmax_loss():
    spec = ShapeSpec([8, 10])
    params = FlatParams(np.zeros(spec.total_params, dtype=np.float32), spec)
    rng = np.random.default_rng(0)
    loss, _ = forward_loss(params, random_batch(rng, 16, 8, 10))
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_saturated_model_drives_loss_to_zero():
    # logistic regression on a single 1-feature sample with a huge margin
    spec = ShapeSpec([1, 2])
    params = FlatParams(np.array([-50.0, 50.0, 0.0, 0.0], dtype=np.float32), spec)
    batch = Batch(np.array([[1.0]], dtype=np.float32), np.array([1]))
    loss, correct = forward_loss(params, batch)
    assert loss < 1e-8
    assert correct == 1


def test_loss_matches_scalar_reimplementation():
    # independent straight-line oracle: pure-python scalar softmax CE
    spec = ShapeSpec([5, 4, 3])
    params = init_params(spec, seed=7)
    rng = np.random.default_rng(7)
    batch = random_batch(rng, 4, 5, 3)

    layers = oracle.unflatten(params)
    total = 0.0
    for r in range(4):
        x = [float(v) for v in batch.features[r]]
        for k, (w, b) in enumerate(layers):
            out = []
            for j in range(w.shape[1]):
                s = float(b[j])
                for i in range(w.shape[0]):
                    s += x[i] * float(w[i, j])
                out.append(s)
            if k < len(layers) - 1:
                out = [max(v, 0.0) for v in out]
            x = out
        m = max(x)
        z = sum(math.exp(v - m) for v in x)
        total += -(x[batch.labels[r]] - m - math.log(z))
    expected = total / 4

    loss, _ = forward_loss(params, batch)
    assert loss == pytest.approx(expected, abs=1e-10)


def test_forward_loss_permutation_invariant():
    spec = ShapeSpec([6, 8, 4])
    params = init_params(spec, seed=3)
    rng = np.random.default_rng(5)
    batch = random_batch(rng, 12, 6, 4)
    perm = rng.permutation(12)
    shuffled = Batch(batch.features[perm], batch.labels[perm])
    assert forward_loss(params, batch)[0] == pytest.approx(
        forward_loss(params, shuffled)[0], rel=1e-12
    )


def test_forward_loss_shape_error():
    spec = ShapeSpec([6, 4])
    params = init_params(spec, seed=1)
    with pytest.raises(ShapeError):
        forward_loss(params, Batch(np.zeros((2, 5), dtype=np.float32), np.array([0, 1])))


def test_logistic_gradient_matches_hand_computation():
    # 1-feature, 2-class softmax regression, one sample: grad_wc = (p_c - y_c) x
    spec = ShapeSpec([1, 2])
    w = np.array([0.3, -0.2, 0.1, 0.05], dtype=np.float32)
    params = FlatParams(w, spec)
    x, y = 1.7, 1
    batch = Batch(np.array([[x]], dtype=np.float32), np.array([y]))

    logits = [float(w[0]) * x + float(w[2]), float(w[1]) * x + float(w[3])]
    m = max(logits)
    e = [math.exp(v - m) for v in logits]
    p = [v / sum(e) for v in e]
    expected = np.array([p[0] * x, (p[1] - 1) * x, p[0], p[1] - 1])

    g = gradient(params.values.astype(np.float64), batch, params.shape)
    assert np.allclose(g, expected, atol=1e-12)


def central_difference(params, batch, coord):
    plus = params.values.copy()
    minus = params.values.copy()
    plus[coord] += 1e-4
    minus[coord] -= 1e-4
    lp, _ = forward_loss(FlatParams(plus, params.shape), batch)
    lm, _ = forward_loss(FlatParams(minus, params.shape), batch)
    # use the realized float32 spacing, not the nominal h
    h = float(plus[coord]) - float(minus[coord])
    return (lp - lm) / h


def test_gradient_against_finite_differences():
    spec = ShapeSpec([6, 10, 4])
    rng = np.random.default_rng(42)
    params = init_params(spec, seed=4)
    batch = random_batch(rng, 10, 6, 4)
    g = gradient(params.values.astype(np.float64), batch, params.shape)
    coords = rng.choice(spec.total_params, size=32, replace=False)
    for c in coords:
        fd = central_difference(params, batch, c)
        scale = max(abs(fd), abs(g[c]), 1e-4)
        assert abs(g[c] - fd) / scale < 1e-3


def test_local_train_degenerate_schedule_is_one_step():
    spec = ShapeSpec([5, 3])
    params = init_params(spec, seed=8)
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 6, 5, 3)
    out = local_train(
        params, batch, epochs=1, lr=0.1, batch_size=100, rng=np.random.default_rng(0)
    )
    ref = oracle.sgd_step(params, batch, lr=0.1)
    assert np.allclose(out.values, ref.values, rtol=1e-6, atol=1e-7)


def test_local_train_prox_dominance():
    # the proximal term anchors on the start model: a strong pull keeps the
    # trained model far closer to it than plain SGD over the same batches
    spec = ShapeSpec([4, 6, 3])
    params = init_params(spec, seed=10)
    rng = np.random.default_rng(2)
    batch = random_batch(rng, 8, 4, 3)

    def drift(prox_mu):
        out = local_train(
            params,
            batch,
            epochs=20,
            lr=0.1,
            batch_size=4,
            rng=np.random.default_rng(0),
            prox_mu=prox_mu,
        )
        return np.linalg.norm(out.values - params.values)

    assert drift(5.0) < 0.2 * drift(0.0)


def test_local_train_deterministic():
    spec = ShapeSpec([5, 8, 3])
    params = init_params(spec, seed=6)
    rng = np.random.default_rng(3)
    batch = random_batch(rng, 20, 5, 3)
    a = local_train(params, batch, 3, 0.05, 4, np.random.default_rng(77))
    b = local_train(params, batch, 3, 0.05, 4, np.random.default_rng(77))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "features, labels, message",
    [
        (np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.int64), "features must be 2-D"),
        (np.zeros((3, 2), dtype=np.float32), np.zeros(2, dtype=np.int64),
         "features/labels row count mismatch"),
    ],
)
def test_bad_batch_rejected(features, labels, message):
    with pytest.raises(ShapeError, match=message):
        Batch(features, labels)


def test_forward_loss_empty_batch():
    params = init_params(ShapeSpec([3, 2]), seed=1)
    empty = Batch(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64))
    with pytest.raises(ShapeError, match="empty batch"):
        forward_loss(params, empty)


@pytest.mark.parametrize(
    "epochs, prox_mu, message",
    [(0, 0.0, "epochs must be >= 1"), (1, -0.1, "prox_mu must be >= 0")],
)
def test_local_train_bad_arguments(epochs, prox_mu, message):
    params = init_params(ShapeSpec([3, 2]), seed=1)
    batch = random_batch(np.random.default_rng(0), 4, 3, 2)
    with pytest.raises(ValueError, match=message):
        local_train(params, batch, epochs, 0.1, 4, np.random.default_rng(0), prox_mu=prox_mu)


def test_local_train_empty_data():
    spec = ShapeSpec([3, 2])
    params = init_params(spec, seed=1)
    empty = Batch(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptyDataError):
        local_train(params, empty, 1, 0.1, 4, np.random.default_rng(0))
