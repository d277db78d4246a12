"""Reference oracle: the allocating SGD path that the in-place kernels in
fedcspack.model replace.

Each step casts every layer on its own, concatenates the per-layer
gradients, builds a fresh FlatParams (with its finiteness check) and
round-trips the weights through new float32/float64 arrays, exactly as the
simulator used to, so `np.array_equal` against it proves a kernel bit for
bit.
"""

from __future__ import annotations

import numpy as np

from fedcspack.errors import NumericError, ShapeError
from fedcspack.model import Batch, FlatParams, ShapeSpec


def unflatten(params: FlatParams) -> list[tuple[np.ndarray, np.ndarray]]:
    layers = []
    off = 0
    for fan_in, fan_out in params.shape.layer_dims:
        w = params.values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params.values[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def _forward(params: FlatParams, features: np.ndarray):
    if features.shape[1] != params.shape.input_dim:
        raise ShapeError(
            f"feature dim {features.shape[1]} != model input {params.shape.input_dim}"
        )
    layers = unflatten(params)
    x = features.astype(np.float64)
    inputs = []
    for k, (w, b) in enumerate(layers):
        inputs.append(x)
        x = x @ w.astype(np.float64) + b.astype(np.float64)
        if k < len(layers) - 1 and params.shape.activation == "relu":
            x = np.maximum(x, 0.0)
    return x, inputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_loss(params: FlatParams, batch: Batch) -> tuple[float, int]:
    logits, _ = _forward(params, batch.features)
    logp = _log_softmax(logits)
    n = len(batch)
    loss = -float(logp[np.arange(n), batch.labels].sum()) / n
    correct = int((logits.argmax(axis=1) == batch.labels).sum())
    return loss, correct


def gradient(params: FlatParams, batch: Batch) -> np.ndarray:
    logits, inputs = _forward(params, batch.features)
    layers = unflatten(params)
    n = len(batch)

    probs = np.exp(_log_softmax(logits))
    delta = probs
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    grads: list[np.ndarray] = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        w, _ = layers[k]
        x = inputs[k]
        gw = x.T @ delta
        gb = delta.sum(axis=0)
        grads[k] = np.concatenate([gw.ravel(), gb])
        if k > 0:
            delta = delta @ w.astype(np.float64).T
            if params.shape.activation == "relu":
                delta = delta * (inputs[k] > 0.0)
    return np.concatenate(grads)


def _offending_layer(shape: ShapeSpec, flat: np.ndarray) -> int:
    bad = int(np.flatnonzero(~np.isfinite(flat))[0])
    off = 0
    for k, (i, o) in enumerate(shape.layer_dims):
        off += i * o + o
        if bad < off:
            return k
    return len(shape.layer_dims) - 1


def sgd_step(params: FlatParams, batch: Batch, lr: float) -> FlatParams:
    if lr < 0:
        raise ValueError("lr must be >= 0")
    g = gradient(params, batch)
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient in layer {_offending_layer(params.shape, g)}")
    new = params.values.astype(np.float64) - lr * g
    return FlatParams(new.astype(np.float32), params.shape)


def local_train(
    params: FlatParams,
    data: Batch,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
    anchor: FlatParams | None = None,
) -> FlatParams:
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if prox_mu < 0:
        raise ValueError("prox_mu must be >= 0")
    if prox_mu > 0 and anchor is None:
        raise ValueError("prox_mu > 0 requires an anchor")

    w = params.values.astype(np.float64)
    anchor64 = anchor.values.astype(np.float64) if anchor is not None else None
    n = len(data)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            mb = Batch(data.features[idx], data.labels[idx])
            current = FlatParams(w.astype(np.float32), params.shape)
            g = gradient(current, mb)
            if prox_mu > 0:
                g = g + prox_mu * (w - anchor64)
            if not np.all(np.isfinite(g)):
                raise NumericError(
                    f"non-finite gradient in layer {_offending_layer(params.shape, g)}"
                )
            w = current.values.astype(np.float64) - lr * g
            w = w.astype(np.float32).astype(np.float64)
    return FlatParams(w.astype(np.float32), params.shape)
