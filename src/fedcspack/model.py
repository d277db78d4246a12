"""Flat-vector classifier family: multinomial logistic regression and a
1-hidden-layer MLP, trained with plain minibatch SGD.

Parameters live in a single float32 vector so the packaging/aggregation
machinery can treat every model uniformly.  Flatten order is fixed:
layer-major, weight matrix row-major (fan-in rows), then bias.  Package
indices depend on this order, so it must never change.

Losses, dot products and gradients are accumulated in float64; the stored
parameters stay float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, require_int

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class ShapeSpec:
    """Architecture descriptor: the width chain input, hidden..., output,
    e.g. (32, 64, 10) for an MLP with one hidden layer of 64."""

    widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if not isinstance(self.widths, (list, tuple)):
            raise ShapeError(f"model.widths must be a list, got {self.widths!r}")
        if len(self.widths) < 2:
            raise ShapeError("need at least input and output widths")
        for i, width in enumerate(self.widths):
            require_int(f"model.widths[{i}]", width, 1)
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) of each layer, in flatten order."""
        return tuple(zip(self.widths, self.widths[1:]))

    @property
    def total_params(self) -> int:
        return sum(i * o + o for i, o in self.layer_dims)

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def input_dim(self) -> int:
        return self.widths[0]


@dataclass(frozen=True)
class FlatParams:
    """One-dimensional float32 parameter vector plus its shape.  It holds the
    array it is given, not a copy, and makes it read-only, so holders share it."""

    values: np.ndarray
    shape: ShapeSpec

    def __post_init__(self):
        v, d = self.values, self.shape.total_params
        if v.dtype != np.float32 or v.shape != (d,):
            raise ShapeError(f"expected {d} float32 params, got {v.dtype} of shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NumericError("non-finite parameter values")
        v.flags.writeable = False


@dataclass(frozen=True)
class Batch:
    """Feature matrix (rows = samples, at least one) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError("features must be 2-D")
        if len(self.features) != len(self.labels):
            raise ShapeError("features/labels row count mismatch")
        if len(self.features) == 0:
            raise ShapeError("empty batch")

    def __len__(self) -> int:
        return len(self.features)


def _layers(values: np.ndarray, shape: ShapeSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of a flat vector per layer, in flatten order."""
    layers, off = [], 0
    for fan_in, fan_out in shape.layer_dims:
        w = values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        layers.append((w, values[off : off + fan_out]))
        off += fan_out
    return layers


def init_params(shape: ShapeSpec, seed: int) -> FlatParams:
    """Seeded Gaussian init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    values = np.zeros(shape.total_params, dtype=np.float32)
    for w, _ in _layers(values, shape):
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), size=w.shape)
    return FlatParams(values, shape)


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], shape: ShapeSpec, features: np.ndarray):
    """Run the network over float64 layer views, returning logits and
    per-layer inputs."""
    if features.shape[1] != shape.input_dim:
        raise ShapeError(f"feature dim {features.shape[1]} != model input {shape.input_dim}")
    x = features.astype(np.float64)
    inputs = []
    for k, (w, b) in enumerate(layers):
        inputs.append(x)
        x = x @ w
        x += b
        if k < len(layers) - 1 and shape.activation == "relu":
            np.maximum(x, 0.0, out=x)
    return x, inputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_loss(params: FlatParams, batch: Batch) -> tuple[float, int]:
    """Mean cross-entropy and count of argmax-correct predictions."""
    layers = _layers(params.values.astype(np.float64), params.shape)
    logits, _ = _forward(layers, params.shape, batch.features)
    logp = _log_softmax(logits)
    n = len(batch)
    loss = -float(logp[np.arange(n), batch.labels].sum()) / n
    correct = int((logits.argmax(axis=1) == batch.labels).sum())
    return loss, correct


def gradient(
    w: np.ndarray, batch: Batch, shape: ShapeSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, as a flat float64 vector.

    `w` is a float64 vector of float32 values laid out as `shape` (read as
    is, not cast).  Each layer's weight and bias gradients are written
    straight into their slices of `out` (a new vector when None).
    """
    layers = _layers(w, shape)
    logits, inputs = _forward(layers, shape, batch.features)
    n = len(batch)

    delta = np.exp(_log_softmax(logits))
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    if out is None:
        out = np.empty(shape.total_params)
    grads = _layers(out, shape)
    for k in range(len(layers) - 1, -1, -1):
        gw, gb = grads[k]
        np.matmul(inputs[k].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if k > 0:
            delta = delta @ layers[k][0].T
            if shape.activation == "relu":
                # inputs[k] is post-activation output of layer k-1
                delta *= inputs[k] > 0.0
    return out


def _offending_layer(shape: ShapeSpec, flat: np.ndarray) -> int:
    """The first layer whose weight or bias view holds a non-finite value;
    layers are contiguous, so it holds the first non-finite element."""
    for k, (w, b) in enumerate(_layers(flat, shape)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            return k


def local_train(
    params: FlatParams,
    data: Batch,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
) -> FlatParams:
    """Minibatch SGD over `epochs` full passes in a seeded shuffle order.

    With prox_mu > 0 a proximal pull toward the start model `params`
    (mu/2 * ||w - params||^2) is added to each minibatch objective.  The
    full-size buffers are allocated once per call and updated in place by
    every step: float64 weights `w` holding float32 values, the gradient
    `g`, float32 weights `w32` and, with prox_mu > 0 only, a proximal
    scratch (float32 start values widen exactly: no float64 copy needed).
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if prox_mu < 0:
        raise ValueError("prox_mu must be >= 0")

    shape = params.shape
    w = params.values.astype(np.float64)
    w32 = np.empty_like(params.values)
    g = np.empty_like(w)
    scratch = np.empty_like(w) if prox_mu > 0 else None
    n = len(data)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            gradient(w, Batch(data.features[idx], data.labels[idx]), shape, out=g)
            if scratch is not None:
                np.subtract(w, params.values, out=scratch)
                scratch *= prox_mu
                g += scratch
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in layer {_offending_layer(shape, g)}")
            g *= lr
            w -= g
            # float32 round-trip per step keeps training bit-reproducible
            w32[...] = w
            w[...] = w32
            if not np.isfinite(w32).all():
                raise NumericError("non-finite parameter values")
    return FlatParams(w32, shape)
