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

from .errors import EmptyDataError, NumericError, ShapeError

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class ShapeSpec:
    """Architecture descriptor: chained (fan_in, fan_out) pairs."""

    layer_dims: tuple[tuple[int, int], ...]
    activation: str = "relu"

    def __post_init__(self):
        if not self.layer_dims:
            raise ShapeError("layer_dims must be non-empty")
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        for (_, out_prev), (in_next, _) in zip(self.layer_dims, self.layer_dims[1:]):
            if out_prev != in_next:
                raise ShapeError(f"layer dims do not chain: {out_prev} -> {in_next}")
        for fan_in, fan_out in self.layer_dims:
            if fan_in < 1 or fan_out < 1:
                raise ShapeError("layer dims must be positive")

    @classmethod
    def from_widths(cls, widths: list[int] | tuple[int, ...], activation: str = "relu") -> "ShapeSpec":
        """Build from a width chain, e.g. [32, 64, 10] -> (32,64),(64,10)."""
        if len(widths) < 2:
            raise ShapeError("need at least input and output widths")
        dims = tuple((int(a), int(b)) for a, b in zip(widths, widths[1:]))
        return cls(layer_dims=dims, activation=activation)

    @property
    def total_params(self) -> int:
        return sum(i * o + o for i, o in self.layer_dims)

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1][1]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0][0]


@dataclass(frozen=True)
class FlatParams:
    """One-dimensional float32 parameter vector plus its shape."""

    values: np.ndarray
    shape: ShapeSpec

    def __post_init__(self):
        if self.values.ndim != 1 or len(self.values) != self.shape.total_params:
            raise ShapeError(
                f"expected {self.shape.total_params} params, got {self.values.shape}"
            )
        if self.values.dtype != np.float32:
            object.__setattr__(self, "values", self.values.astype(np.float32))
        if not np.all(np.isfinite(self.values)):
            raise NumericError("non-finite parameter values")

    def copy(self) -> "FlatParams":
        return FlatParams(self.values.copy(), self.shape)


@dataclass(frozen=True)
class Batch:
    """Feature matrix (rows = samples) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError("features must be 2-D")
        if len(self.features) != len(self.labels):
            raise ShapeError("features/labels row count mismatch")

    def __len__(self) -> int:
        return len(self.features)


def _layers(values: np.ndarray, shape: ShapeSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of a flat vector per layer, in flatten order."""
    layers = []
    off = 0
    for fan_in, fan_out in shape.layer_dims:
        w = values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = values[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def unflatten(params: FlatParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into (weight, bias) pairs per layer.

    Views into the underlying buffer; do not mutate.
    """
    return _layers(params.values, params.shape)


def flatten(layers: list[tuple[np.ndarray, np.ndarray]], shape: ShapeSpec) -> FlatParams:
    """Inverse of unflatten: concatenate row-major weights then bias per layer."""
    parts = []
    for w, b in layers:
        parts.append(np.asarray(w, dtype=np.float32).ravel())
        parts.append(np.asarray(b, dtype=np.float32).ravel())
    return FlatParams(np.concatenate(parts), shape)


def init_params(shape: ShapeSpec, seed: int) -> FlatParams:
    """Seeded Gaussian init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in shape.layer_dims:
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out)
        parts.append(w.astype(np.float32))
        parts.append(np.zeros(fan_out, dtype=np.float32))
    return FlatParams(np.concatenate(parts), shape)


def zeros_like(shape: ShapeSpec) -> FlatParams:
    return FlatParams(np.zeros(shape.total_params, dtype=np.float32), shape)


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
    if len(batch) == 0:
        raise ShapeError("empty batch")
    layers = _layers(params.values.astype(np.float64), params.shape)
    logits, _ = _forward(layers, params.shape, batch.features)
    logp = _log_softmax(logits)
    n = len(batch)
    loss = -float(logp[np.arange(n), batch.labels].sum()) / n
    correct = int((logits.argmax(axis=1) == batch.labels).sum())
    return loss, correct


def gradient(
    params: FlatParams | np.ndarray,
    batch: Batch,
    shape: ShapeSpec | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, as a flat float64 vector.

    `params` is a FlatParams, or a float64 vector of float32 values together
    with its `shape` (read as is, not cast).  Each layer's weight and bias
    gradients are written straight into their slices of `out` (a new
    vector when None).
    """
    if isinstance(params, FlatParams):
        shape = params.shape
        params = params.values.astype(np.float64)
    layers = _layers(params, shape)
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


def _sgd_step(
    w: np.ndarray,
    w32: np.ndarray,
    g: np.ndarray,
    batch: Batch,
    shape: ShapeSpec,
    lr: float,
    prox: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> None:
    """One SGD step in place on the float64 weights `w`, which hold float32
    values; `w32` receives the same weights as float32 and `g` is scratch.

    `prox` is (mu, anchor values, float64 scratch vector) for the proximal
    term; float32 anchor values widen exactly, so they need no float64 copy.
    """
    gradient(w, batch, shape, out=g)
    if prox is not None:
        mu, anchor, scratch = prox
        np.subtract(w, anchor, out=scratch)
        scratch *= mu
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


def sgd_step(params: FlatParams, batch: Batch, lr: float) -> FlatParams:
    """One full-batch gradient step; pure (input untouched)."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    w = params.values.astype(np.float64)
    w32 = np.empty_like(params.values)
    _sgd_step(w, w32, np.empty_like(w), batch, params.shape, lr)
    return FlatParams(w32, params.shape)


def _offending_layer(shape: ShapeSpec, flat: np.ndarray) -> int:
    bad = int(np.flatnonzero(~np.isfinite(flat))[0])
    off = 0
    for k, (i, o) in enumerate(shape.layer_dims):
        off += i * o + o
        if bad < off:
            return k
    return len(shape.layer_dims) - 1


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
    """Minibatch SGD over `epochs` full passes in a seeded shuffle order.

    With prox_mu > 0 a proximal pull toward `anchor` (mu/2 * ||w - anchor||^2)
    is added to each minibatch objective.  The full-size buffers (float64
    weights, gradient, float32 weights, proximal scratch) are allocated once
    per call and updated in place by every step.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if prox_mu < 0:
        raise ValueError("prox_mu must be >= 0")
    if len(data) == 0:
        raise EmptyDataError("client has no data")
    if prox_mu > 0 and anchor is None:
        raise ValueError("prox_mu > 0 requires an anchor")

    w = params.values.astype(np.float64)
    w32 = np.empty_like(params.values)
    g = np.empty_like(w)
    prox = (prox_mu, anchor.values, np.empty_like(w)) if prox_mu > 0 else None
    n = len(data)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            mb = Batch(data.features[idx], data.labels[idx])
            _sgd_step(w, w32, g, mb, params.shape, lr, prox)
    return FlatParams(w32, params.shape)
