"""Run configuration and strict JSON loading.

The JSON document mirrors RunConfig field names exactly; unknown keys are
a hard error at every nesting level.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError, ShapeError, require_int, require_real
from .model import ShapeSpec
from .partition import PartitionSpec

METHODS = ("fedcspack", "fedavg", "fedprox", "magnitude_topk")
PAYLOADS = ("delta",)
WEIGHT_MODES = ("dual", "cos_only", "kl_only")


@dataclass(frozen=True)
class DatasetSpec:
    """Where the training data comes from: synthetic blobs or IDX files."""

    kind: str  # "blobs" | "idx"
    num_classes: int = 10
    dim: int = 32
    samples_per_class: int = 100
    spread: float = 0.3
    seed: int = 0
    images: str = ""
    labels: str = ""

    def __post_init__(self):
        if self.kind not in ("blobs", "idx"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "idx":
            for name in ("images", "labels"):
                path = getattr(self, name)
                if not isinstance(path, str) or not path:
                    raise ConfigError(f"dataset.{name} must be a non-empty path, got {path!r}")
        require_real("dataset.spread", self.spread)
        if self.kind == "blobs" and not (math.isfinite(self.spread) and self.spread > 0):
            raise ConfigError("spread must be finite and > 0")
        for name in ("num_classes", "dim", "samples_per_class"):
            require_int(name, getattr(self, name), 1)
        require_int("dataset.seed", self.seed, 0)


@dataclass(frozen=True)
class RunConfig:
    method: str
    rounds: int
    clients: int
    cpr: float
    local_epochs: int
    lr: float
    batch_size: int
    pack: int
    seed: int
    partition: PartitionSpec
    model: ShapeSpec
    dataset: DatasetSpec
    cap_ratio: float = 1.0
    payload: str = "delta"  # the only mode; configs may still name it
    weight_mode: str = "dual"
    prox_mu: float = 0.0
    topk_fraction: float = 0.1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        for name in ("rounds", "clients", "pack", "local_epochs", "batch_size"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        for name in ("cpr", "lr", "cap_ratio", "prox_mu", "topk_fraction"):
            require_real(name, getattr(self, name))
        if not 0 < self.cpr <= 1:
            raise ConfigError("cpr must be in (0, 1]")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be finite and > 0")
        if not 0 < self.cap_ratio <= 1:
            raise ConfigError("cap_ratio must be in (0, 1]")
        if self.payload not in PAYLOADS:
            raise ConfigError(f"unknown payload mode {self.payload!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")
        # checked for every method, so that run.json holds only valid JSON
        if not (math.isfinite(self.prox_mu) and self.prox_mu >= 0):
            raise ConfigError("prox_mu must be finite and >= 0")
        if self.method == "fedprox" and self.prox_mu <= 0:
            raise ConfigError("fedprox requires prox_mu > 0")
        if not 0 < self.topk_fraction <= 1:
            raise ConfigError("topk_fraction must be in (0, 1]")
        if self.clients != self.partition.num_clients:
            raise ConfigError(
                f"clients ({self.clients}) != partition.num_clients "
                f"({self.partition.num_clients})"
            )
        if self.dataset.kind == "blobs" and self.dataset.num_classes > self.model.num_classes:
            raise ConfigError(
                f"dataset.num_classes ({self.dataset.num_classes}) > model outputs "
                f"({self.model.num_classes})"
            )
        if self.dataset.kind == "blobs" and self.dataset.dim != self.model.input_dim:
            raise ConfigError(
                f"dataset dim {self.dataset.dim} != model input {self.model.input_dim}"
            )


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(doc: dict, key: str) -> dict:
    if key not in doc:
        raise ConfigError(f"config.{key} is required")
    if not isinstance(doc[key], dict):
        raise ConfigError(f"config.{key} must be a JSON object, got {doc[key]!r}")
    return doc[key]


def _build(cls, doc: dict, where: str):
    """cls(**doc), with unknown keys, missing fields and shape errors as
    ConfigError."""
    _check_keys(doc, {f.name for f in dataclasses.fields(cls)}, where)
    try:
        return cls(**doc)
    except (TypeError, ShapeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict[str, Any]) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {doc!r}")
    kwargs = dict(doc)
    kwargs["partition"] = _build(PartitionSpec, _section(doc, "partition"), "partition")
    kwargs["model"] = _build(ShapeSpec, _section(doc, "model"), "model")
    kwargs["dataset"] = _build(DatasetSpec, _section(doc, "dataset"), "dataset")
    return _build(RunConfig, kwargs, "config")


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply `key=value` overrides (dotted keys reach nested sections)."""
    doc = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        target = doc
        parts = key.split(".")
        for p in parts[:-1]:
            if p not in target or not isinstance(target[p], dict):
                raise ConfigError(f"override path {key!r} not found")
            target = target[p]
        target[parts[-1]] = _parse_value(raw)
    return doc


def config_to_dict(config: RunConfig) -> dict[str, Any]:
    """The JSON document that config_from_dict reads back into `config`."""
    return dataclasses.asdict(config)
