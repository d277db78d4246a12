"""Run configuration and strict JSON loading.

The JSON document mirrors RunConfig field names exactly; unknown keys are
a hard error at every nesting level.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import ConfigError
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
        if self.kind == "idx" and (not self.images or not self.labels):
            raise ConfigError("idx dataset needs images and labels paths")
        if self.kind == "blobs" and not (math.isfinite(self.spread) and self.spread > 0):
            raise ConfigError("spread must be finite and > 0")


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
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0 < self.cpr <= 1:
            raise ConfigError("cpr must be in (0, 1]")
        if self.pack < 1:
            raise ConfigError("pack must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be finite and > 0")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.cap_ratio <= 1:
            raise ConfigError("cap_ratio must be in (0, 1]")
        if self.payload not in PAYLOADS:
            raise ConfigError(f"unknown payload mode {self.payload!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")
        if not math.isfinite(self.prox_mu):
            raise ConfigError("prox_mu must be finite")
        if self.method == "fedprox" and self.prox_mu <= 0:
            raise ConfigError("fedprox requires prox_mu > 0")
        if self.method == "magnitude_topk" and not 0 < self.topk_fraction <= 1:
            raise ConfigError("topk_fraction must be in (0, 1]")
        if self.clients != self.partition.num_clients:
            raise ConfigError(
                f"clients ({self.clients}) != partition.num_clients "
                f"({self.partition.num_clients})"
            )


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _build_partition(doc: dict) -> PartitionSpec:
    allowed = {f.name for f in dataclasses.fields(PartitionSpec)}
    _check_keys(doc, allowed, "partition")
    return PartitionSpec(**doc)


def _build_model(doc: dict) -> ShapeSpec:
    _check_keys(doc, {"widths", "activation"}, "model")
    if "widths" not in doc:
        raise ConfigError("model.widths is required")
    return ShapeSpec.from_widths(doc["widths"], doc.get("activation", "relu"))


def _build_dataset(doc: dict) -> DatasetSpec:
    allowed = {f.name for f in dataclasses.fields(DatasetSpec)}
    _check_keys(doc, allowed, "dataset")
    return DatasetSpec(**doc)


def config_from_dict(doc: dict[str, Any]) -> RunConfig:
    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    _check_keys(doc, allowed, "config")
    for key in ("partition", "model", "dataset"):
        if key not in doc:
            raise ConfigError(f"config.{key} is required")
    kwargs = dict(doc)
    kwargs["partition"] = _build_partition(doc["partition"])
    kwargs["model"] = _build_model(doc["model"])
    kwargs["dataset"] = _build_dataset(doc["dataset"])
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


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
    doc = dataclasses.asdict(config)
    model = doc.pop("model")
    widths = [model["layer_dims"][0][0]] + [o for _, o in model["layer_dims"]]
    doc["model"] = {"widths": widths, "activation": model["activation"]}
    return doc
