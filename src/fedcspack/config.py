"""Run configuration and strict JSON loading.

The JSON document mirrors RunConfig field names exactly; unknown keys are
a hard error at every nesting level.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .errors import ConfigError, ShapeError, require_int, require_real
from .model import ShapeSpec
from .partition import PartitionSpec


class Method(NamedTuple):
    """Everything that sets one method apart; the round loop reads nothing else."""

    sends: str  # "cosine" packages, "magnitude" coordinates or "all" packages
    selective_pull: bool  # a client pulls only the valid global packages
    weighted: bool  # `protocol.fold_weights` weighs by weight_mode, else every package 1.0
    proximal: bool  # local SGD adds the prox_mu term


METHODS = {
    "fedcspack": Method("cosine", selective_pull=True, weighted=True, proximal=False),
    "fedavg": Method("all", selective_pull=False, weighted=False, proximal=False),
    "fedprox": Method("all", selective_pull=False, weighted=False, proximal=True),
    "magnitude_topk": Method("magnitude", selective_pull=False, weighted=False, proximal=False),
}
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
        for name in ("images", "labels"):
            path = getattr(self, name)
            if not isinstance(path, str) or (self.kind == "idx" and not path):
                need = "a non-empty path" if self.kind == "idx" else "a path string"
                raise ConfigError(f"dataset.{name} must be {need}, got {path!r}")
        require_real("dataset.spread", self.spread, "(0, inf)")
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
        if self.pack > 2**32 - 1:  # the wire writes pack into a u32 header field
            raise ConfigError(f"pack must be <= {2**32 - 1}, got {self.pack}")
        require_int("seed", self.seed, 0)
        require_real("cpr", self.cpr, "(0, 1]")
        require_real("lr", self.lr, "(0, inf)")
        require_real("cap_ratio", self.cap_ratio, "(0, 1]")
        require_real("prox_mu", self.prox_mu, "[0, inf)")
        require_real("topk_fraction", self.topk_fraction, "(0, 1]")
        if self.payload not in PAYLOADS:
            raise ConfigError(f"unknown payload mode {self.payload!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")
        if METHODS[self.method].proximal and self.prox_mu <= 0:
            raise ConfigError(f"{self.method} requires prox_mu > 0")
        if self.clients != self.partition.num_clients:
            raise ConfigError(
                f"clients ({self.clients}) != partition.num_clients "
                f"({self.partition.num_clients})"
            )
        if self.dataset.kind == "blobs":  # an IDX file's shape is known once it is read
            check_fits(self.model, self.dataset.dim, self.dataset.num_classes)


def check_fits(model: ShapeSpec, dim: int, num_classes: int) -> None:
    """Raise ConfigError unless rows `dim` wide labelled with `num_classes`
    classes fit `model`: its input width is `dim` and it has at least
    `num_classes` outputs."""
    if dim != model.input_dim:
        raise ConfigError(f"dataset dim {dim} != model input {model.input_dim}")
    if num_classes > model.num_classes:
        raise ConfigError(f"dataset num_classes {num_classes} > model outputs {model.num_classes}")


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json's object_pairs_hook for a config document: the object as a
    dict, with a key repeated in it as ConfigError (json.load alone keeps
    its last value)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"JSON object repeats key {key!r}")
        doc[key] = value
    return doc


def _json_object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    return doc


def _build(cls, doc, where: str):
    """cls(**doc), with a `doc` that is not a JSON object, unknown keys,
    missing fields and shape errors as ConfigError naming `where`."""
    unknown = set(_json_object(doc, where)) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    try:
        return cls(**doc)
    except (TypeError, ShapeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict[str, Any]) -> RunConfig:
    kwargs = dict(_json_object(doc, "config"))
    for section, cls in (("partition", PartitionSpec), ("model", ShapeSpec), ("dataset", DatasetSpec)):
        if section not in kwargs:
            raise ConfigError(f"config.{section} is required")
        kwargs[section] = _build(cls, kwargs[section], f"config.{section}")
    return _build(RunConfig, kwargs, "config")


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply `key=value` overrides (dotted keys reach nested sections)."""
    doc = json.loads(json.dumps(_json_object(doc, "config")))
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
