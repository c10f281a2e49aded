"""Strict dict round-tripping for configuration dataclasses.

Documents with unknown keys are rejected rather than silently ignored, so a
typo in a JSON config file fails loudly instead of training with defaults.
Value validation itself lives in the dataclasses' __post_init__ hooks; this
module only handles the wire shape.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .exceptions import ConfigError
from .model import ModelConfig
from .saliency_net import BackboneConfig, DecoderConfig
from .spectral_attention import EncoderConfig
from .training import TrainConfig

_SECTIONS = {
    "encoder": EncoderConfig,
    "backbone": BackboneConfig,
    "decoder": DecoderConfig,
}


def _build(cls, doc: dict, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {type(doc).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown} (allowed: {sorted(allowed)})")
    try:
        return cls(**doc)
    except TypeError as err:
        raise ConfigError(f"{context}: {err}") from err


def model_config_from_dict(doc: dict) -> ModelConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"model config: expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - (set(_SECTIONS) | {"input_size"}))
    if unknown:
        raise ConfigError(f"model config: unknown keys {unknown}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        if section in doc:
            kwargs[section] = _build(cls, doc[section], f"model config [{section}]")
    if "input_size" in doc:
        kwargs["input_size"] = doc["input_size"]
    return ModelConfig(**kwargs)


def model_config_to_dict(config: ModelConfig) -> dict:
    return {
        "encoder": dataclasses.asdict(config.encoder),
        "backbone": {
            **dataclasses.asdict(config.backbone),
            "widths": list(config.backbone.widths),
        },
        "decoder": dataclasses.asdict(config.decoder),
        "input_size": config.input_size,
    }


def train_config_from_dict(doc: dict) -> TrainConfig:
    config = _build(TrainConfig, doc, "train config")
    return config


def train_config_to_dict(config: TrainConfig) -> dict:
    doc = dataclasses.asdict(config)
    doc["level_weights"] = list(config.level_weights)
    return doc


def load_json_document(path) -> dict:
    """Parse a JSON object file, mapping parse failures to ConfigError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc
