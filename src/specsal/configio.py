"""Strict decoding of every JSON document into its dataclass.

Model configs, synthetic scene specs and dataset manifests all go through one
decoder, ``from_dict``, driven by the dataclasses' type hints. Unknown keys,
missing required keys, ill-typed values and non-finite numbers (JSON's
``NaN``/``Infinity`` extensions, or integers too large for a float) are
rejected rather than silently ignored, so a typo in a JSON file fails loudly
instead of running with defaults, and every malformed document raises its
kind's ``DataError`` subclass (the CLI exits 2). Value validation itself lives
in the dataclasses' __post_init__ hooks; encoding is ``dataclasses.asdict``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path

from .exceptions import ConfigError, DataError
from .model import ModelConfig


@functools.cache
def _schema(cls) -> tuple[dict, frozenset]:
    """Field types and required field names of a dataclass, resolved once."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = frozenset(
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return {f.name: hints[f.name] for f in fields}, required


def from_dict(cls, doc, context: str, error: type[DataError]):
    """Decode a JSON value into dataclass ``cls``, raising ``error`` on any defect.

    Nested dataclasses, ``X | None``, ``tuple[...]`` and ``list[X]`` fields
    are decoded recursively; int, float and str leaves are type-checked (an int
    passes where a float is declared and is converted to one, a bool never
    passes as a number, and a float leaf must be finite). ``DataError`` from
    ``__post_init__`` propagates unchanged; any other TypeError, ValueError or
    OverflowError is re-raised as ``error`` naming ``context``.
    """
    if not isinstance(doc, dict):
        raise error(f"{context}: expected an object, got {type(doc).__name__}")
    hints, required = _schema(cls)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise error(f"{context}: unknown keys {unknown} (allowed: {sorted(hints)})")
    missing = sorted(required - set(doc))
    if missing:
        raise error(f"{context}: missing keys {missing}")
    kwargs = {
        key: _decode(hints[key], value, f"{context}.{key}", error)
        for key, value in doc.items()
    }
    try:
        return cls(**kwargs)
    except DataError:
        raise
    except (TypeError, ValueError, OverflowError) as err:
        raise error(f"{context}: {err}") from err


def _decode(hint, value, context: str, error: type[DataError]):
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, context, error)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        if value is None:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, value, context, error)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise error(f"{context}: expected an array, got {type(value).__name__}")
        if origin is list or args[-1] is Ellipsis:
            item_hints = args[:1] * len(value)
        elif len(value) == len(args):
            item_hints = args
        else:
            raise error(f"{context}: expected {len(args)} items, got {len(value)}")
        return origin(
            _decode(item, v, f"{context}[{i}]", error)
            for i, (item, v) in enumerate(zip(item_hints, value))
        )
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise error(f"{context}: expected {hint.__name__}, got {type(value).__name__}")
    if hint is not float:
        return value
    try:
        number = float(value)
    except OverflowError as err:
        raise error(f"{context}: {err}") from err
    if not math.isfinite(number):
        raise error(f"{context}: expected a finite number, got {number}")
    return number


def model_config_from_dict(doc: dict) -> ModelConfig:
    return from_dict(ModelConfig, doc, "model config", ConfigError)


def model_config_to_dict(config: ModelConfig) -> dict:
    return dataclasses.asdict(config)


def load_json_document(path, error: type[DataError] = ConfigError) -> dict:
    """Parse a JSON object file, mapping read and parse failures to ``error``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise error(f"{path}: {err}") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err})") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise error(f"{path}: invalid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be a JSON object")
    return doc
