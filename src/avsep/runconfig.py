"""Flat ``key = value`` run-configuration files.

One assignment per line; ``#`` starts a comment; blank lines are ignored.
Keys split into the model schema (forwarded to :class:`ModelConfig`) and
the training schema (forwarded to :class:`TrainSettings`). Unknown keys
are an error, naming the key.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig
from .trainer import TrainSettings


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw.lower() == "true"


def _int_triple(raw: str) -> tuple[int, int, int]:
    parts = [int(p.strip()) for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers")
    return tuple(parts)


# field annotation -> converter from the config text
_CONVERTERS = {"int": int, "float": float, "str": str, "bool": _bool,
               "tuple[int, int, int]": _int_triple}
# key -> converter, one key per dataclass field
_MODEL_SCHEMA = {f.name: _CONVERTERS[f.type] for f in fields(ModelConfig)}
_TRAIN_SCHEMA = {f.name: _CONVERTERS[f.type] for f in fields(TrainSettings)}


def parse_text(text: str) -> dict:
    """Parse config text into a {key: typed value} dict."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        conv = _MODEL_SCHEMA.get(key) or _TRAIN_SCHEMA.get(key)
        if conv is None:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = conv(raw)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from e
    return out


def parse_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_text(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def make_model_config(values: dict) -> ModelConfig:
    return ModelConfig(**{k: v for k, v in values.items() if k in _MODEL_SCHEMA})


def make_train_settings(values: dict) -> TrainSettings:
    return TrainSettings(**{k: v for k, v in values.items() if k in _TRAIN_SCHEMA})
