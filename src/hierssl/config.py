"""Flat key=value config files and typed coercion into the config dataclasses.

One config file can drive a whole pipeline: generator, trainer, and
filter keys live in a single flat namespace, each consumer picks the
keys it knows, and any key no consumer knows is rejected up front. The
keys are the fields of GenConfig, TrainConfig (its nested AugmentParams
flattened into it) and FilterConfig, whose ``tau`` is the key
``filter_tau``; each value is parsed by its field's type. Values are
strings in the file: "none" encodes None, tuples are comma-joined,
booleans are "true" or "false", and floats must be finite. Resolution
order is built-in defaults, then the config file, then --set overrides.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import fields, is_dataclass

from .data import AugmentParams, GenConfig
from .errors import ConfigError, ParseError
from .ood import FilterConfig
from .records import read_record, write_record
from .trainers import TrainConfig, default_train_config

CONFIG_MAGIC = "hierssl-config v1"


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(s)
    return value


def _bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(s)
    return s == "true"


def _parser(hint):
    """The string parser of one field type; the inverse of ``_to_str``."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        inner = _parser(args[0])
        return lambda s: None if s == "none" else inner(s)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...] or a fixed count of T
        item = _parser(args[0])
        size = None if args[-1] is Ellipsis else len(args)

        def parse_tuple(s: str) -> tuple:
            out = tuple(item(v) for v in s.split(","))
            if size is not None and len(out) != size:
                raise ValueError(s)
            return out
        return parse_tuple
    return {int: int, float: _finite, str: str, bool: _bool}[hint]


def _keys(cls, **renames: str) -> dict:
    """Config key -> (field name, parser) for each field of a config
    dataclass, leaving out a nested dataclass, whose fields are keys of
    their own."""
    hints = typing.get_type_hints(cls)
    return {renames.get(f.name, f.name): (f.name, _parser(hints[f.name]))
            for f in fields(cls) if not is_dataclass(hints[f.name])}


_GEN_KEYS = _keys(GenConfig)
_TRAIN_KEYS = _keys(TrainConfig)
_AUGMENT_KEYS = _keys(AugmentParams)
_FILTER_KEYS = _keys(FilterConfig, tau="filter_tau")

KNOWN_KEYS = {*_GEN_KEYS, *_TRAIN_KEYS, *_AUGMENT_KEYS, *_FILTER_KEYS}


def parse_overrides(pairs) -> dict[str, str]:
    """--set style key=value strings into a dict."""
    out: dict[str, str] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        out[key] = value
    return out


def validate_keys(values: dict[str, str]) -> None:
    unknown = sorted(set(values) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def load_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with read_record(path, CONFIG_MAGIC) as body:
        for ln, line in body:
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep or not key.strip():
                raise ParseError(f"expected key=value, got {line!r}", line=ln)
            key = key.strip()
            if key in out:
                raise ParseError(f"duplicate key {key!r}", line=ln)
            out[key] = value.strip()
    return out


def write_config(values: dict[str, str], path) -> None:
    write_record(path, CONFIG_MAGIC,
                 [f"{key}={values[key]}" for key in sorted(values)])


def _parse(keys: dict, values: dict[str, str]) -> dict:
    """Typed field values for those of ``keys`` that ``values`` sets."""
    out = {}
    for key, (name, parse) in keys.items():
        if key in values:
            try:
                out[name] = parse(values[key])
            except ValueError:
                raise ConfigError(
                    f"{key}: cannot parse value {values[key]!r}"
                ) from None
    return out


def gen_config_from(values: dict[str, str]) -> GenConfig:
    validate_keys(values)
    cfg = GenConfig(**_parse(_GEN_KEYS, values))
    cfg.validate()
    return cfg


def train_config_from(values: dict[str, str]) -> TrainConfig:
    validate_keys(values)
    cfg = default_train_config(
        **_parse(_TRAIN_KEYS, values),
        augment=AugmentParams(**_parse(_AUGMENT_KEYS, values)),
    )
    cfg.validate()
    return cfg


def filter_config_from(values: dict[str, str]) -> FilterConfig:
    validate_keys(values)
    cfg = FilterConfig(**_parse(_FILTER_KEYS, values))
    cfg.validate()
    return cfg


def _to_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_to_str(v) for v in value)
    return str(value)


def _values(keys: dict, cfg) -> dict[str, str]:
    return {key: _to_str(getattr(cfg, name)) for key, (name, _) in keys.items()}


def gen_config_values(cfg: GenConfig) -> dict[str, str]:
    """The generator config as canonical strings, inverse of the parsers."""
    return _values(_GEN_KEYS, cfg)


def train_config_values(cfg: TrainConfig) -> dict[str, str]:
    return {**_values(_TRAIN_KEYS, cfg), **_values(_AUGMENT_KEYS, cfg.augment)}


def filter_config_values(cfg: FilterConfig) -> dict[str, str]:
    return _values(_FILTER_KEYS, cfg)
