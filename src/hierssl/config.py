"""Flat key=value config files and typed coercion into the config dataclasses.

One config file can drive a whole pipeline: generator, trainer, and
filter keys live in a single flat namespace, each consumer picks the
keys it knows, and any key no consumer knows is rejected up front. The
keys are the fields of GenConfig, TrainConfig (its nested AugmentParams
flattened into it) and FilterConfig, whose ``tau`` is the key
``filter_tau``; each value is parsed by its field's type, spelled as
``hierssl.records`` spells every typed value. Resolution order is
built-in defaults, then the config file, then --set overrides.
"""

from __future__ import annotations

from .data import AugmentParams, GenConfig
from .errors import ConfigError, ParseError
from .ood import FilterConfig
from .records import field_keys, field_texts, read_record, write_record
from .trainers import TrainConfig, default_train_config

CONFIG_MAGIC = "hierssl-config v1"

_GEN_KEYS = field_keys(GenConfig)
_TRAIN_KEYS = field_keys(TrainConfig)
_AUGMENT_KEYS = field_keys(AugmentParams)
_FILTER_KEYS = field_keys(FilterConfig, tau="filter_tau")

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


def gen_config_values(cfg: GenConfig) -> dict[str, str]:
    """The generator config as canonical strings, inverse of the parsers."""
    return field_texts(_GEN_KEYS, cfg)


def train_config_values(cfg: TrainConfig) -> dict[str, str]:
    return {**field_texts(_TRAIN_KEYS, cfg),
            **field_texts(_AUGMENT_KEYS, cfg.augment)}


def filter_config_values(cfg: FilterConfig) -> dict[str, str]:
    return field_texts(_FILTER_KEYS, cfg)
