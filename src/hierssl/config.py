"""Flat key=value config files and typed coercion into the pipeline config.

One config file drives a whole pipeline: generator, trainer, and filter
keys live in a single flat namespace, and every command parses every key
and validates every section, so a value that any command would reject
fails the first command it reaches. Each key is one field of one
section, GenConfig, TrainConfig or FilterConfig, named as the field is,
except that FilterConfig's ``tau`` is the key ``filter_tau``; each value
is parsed by its field's type, spelled as ``hierssl.records`` spells
every typed value. A file line and a --set override share one form,
``key=value`` with no spaces around the key or the value. Resolution
order is built-in defaults, then the config file, then --set overrides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import GenConfig
from .errors import ConfigError
from .ood import FilterConfig
from .records import field_keys, field_texts, read_record, write_record
from .trainers import TrainConfig, default_train_config

CONFIG_MAGIC = "hierssl-config v1"

# each section's keys
_KEYS = {
    GenConfig: field_keys(GenConfig),
    TrainConfig: field_keys(TrainConfig),
    FilterConfig: field_keys(FilterConfig, tau="filter_tau"),
}

KNOWN_KEYS = {key for keys in _KEYS.values() for key in keys}


@dataclass(frozen=True)
class PipelineConfig:
    """The config of every command: each takes the section it uses."""

    gen: GenConfig
    train: TrainConfig
    filter: FilterConfig


def _key_value(text: str) -> tuple[str, str]:
    """``key=value``, split at the first "=": the key is not empty, and
    neither part has surrounding spaces."""
    key, sep, value = text.partition("=")
    if not sep or not key or key.strip() != key or value.strip() != value:
        raise ValueError(f"expected key=value without surrounding spaces, got {text!r}")
    return key, value


def load_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with read_record(path, CONFIG_MAGIC) as body:
        for _, line in body:
            if line.lstrip().startswith("#"):
                continue
            key, value = _key_value(line)
            if key in out:
                raise ValueError(f"duplicate key {key!r}")
            out[key] = value
    return out


def write_config(values: dict[str, str], path) -> None:
    write_record(path, CONFIG_MAGIC,
                 [f"{key}={values[key]}" for key in sorted(values)])


def _parse_overrides(pairs) -> dict[str, str]:
    """--set style key=value strings into a dict."""
    out: dict[str, str] = {}
    for pair in pairs or ():
        try:
            key, value = _key_value(pair)
        except ValueError as exc:
            raise ConfigError(f"override: {exc}") from None
        if key in out:
            raise ConfigError(f"override: duplicate key {key!r}")
        out[key] = value
    return out


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


def read_config(path=None, overrides=()) -> PipelineConfig:
    """The defaults, then the config file at ``path`` (if any), then the
    ``key=value`` strings of ``overrides``, parsed and validated."""
    values = load_config(path) if path else {}
    values.update(_parse_overrides(overrides))
    if unknown := sorted(set(values) - KNOWN_KEYS):
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    typed = {cls: _parse(keys, values) for cls, keys in _KEYS.items()}
    if None not in (typed[GenConfig].get("level_counts"), typed[GenConfig].get("branching")):
        raise ConfigError("branching: level_counts is set too; set one of them")
    cfg = PipelineConfig(
        gen=GenConfig(**typed[GenConfig]),
        train=default_train_config(**typed[TrainConfig]),
        filter=FilterConfig(**typed[FilterConfig]),
    )
    for section in (cfg.gen, cfg.train, cfg.filter):
        section.validate()
    return cfg


def config_values(section) -> dict[str, str]:
    """A section's keys as canonical strings, the inverse of ``read_config``."""
    return field_texts(_KEYS[type(section)], section)
