"""Flat key=value config files and typed coercion into the pipeline config.

One config file drives a whole pipeline: generator, trainer, and filter
keys live in a single flat namespace, and every command parses every key
and validates every section, so a value that any command would reject
fails the first command it reaches. The keys are the fields of
GenConfig, TrainConfig (its nested AugmentParams flattened into it) and
FilterConfig, whose ``tau`` is the key ``filter_tau``; each value is
parsed by its field's type, spelled as ``hierssl.records`` spells every
typed value. Resolution order is built-in defaults, then the config
file, then --set overrides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import AugmentParams, GenConfig
from .errors import ConfigError, ParseError
from .ood import FilterConfig
from .records import field_keys, field_texts, read_record, write_record
from .trainers import TrainConfig, default_train_config

CONFIG_MAGIC = "hierssl-config v1"

# each section's keys; AugmentParams's keys belong to the train section
_KEYS = {
    GenConfig: field_keys(GenConfig),
    TrainConfig: field_keys(TrainConfig),
    AugmentParams: field_keys(AugmentParams),
    FilterConfig: field_keys(FilterConfig, tau="filter_tau"),
}

KNOWN_KEYS = {key for keys in _KEYS.values() for key in keys}


@dataclass(frozen=True)
class PipelineConfig:
    """The config of every command: each takes the section it uses."""

    gen: GenConfig
    train: TrainConfig
    filter: FilterConfig


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


def _parse_overrides(pairs) -> dict[str, str]:
    """--set style key=value strings into a dict."""
    out: dict[str, str] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
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
    cfg = PipelineConfig(
        gen=GenConfig(**typed[GenConfig]),
        train=default_train_config(**typed[TrainConfig],
                                   augment=AugmentParams(**typed[AugmentParams])),
        filter=FilterConfig(**typed[FilterConfig]),
    )
    for section in (cfg.gen, cfg.train, cfg.filter):
        section.validate()
    return cfg


def config_values(section) -> dict[str, str]:
    """A section's keys as canonical strings, the inverse of ``read_config``."""
    values = field_texts(_KEYS[type(section)], section)
    if isinstance(section, TrainConfig):
        values.update(field_texts(_KEYS[AugmentParams], section.augment))
    return values
