"""Flat key=value config files and typed coercion into the config dataclasses.

One config file can drive a whole pipeline: generator, trainer, and
filter keys live in a single flat namespace, each consumer picks the
keys it knows, and any key no consumer knows is rejected up front.
Values are strings in the file; "none" encodes None, and tuples are
comma-joined. Resolution order is built-in defaults, then the config
file, then --set overrides.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from .data import AugmentParams, GenConfig
from .errors import ConfigError, ParseError
from .ood import FilterConfig
from .records import read_record, write_record
from .trainers import TrainConfig, default_train_config

CONFIG_MAGIC = "hierssl-config v1"


def _opt_int(s: str):
    return None if s == "none" else int(s)


def _int_tuple(s: str):
    return tuple(int(v) for v in s.split(","))


def _float_tuple(s: str):
    return tuple(float(v) for v in s.split(","))


def _str_tuple(s: str):
    return tuple(s.split(","))


def _opt_int_tuple(s: str):
    return None if s == "none" else _int_tuple(s)


def _opt_str_tuple(s: str):
    return None if s == "none" else _str_tuple(s)


def _bool(s: str):
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(s)


_GEN_PARSERS = {
    "level_counts": _opt_int_tuple,
    "branching": _opt_int_tuple,
    "dim": int,
    "sigma_levels": _float_tuple,
    "sigma_x": float,
    "labeled_per_species": int,
    "coarse_in_per_species": int,
    "coarse_out_per_species": int,
    "test_per_species": int,
    "out_fraction": float,
    "out_attach_level": _opt_int,
    "out_offset_scale": float,
    "long_tail_exponent": float,
    "coarse_level": int,
    "level_names": _opt_str_tuple,
    "seed": int,
}

_TRAIN_PARSERS = {
    "method": str,
    "supervision_level": _opt_int,
    "coarse_source": str,
    "steps": int,
    "lr": float,
    "momentum": float,
    "weight_decay": float,
    "batch_labeled": int,
    "batch_coarse": int,
    "unsup_weight": float,
    "tau": float,
    "consistency_weight": float,
    "distill_weight": float,
    "distill_temperature": float,
    "nce_temperature": float,
    "queue_size": int,
    "key_momentum": float,
    "pretrain_steps": int,
    "batch_pretrain": int,
    "emb_dim": int,
    "arch": str,
    "hidden": int,
    "augment_inputs": _bool,
    "seed": int,
}

_AUGMENT_PARSERS = {
    "sigma_weak": float,
    "sigma_strong": float,
    "p_drop": float,
    "jitter": _float_tuple,
}

_FILTER_PARSERS = {
    "filter_tau": float,
    "match_level": int,
}

KNOWN_KEYS = (
    set(_GEN_PARSERS) | set(_TRAIN_PARSERS) | set(_AUGMENT_PARSERS)
    | set(_FILTER_PARSERS)
)


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


def config_hash(values: dict[str, str]) -> str:
    canon = "".join(f"{k}={values[k]}\n" for k in sorted(values))
    return hashlib.sha256(canon.encode()).hexdigest()


def _apply(parsers: dict, values: dict[str, str]) -> dict:
    out = {}
    for key, parser in parsers.items():
        if key in values:
            try:
                out[key] = parser(values[key])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{key}: cannot parse value {values[key]!r}"
                ) from None
    return out


def gen_config_from(values: dict[str, str]) -> GenConfig:
    validate_keys(values)
    fields = _apply(_GEN_PARSERS, values)
    if fields.get("branching") is not None and "level_counts" not in fields:
        fields["level_counts"] = None
    cfg = replace(GenConfig(), **fields)
    cfg.validate()
    return cfg


def train_config_from(values: dict[str, str]) -> TrainConfig:
    validate_keys(values)
    fields = _apply(_TRAIN_PARSERS, values)
    aug_fields = _apply(_AUGMENT_PARSERS, values)
    method = fields.get("method", "baseline")
    defaults = default_train_config(method)
    if aug_fields:
        jitter = aug_fields.pop("jitter", None)
        aug = replace(defaults.augment, **aug_fields)
        if jitter is not None:
            if len(jitter) != 2:
                raise ConfigError("jitter: expected two comma-joined floats")
            aug = replace(aug, jitter=(jitter[0], jitter[1]))
        fields["augment"] = aug
    cfg = replace(defaults, **fields)
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


def gen_config_values(cfg: GenConfig) -> dict[str, str]:
    """The generator config as canonical strings, inverse of the parsers."""
    out = {key: _to_str(getattr(cfg, key)) for key in _GEN_PARSERS}
    if cfg.branching is not None:
        out["level_counts"] = "none"
    return out


def train_config_values(cfg: TrainConfig) -> dict[str, str]:
    out = {key: _to_str(getattr(cfg, key)) for key in _TRAIN_PARSERS}
    for key in _AUGMENT_PARSERS:
        out[key] = _to_str(getattr(cfg.augment, key))
    return out


def filter_config_values(cfg: FilterConfig) -> dict[str, str]:
    return {"filter_tau": _to_str(cfg.tau), "match_level": _to_str(cfg.match_level)}


def filter_config_from(values: dict[str, str]) -> FilterConfig:
    validate_keys(values)
    fields = _apply(_FILTER_PARSERS, values)
    cfg = FilterConfig(
        tau=fields.get("filter_tau", FilterConfig.tau),
        match_level=fields.get("match_level", FilterConfig.match_level),
    )
    cfg.validate()
    return cfg
