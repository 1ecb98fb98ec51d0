"""Confidence-plus-ancestor filtering of the coarse pool.

A trained model screens coarsely labeled samples before they are used
for training: a sample is kept when the model's best leaf guess is
confident enough and that guess sits under the sample's provided coarse
class at the match level. The decision reads only the features and the
provided label, never the hidden origin or ground-truth species; those
fields feed the diagnostic counts alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .data import ORIGIN_IN, DataSplit, Sample, features_of, labels_at_level
from .errors import ConfigError
from .model import ensure_compatible, predict_probs
from .records import read_record, write_record
from .taxonomy import Taxonomy

_FILTER_MAGIC = "hierssl-filter v1"


@dataclass(frozen=True)
class FilterConfig:
    tau: float = 0.8
    match_level: int = 2

    def validate(self) -> None:
        if self.tau <= 0:
            raise ConfigError("tau: must be > 0")
        if self.match_level < 1:
            raise ConfigError("match_level: must be >= 1")


@dataclass(frozen=True)
class FilterStats:
    """Keep counts plus hidden-origin diagnostics.

    Precision and recall use the origin field, which training never
    sees; they exist to report how well the filter separated in-class
    from out-of-class, not to influence what is kept.
    """

    n_total: int
    n_kept: int
    n_in: int
    n_out: int
    kept_in: int
    kept_out: int

    @property
    def kept_fraction(self) -> float:
        return self.n_kept / self.n_total if self.n_total else 0.0

    @property
    def precision(self) -> float:
        return self.kept_in / self.n_kept if self.n_kept else 1.0

    @property
    def recall(self) -> float:
        return self.kept_in / self.n_in if self.n_in else 1.0


def keep_mask(model, taxonomy: Taxonomy, samples: Sequence[Sample],
              cfg: FilterConfig) -> np.ndarray:
    """Boolean keep decision per sample, from features and provided labels only."""
    cfg.validate()
    ensure_compatible(model, taxonomy)
    if cfg.match_level > taxonomy.num_levels:
        raise ConfigError(
            f"match_level: {cfg.match_level} exceeds the "
            f"{taxonomy.num_levels}-level taxonomy"
        )
    if not samples:
        return np.zeros(0, dtype=bool)
    label_level = np.fromiter((s.label_level for s in samples), np.int64, len(samples))
    too_fine = cfg.match_level > label_level
    if too_fine.any():
        raise ConfigError(
            f"match_level: {cfg.match_level} is finer than the provided "
            f"label level {label_level[too_fine.argmax()]}"
        )
    provided = labels_at_level(samples, taxonomy, cfg.match_level)
    probs = predict_probs(model, features_of(samples))
    conf = probs.max(axis=-1)
    pred_leaf = probs.argmax(axis=-1)
    pred_match = taxonomy.ancestors(cfg.match_level)[pred_leaf]
    return (conf >= cfg.tau) & (pred_match == provided)


def filter_stats(samples: Sequence[Sample], mask: np.ndarray) -> FilterStats:
    origins = np.array([s.origin == ORIGIN_IN for s in samples], dtype=bool)
    return FilterStats(
        n_total=len(samples),
        n_kept=int(mask.sum()),
        n_in=int(origins.sum()),
        n_out=int((~origins).sum()),
        kept_in=int((mask & origins).sum()),
        kept_out=int((mask & ~origins).sum()),
    )


def filter_split(model, taxonomy: Taxonomy, split: DataSplit,
                 cfg: FilterConfig) -> tuple[DataSplit, FilterStats]:
    """Screen the union of both coarse pools; labeled and test pass through.

    The returned split holds the kept samples (origin fields intact) as
    its in-class coarse pool and an empty out-of-class pool.
    """
    pool = tuple(split.coarse_in) + tuple(split.coarse_out)
    mask = keep_mask(model, taxonomy, pool, cfg)
    kept = tuple(s for s, m in zip(pool, mask) if m)
    return split.replace_coarse(kept), filter_stats(pool, mask)


def write_filter_report(stats: FilterStats, cfg: FilterConfig, path) -> None:
    write_record(path, _FILTER_MAGIC, [
        f"tau {repr(float(cfg.tau))}",
        f"match_level {cfg.match_level}",
        *(f"{key} {value}" for key, value in asdict(stats).items()),
    ])


def read_filter_report(path) -> tuple[FilterStats, FilterConfig]:
    values = {}
    with read_record(path, _FILTER_MAGIC) as body:
        for _, line in body:
            key, value = line.split()
            values[key] = value
        cfg = FilterConfig(tau=float(values["tau"]),
                           match_level=int(values["match_level"]))
        stats = FilterStats(**{
            f.name: int(values[f.name]) for f in fields(FilterStats)
        })
    return stats, cfg
