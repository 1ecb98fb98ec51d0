"""Confidence-plus-ancestor filtering of the coarse pool.

A trained model screens coarsely labeled samples before they are used
for training: a sample is kept when the model's best leaf guess is
confident enough and that guess sits under the sample's provided coarse
class at the match level. The decision reads only the features and the
provided label, never the hidden ground-truth species; that field, and
the origin it gives (``true_species >= 0``), feed the diagnostic counts alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataSplit, Samples, features_of, labels_at_level
from .errors import ConfigError
from .model import predict_probs
from .records import field_keys, field_texts, parse_fields, read_record, write_record
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

    Precision and recall use the hidden origin (``true_species >= 0``),
    which training never sees; they exist to report how well the filter
    separated in-class from out-of-class, not to influence what is kept.
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


def keep_mask(model, taxonomy: Taxonomy, samples: Samples,
              cfg: FilterConfig) -> np.ndarray:
    """Boolean keep decision per sample, from features and provided labels only."""
    cfg.validate()
    if cfg.match_level > taxonomy.num_levels:
        raise ConfigError(
            f"match_level: {cfg.match_level} exceeds the "
            f"{taxonomy.num_levels}-level taxonomy"
        )
    too_fine = cfg.match_level > samples.label_level
    if too_fine.any():
        raise ConfigError(
            f"match_level: {cfg.match_level} is finer than the provided "
            f"label level {samples.label_level[too_fine.argmax()]}"
        )
    provided = labels_at_level(samples, taxonomy, cfg.match_level)
    probs = predict_probs(model, features_of(samples), taxonomy)
    conf = probs.max(axis=-1)
    pred_leaf = probs.argmax(axis=-1)
    pred_match = taxonomy.ancestor_map(taxonomy.leaf_level, cfg.match_level)[pred_leaf]
    return (conf >= cfg.tau) & (pred_match == provided)


def filter_stats(samples: Samples, mask: np.ndarray) -> FilterStats:
    origins = samples.true_species >= 0
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

    The returned split holds the kept samples as its ``coarse_in`` pool,
    hidden species and so origins intact, and an empty ``coarse_out``.
    """
    pool = split.coarse("union")
    mask = keep_mask(model, taxonomy, pool, cfg)
    kept = DataSplit(split.labeled, pool.take(mask), split.coarse_out.take([]), split.test)
    return kept, filter_stats(pool, mask)


_CONFIG_KEYS = field_keys(FilterConfig)
_STATS_KEYS = field_keys(FilterStats)


def write_filter_report(stats: FilterStats, cfg: FilterConfig, path) -> None:
    texts = {**field_texts(_CONFIG_KEYS, cfg), **field_texts(_STATS_KEYS, stats)}
    write_record(path, _FILTER_MAGIC, [f"{key} {text}" for key, text in texts.items()])


def read_filter_report(path) -> tuple[FilterStats, FilterConfig]:
    with read_record(path, _FILTER_MAGIC) as body:
        values = parse_fields({**_CONFIG_KEYS, **_STATS_KEYS},
                              (tok for _, line in body for tok in line.split()))
    n = len(_CONFIG_KEYS)
    return FilterStats(*values[n:]), FilterConfig(*values[:n])
