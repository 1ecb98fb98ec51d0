"""Accuracy metrics at every taxonomy level, and their text reports.

Coarse-level accuracy marginalizes the leaf distribution up to the
requested level before taking the argmax, so a model can be right about
the phylum while wrong about the species. Argmax ties resolve to the
lowest class index. Report files round-trip losslessly: floats are
written with shortest-exact formatting and parsed back bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Samples, features_of, labels_at_level
from .errors import EmptySplit
from .model import _prob_blocks
from .records import (
    bounded,
    field_texts,
    parse_fields,
    parse_lines,
    read_record,
    value_text,
    write_record,
)
from .taxonomy import MarginalizationMatrix, Taxonomy, marginalize

_EVAL_FORMAT = "hierssl-eval"
_SWEEP_FORMAT = "hierssl-sweep"


@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    top1: float
    # one (level, level name, accuracy) triple per taxonomy level
    levels: tuple[tuple[int, str, float], ...]


def evaluate(model, samples: Samples, taxonomy: Taxonomy) -> EvalReport:
    """Accuracy at every level, from one forward pass per block of rows: a
    block's leaf probabilities are summed up to each level before the
    argmax, so no probability matrix or level's marginals is held whole."""
    if not samples:
        raise EmptySplit("cannot evaluate on an empty sample list")
    leaf = taxonomy.leaf_level
    maps = [MarginalizationMatrix.between(taxonomy, leaf, level) for level in range(1, leaf)]
    pred = np.empty((taxonomy.num_levels, len(samples)), dtype=np.int64)
    for block, probs in _prob_blocks(model, features_of(samples), taxonomy):
        for w, level_pred in zip(maps, pred):
            level_pred[block] = marginalize(probs, w).argmax(axis=-1)
        pred[-1, block] = probs.argmax(axis=-1)
        del probs  # or it lives on while the next block is scored
    rows = []
    for level in range(1, taxonomy.num_levels + 1):
        acc = float((pred[level - 1] == labels_at_level(samples, taxonomy, level)).mean())
        rows.append((level, taxonomy.level_names[level - 1], acc))
    return EvalReport(n_samples=len(samples), top1=rows[-1][2], levels=tuple(rows))


def top1(model, samples: Samples, taxonomy: Taxonomy) -> float:
    return evaluate(model, samples, taxonomy).top1


_ACCURACY = bounded(float, 0, 1)
# n_samples and top1 are one line each; every level is a "level L name acc" row
_REPORT_KEYS = {"n_samples": ("n_samples", bounded(int, 1)), "top1": ("top1", _ACCURACY)}


def write_report(report: EvalReport, path) -> None:
    write_record(path, f"{_EVAL_FORMAT} v1", [
        *(f"{key} {text}" for key, text in field_texts(_REPORT_KEYS, report).items()),
        *(f"level {level} {name} {value_text(acc)}" for level, name, acc in report.levels),
    ])


def read_report(path) -> EvalReport:
    """The report as ``write_report`` writes it: n_samples, top1, then
    ``level L name accuracy`` for L = 1, 2, ... to the end, top1 being the
    last level's accuracy."""
    levels = []
    with read_record(path, _EVAL_FORMAT, (1,)) as body:
        n_samples, top = parse_lines(_REPORT_KEYS, body)
        for _, line in body:
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["level", str(len(levels) + 1)]:
                raise ValueError(f"expected 'level {len(levels) + 1} NAME ACCURACY', "
                                 f"got {line!r}")
            levels.append((len(levels) + 1, parts[2], _ACCURACY(parts[3])))
        if not levels:
            raise ValueError("no level lines")
        if top != levels[-1][2]:
            raise ValueError(f"top1 {value_text(top)} is not the leaf level's accuracy")
    return EvalReport(n_samples=n_samples, top1=top, levels=tuple(levels))


_SWEEP_KEYS = {key: (key, parse) for key, parse in (
    ("level", bounded(int | None, 1)), ("seed", bounded(int, 0)), ("top1", _ACCURACY))}


def write_sweep(rows: Sequence[tuple[int | None, int, float]], path) -> None:
    """Rows of (supervision level or None, seed, top1)."""
    write_record(path, f"{_SWEEP_FORMAT} v1", [
        " ".join(f"{key} {value_text(value)}" for key, value in zip(_SWEEP_KEYS, row))
        for row in rows
    ])


def read_sweep(path) -> list[tuple[int | None, int, float]]:
    rows = {}
    with read_record(path, _SWEEP_FORMAT, (1,)) as body:
        for _, line in body:
            level, seed, top = parse_fields(_SWEEP_KEYS, line.split())
            if (level, seed) in rows:
                raise ValueError(f"repeated row level {value_text(level)} seed {seed}")
            rows[level, seed] = top
    return [(level, seed, top) for (level, seed), top in rows.items()]


def sweep_means(rows: Sequence[tuple[int | None, int, float]]) -> dict:
    """Mean top1 per supervision level, keyed by level (None for no coarse)."""
    acc: dict = {}
    for level, _, top in rows:
        acc.setdefault(level, []).append(top)
    return {level: float(np.mean(v)) for level, v in acc.items()}
