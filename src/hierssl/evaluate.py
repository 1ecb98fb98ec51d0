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
from .model import predict_probs
from .records import (
    field_keys,
    field_texts,
    parse_fields,
    read_record,
    value_parser,
    value_text,
    write_record,
)
from .taxonomy import Taxonomy, coarse_probs

_EVAL_MAGIC = "hierssl-eval v1"
_SWEEP_MAGIC = "hierssl-sweep v1"


@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    top1: float
    # one (level, level name, accuracy) triple per taxonomy level
    levels: tuple[tuple[int, str, float], ...]


def evaluate(model, samples: Samples, taxonomy: Taxonomy) -> EvalReport:
    """Accuracy at every level, all marginalized from one forward pass:
    leaf probabilities are summed up to each level before the argmax."""
    if not samples:
        raise EmptySplit("cannot evaluate on an empty sample list")
    probs = predict_probs(model, features_of(samples), taxonomy)
    rows = []
    for level in range(1, taxonomy.num_levels + 1):
        pred = coarse_probs(taxonomy, probs, level).argmax(axis=-1)
        acc = float((pred == labels_at_level(samples, taxonomy, level)).mean())
        rows.append((level, taxonomy.level_names[level - 1], acc))
    return EvalReport(n_samples=len(samples), top1=rows[-1][2], levels=tuple(rows))


def top1(model, samples: Samples, taxonomy: Taxonomy) -> float:
    return evaluate(model, samples, taxonomy).top1


# n_samples and top1 are one line each; every level is a "level L name acc" row
_REPORT_KEYS = {k: v for k, v in field_keys(EvalReport).items() if k != "levels"}
_ACCURACY = value_parser(float)


def write_report(report: EvalReport, path) -> None:
    write_record(path, _EVAL_MAGIC, [
        *(f"{key} {text}" for key, text in field_texts(_REPORT_KEYS, report).items()),
        *(f"level {level} {name} {value_text(acc)}" for level, name, acc in report.levels),
    ])


def read_report(path) -> EvalReport:
    levels = []

    def key_tokens(body):
        for _, line in body:
            parts = line.split()
            if parts[0] == "level" and len(parts) == 4:
                if value_parser(int)(parts[1]) != len(levels) + 1:  # levels 1, 2, ... in order
                    raise ValueError(f"expected level {len(levels) + 1}, got {parts[1]}")
                levels.append((len(levels) + 1, parts[2], _ACCURACY(parts[3])))
            else:
                yield from parts

    with read_record(path, _EVAL_MAGIC) as body:
        n_samples, top = parse_fields(_REPORT_KEYS, key_tokens(body))
        if not levels:
            raise ValueError("no level lines")
    return EvalReport(n_samples=n_samples, top1=top, levels=tuple(levels))


_SWEEP_KEYS = {key: (key, value_parser(hint)) for key, hint in
               (("level", int | None), ("seed", int), ("top1", float))}


def write_sweep(rows: Sequence[tuple[int | None, int, float]], path) -> None:
    """Rows of (supervision level or None, seed, top1)."""
    write_record(path, _SWEEP_MAGIC, [
        " ".join(f"{key} {value_text(value)}" for key, value in zip(_SWEEP_KEYS, row))
        for row in rows
    ])


def read_sweep(path) -> list[tuple[int | None, int, float]]:
    with read_record(path, _SWEEP_MAGIC) as body:
        return [tuple(parse_fields(_SWEEP_KEYS, line.split())) for _, line in body]


def sweep_means(rows: Sequence[tuple[int | None, int, float]]) -> dict:
    """Mean top1 per supervision level, keyed by level (None for no coarse)."""
    acc: dict = {}
    for level, _, top in rows:
        acc.setdefault(level, []).append(top)
    return {level: float(np.mean(v)) for level, v in acc.items()}
