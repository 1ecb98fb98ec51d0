"""Accuracy metrics at every taxonomy level, and their text reports.

Coarse-level accuracy marginalizes the leaf distribution up to the
requested level before taking the argmax, so a model can be right about
the phylum while wrong about the species. Argmax ties resolve to the
lowest class index. Report files round-trip losslessly: floats are
written with shortest-exact formatting and parsed back bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .data import Sample, features_of, labels_at_level
from .errors import ConfigError, EmptySplit, ParseError
from .model import ensure_compatible, predict_probs
from .records import read_record, write_record
from .taxonomy import Taxonomy, coarse_probs

_EVAL_MAGIC = "hierssl-eval v1"
_CONFUSION_MAGIC = "hierssl-confusion v1"
_SWEEP_MAGIC = "hierssl-sweep v1"


def _leaf_probs(model, samples: Sequence[Sample], taxonomy: Taxonomy) -> np.ndarray:
    """Leaf distribution of every sample: the one forward pass of a score."""
    if not samples:
        raise EmptySplit("cannot evaluate on an empty sample list")
    ensure_compatible(model, taxonomy)
    return predict_probs(model, features_of(samples))


def _marginal_accuracy(probs: np.ndarray, samples: Sequence[Sample],
                       taxonomy: Taxonomy, level: int) -> float:
    pred = coarse_probs(taxonomy, probs, level).argmax(axis=-1)
    return float((pred == labels_at_level(samples, taxonomy, level)).mean())


def top1(model, samples: Sequence[Sample], taxonomy: Taxonomy) -> float:
    return level_accuracy(model, samples, taxonomy, taxonomy.leaf_level)


def level_accuracy(model, samples: Sequence[Sample], taxonomy: Taxonomy,
                   level: int, mode: str = "marginal") -> float:
    """Accuracy at one level.

    mode="marginal" sums leaf probabilities up to the level before the
    argmax; mode="leaf" takes the leaf argmax first and walks it up the
    tree. The two differ whenever the probability mass of one branch is
    spread across many leaves.
    """
    probs = _leaf_probs(model, samples, taxonomy)
    if mode == "marginal":
        return _marginal_accuracy(probs, samples, taxonomy, level)
    if mode != "leaf":
        raise ConfigError(f"mode: must be 'marginal' or 'leaf', got {mode!r}")
    leaf_pred = probs.argmax(axis=-1)
    leaf = taxonomy.leaf_level
    pred = leaf_pred if level == leaf else taxonomy.ancestor_map(leaf, level)[leaf_pred]
    return float((pred == labels_at_level(samples, taxonomy, level)).mean())


def confusion(model, samples: Sequence[Sample], taxonomy: Taxonomy,
              level: int) -> np.ndarray:
    """Count matrix indexed [true class, predicted class] at one level."""
    probs = _leaf_probs(model, samples, taxonomy)
    pred = coarse_probs(taxonomy, probs, level).argmax(axis=-1)
    true = labels_at_level(samples, taxonomy, level)
    n = taxonomy.class_counts[level - 1]
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (true, pred), 1)
    return out


@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    top1: float
    # one (level, level name, accuracy) triple per taxonomy level
    levels: tuple[tuple[int, str, float], ...]


def evaluate(model, samples: Sequence[Sample], taxonomy: Taxonomy) -> EvalReport:
    """Accuracy at every level, all marginalized from one forward pass."""
    probs = _leaf_probs(model, samples, taxonomy)
    rows = tuple(
        (level, taxonomy.level_names[level - 1],
         _marginal_accuracy(probs, samples, taxonomy, level))
        for level in range(1, taxonomy.num_levels + 1)
    )
    return EvalReport(n_samples=len(samples), top1=rows[-1][2], levels=rows)


def write_report(report: EvalReport, path) -> None:
    write_record(path, _EVAL_MAGIC, [
        f"n_samples {report.n_samples}",
        f"top1 {repr(float(report.top1))}",
        *(f"level {level} {name} {repr(float(acc))}"
          for level, name, acc in report.levels),
    ])


def read_report(path) -> EvalReport:
    n_samples = None
    top = None
    levels = []
    with read_record(path, _EVAL_MAGIC) as body:
        for _, line in body:
            parts = line.split()
            if parts[0] == "n_samples" and len(parts) == 2:
                n_samples = int(parts[1])
            elif parts[0] == "top1" and len(parts) == 2:
                top = float(parts[1])
            elif parts[0] == "level" and len(parts) == 4:
                levels.append((int(parts[1]), parts[2], float(parts[3])))
            else:
                raise ValueError(f"malformed line {line!r}")
        if n_samples is None or top is None or not levels:
            raise ValueError("missing n_samples, top1, or level lines")
    return EvalReport(n_samples=n_samples, top1=top, levels=tuple(levels))


def write_confusion(matrix: np.ndarray, taxonomy: Taxonomy, level: int, path) -> None:
    n = matrix.shape[0]
    write_record(path, _CONFUSION_MAGIC, [
        f"level {level} {taxonomy.level_names[level - 1]}",
        f"classes {n}",
        *(f"{taxonomy.class_name(level, i)} "
          + " ".join(str(int(v)) for v in matrix[i]) for i in range(n)),
    ])


def read_confusion(path) -> tuple[np.ndarray, int]:
    rows = []
    with read_record(path, _CONFUSION_MAGIC) as body:
        lines = iter(body)
        (_, level_line), (_, classes_line) = islice(lines, 2)
        level = int(level_line.split()[1])
        n = int(classes_line.split()[1])
        for ln, line in lines:
            parts = line.split()
            if len(parts) != n + 1:
                raise ParseError(f"expected {n + 1} fields, got {len(parts)}",
                                 line=ln)
            rows.append([int(v) for v in parts[1:]])
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
    return np.array(rows, dtype=np.int64), level


def write_sweep(rows: Sequence[tuple[int | None, int, float]], path) -> None:
    """Rows of (supervision level or None, seed, top1)."""
    write_record(path, _SWEEP_MAGIC, [
        f"level {'none' if level is None else level} seed {seed} "
        f"top1 {repr(float(acc))}"
        for level, seed, acc in rows
    ])


def read_sweep(path) -> list[tuple[int | None, int, float]]:
    rows = []
    with read_record(path, _SWEEP_MAGIC) as body:
        for _, line in body:
            parts = line.split()
            if len(parts) != 6 or parts[0::2] != ["level", "seed", "top1"]:
                raise ValueError(f"malformed line {line!r}")
            level = None if parts[1] == "none" else int(parts[1])
            rows.append((level, int(parts[3]), float(parts[5])))
    return rows


def sweep_means(rows: Sequence[tuple[int | None, int, float]]) -> dict:
    """Mean top1 per supervision level, keyed by level (None for no coarse)."""
    acc: dict = {}
    for level, _, top in rows:
        acc.setdefault(level, []).append(top)
    return {level: float(np.mean(v)) for level, v in acc.items()}
