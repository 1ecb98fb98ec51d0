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

from .data import Sample, features_of, labels_at_level
from .errors import ConfigError, EmptySplit, ParseError
from .model import ensure_compatible, predict_probs
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
    lines = [
        _EVAL_MAGIC,
        f"n_samples {report.n_samples}",
        f"top1 {repr(float(report.top1))}",
    ]
    for level, name, acc in report.levels:
        lines.append(f"level {level} {name} {repr(float(acc))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path) -> EvalReport:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != _EVAL_MAGIC:
        raise ParseError(f"expected header {_EVAL_MAGIC!r}", line=1)
    n_samples = None
    top = None
    levels = []
    for ln, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] == "n_samples" and len(parts) == 2:
                n_samples = int(parts[1])
            elif parts[0] == "top1" and len(parts) == 2:
                top = float(parts[1])
            elif parts[0] == "level" and len(parts) == 4:
                levels.append((int(parts[1]), parts[2], float(parts[3])))
            else:
                raise ValueError(line)
        except ValueError:
            raise ParseError(f"malformed line {line!r}", line=ln) from None
    if n_samples is None or top is None or not levels:
        raise ParseError("missing n_samples, top1, or level lines", line=len(raw))
    return EvalReport(n_samples=n_samples, top1=top, levels=tuple(levels))


def write_confusion(matrix: np.ndarray, taxonomy: Taxonomy, level: int, path) -> None:
    n = matrix.shape[0]
    lines = [
        _CONFUSION_MAGIC,
        f"level {level} {taxonomy.level_names[level - 1]}",
        f"classes {n}",
    ]
    for i in range(n):
        row = " ".join(str(int(v)) for v in matrix[i])
        lines.append(f"{taxonomy.class_name(level, i)} {row}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_confusion(path) -> tuple[np.ndarray, int]:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != _CONFUSION_MAGIC:
        raise ParseError(f"expected header {_CONFUSION_MAGIC!r}", line=1)
    try:
        level = int(raw[1].split()[1])
        n = int(raw[2].split()[1])
    except (IndexError, ValueError):
        raise ParseError("bad level/classes header", line=2) from None
    rows = []
    for ln, line in enumerate(raw[3:], start=4):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != n + 1:
            raise ParseError(f"expected {n + 1} fields, got {len(parts)}", line=ln)
        try:
            rows.append([int(v) for v in parts[1:]])
        except ValueError:
            raise ParseError("bad count value", line=ln) from None
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}", line=len(raw))
    return np.array(rows, dtype=np.int64), level


def write_sweep(rows: Sequence[tuple[int | None, int, float]], path) -> None:
    """Rows of (supervision level or None, seed, top1)."""
    lines = [_SWEEP_MAGIC]
    for level, seed, acc in rows:
        tag = "none" if level is None else str(level)
        lines.append(f"level {tag} seed {seed} top1 {repr(float(acc))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sweep(path) -> list[tuple[int | None, int, float]]:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != _SWEEP_MAGIC:
        raise ParseError(f"expected header {_SWEEP_MAGIC!r}", line=1)
    rows = []
    for ln, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6 or parts[0] != "level" or parts[2] != "seed" \
                or parts[4] != "top1":
            raise ParseError(f"malformed line {line!r}", line=ln)
        try:
            level = None if parts[1] == "none" else int(parts[1])
            rows.append((level, int(parts[3]), float(parts[5])))
        except ValueError:
            raise ParseError(f"malformed line {line!r}", line=ln) from None
    return rows


def sweep_means(rows: Sequence[tuple[int | None, int, float]]) -> dict:
    """Mean top1 per supervision level, keyed by level (None for no coarse)."""
    acc: dict = {}
    for level, _, top in rows:
        acc.setdefault(level, []).append(top)
    return {level: float(np.mean(v)) for level, v in acc.items()}
