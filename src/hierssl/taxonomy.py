"""Tree-structured label spaces and exact probability marginalization.

A taxonomy is an L-level tree (level 1 coarsest, level L the leaves).
Classes at each level are indexed lexicographically by name, which makes
builds deterministic across runs and platforms. Instances are immutable
after construction and safe to share between workers.

Marginalizing a leaf-level distribution to a coarser level sums the
probability of every leaf under each coarse class. The heavy path uses
grouped summation over a precomputed ancestor map; the equivalent dense
0/1 matrix is still constructible for checks and linear-algebra use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    EmptyInput,
    InconsistentPath,
    LevelOrder,
    OutOfRange,
    ParseError,
    UnknownClass,
)
from .records import read_record, write_record

DEFAULT_LEVEL_NAMES = (
    "Kingdom", "Phylum", "Class", "Order", "Family", "Genus", "Species",
)

_TAXONOMY_MAGIC = "hierssl-taxonomy v1"


class Taxonomy:
    """An L-level tree of named classes with per-level integer indexing.

    ``parent_of(level)`` maps each class index at ``level`` (2..L) to its
    parent's index at ``level - 1``. Levels are 1-based throughout the
    public API.
    """

    def __init__(self, level_names, names_per_level, parents):
        self.level_names = tuple(level_names)
        self._names = tuple(tuple(ns) for ns in names_per_level)
        self._parents = [None] + [np.asarray(p, dtype=np.int64) for p in parents]
        self._index = [
            {name: i for i, name in enumerate(ns)} for ns in self._names
        ]
        # leaf -> class id at every level, built bottom-up once
        anc = [None] * self.num_levels
        anc[self.num_levels - 1] = np.arange(self.num_leaves, dtype=np.int64)
        for l in range(self.num_levels - 1, 0, -1):
            anc[l - 1] = self._parents[l][anc[l]]
        self._leaf_anc = anc
        self._validate()

    # -- basic structure -------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self._names)

    @property
    def leaf_level(self) -> int:
        return self.num_levels

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(ns) for ns in self._names)

    @property
    def num_leaves(self) -> int:
        return len(self._names[-1])

    def class_names(self, level: int) -> tuple[str, ...]:
        self._check_level(level)
        return self._names[level - 1]

    def class_name(self, level: int, index: int) -> str:
        self._check_level(level)
        names = self._names[level - 1]
        if not 0 <= index < len(names):
            raise OutOfRange(f"class index {index} out of range at level {level}")
        return names[index]

    def class_index(self, level: int, name: str) -> int:
        self._check_level(level)
        try:
            return self._index[level - 1][name]
        except KeyError:
            raise UnknownClass(f"no class named {name!r} at level {level}") from None

    def parent_of(self, level: int) -> np.ndarray:
        """Parent index at ``level - 1`` for every class at ``level`` (>= 2)."""
        self._check_level(level)
        if level == 1:
            raise LevelOrder("level 1 classes have no parent level")
        return self._parents[level - 1].copy()

    # -- ancestor queries --------------------------------------------------

    def ancestors(self, level: int) -> np.ndarray:
        """Ancestor class index at ``level`` for every leaf, as one array."""
        self._check_level(level)
        return self._leaf_anc[level - 1]

    def ancestor(self, leaf_id: int, level: int) -> int:
        """Unique ancestor of ``leaf_id`` at ``level``; identity at the leaves."""
        self._check_level(level)
        if not 0 <= leaf_id < self.num_leaves:
            raise OutOfRange(f"leaf index {leaf_id} out of range")
        return int(self._leaf_anc[level - 1][leaf_id])

    def ancestor_map(self, fine_level: int, coarse_level: int) -> np.ndarray:
        """Class index at ``coarse_level`` for every class at ``fine_level``.

        Accepts ``coarse_level == fine_level`` (identity map); the strict
        ordering check belongs to :func:`marginalization_matrix`.
        """
        self._check_level(fine_level)
        self._check_level(coarse_level)
        if coarse_level > fine_level:
            raise LevelOrder(
                f"coarse level {coarse_level} is finer than fine level {fine_level}"
            )
        mapping = np.arange(self.class_counts[fine_level - 1], dtype=np.int64)
        for l in range(fine_level, coarse_level, -1):
            mapping = self._parents[l - 1][mapping]
        return mapping

    def leaf_path(self, leaf_id: int) -> tuple[str, ...]:
        """Names of the leaf's ancestors, coarsest first."""
        return tuple(
            self._names[l][self._leaf_anc[l][leaf_id]]
            for l in range(self.num_levels)
        )

    # -- internals ---------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.num_levels:
            raise OutOfRange(
                f"level {level} out of range 1..{self.num_levels}"
            )

    def _validate(self) -> None:
        if self.num_levels < 2:
            raise DataError("a taxonomy needs at least 2 levels")
        if len(self.level_names) != self.num_levels:
            raise DimensionMismatch("level_names does not match level count")
        counts = self.class_counts
        for l in range(2, self.num_levels + 1):
            p = self._parents[l - 1]
            if len(p) != counts[l - 1]:
                raise DimensionMismatch(f"parent map at level {l} has wrong length")
            if counts[l - 1] and (p.min() < 0 or p.max() >= counts[l - 2]):
                raise OutOfRange(f"parent index out of range at level {l}")
            if len(np.unique(p)) != counts[l - 2]:
                raise DataError(
                    f"some class at level {l - 1} has no children at level {l}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return (
            self.level_names == other.level_names
            and self._names == other._names
            and all(
                np.array_equal(a, b)
                for a, b in zip(self._parents[1:], other._parents[1:])
            )
        )

    def __repr__(self) -> str:
        return f"Taxonomy(levels={self.level_names}, counts={self.class_counts})"


@dataclass(frozen=True)
class MarginalizationMatrix:
    """Edges between a fine level and a coarse level of one taxonomy.

    ``ancestor_map[r]`` is the coarse class under which fine class ``r``
    sits; the dense 0/1 matrix (one 1 per row) is derived from it.
    """

    fine_level: int
    coarse_level: int
    ancestor_map: np.ndarray
    n_coarse: int

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.ancestor_map), self.n_coarse)

    @property
    def dense(self) -> np.ndarray:
        w = np.zeros(self.shape)
        w[np.arange(len(self.ancestor_map)), self.ancestor_map] = 1.0
        return w

    def __post_init__(self):
        order = np.argsort(self.ancestor_map, kind="stable")
        starts = np.searchsorted(self.ancestor_map[order], np.arange(self.n_coarse))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_starts", starts)


def marginalization_matrix(
    taxonomy: Taxonomy, fine_level: int, coarse_level: int
) -> MarginalizationMatrix:
    """Edges from classes at ``fine_level`` down to ``coarse_level < fine_level``."""
    if coarse_level >= fine_level:
        raise LevelOrder(
            f"coarse level {coarse_level} must be strictly above fine level {fine_level}"
        )
    amap = taxonomy.ancestor_map(fine_level, coarse_level)
    return MarginalizationMatrix(
        fine_level=fine_level,
        coarse_level=coarse_level,
        ancestor_map=amap,
        n_coarse=taxonomy.class_counts[coarse_level - 1],
    )


def marginalize(probs: np.ndarray, w: MarginalizationMatrix) -> np.ndarray:
    """Sum fine-class mass onto coarse classes: out[c] = sum of probs under c.

    Accepts a single distribution or a batch (last axis = fine classes).
    Total mass is preserved exactly; summation order is fixed (ascending
    fine index within each coarse class), so results are deterministic.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n_fine = len(w.ancestor_map)
    if probs.shape[-1] != n_fine:
        raise DimensionMismatch(
            f"distribution has {probs.shape[-1]} entries, matrix expects {n_fine}"
        )
    gathered = probs[..., w._order]
    return np.add.reduceat(gathered, w._starts, axis=-1)


def coarse_probs(taxonomy: Taxonomy, leaf_probs: np.ndarray, level: int) -> np.ndarray:
    """Leaf distribution(s) marginalized up to ``level`` (identity at leaves)."""
    if level == taxonomy.leaf_level:
        return np.asarray(leaf_probs, dtype=np.float64)
    return marginalize(leaf_probs, marginalization_matrix(taxonomy, taxonomy.leaf_level, level))


# -- construction ----------------------------------------------------------


def build_taxonomy(
    leaf_paths: Iterable[Sequence[str]],
    level_names: Sequence[str] | None = None,
) -> Taxonomy:
    """Build a taxonomy from per-leaf ancestor tuples, coarsest name first.

    Class indexing is lexicographic by name within each level. A class
    name may appear under only one parent; the label graph must be a tree.
    """
    paths = [tuple(p) for p in leaf_paths]
    if not paths:
        raise EmptyInput("no leaf paths given")
    depth = len(paths[0])
    if depth < 2:
        raise DataError("leaf paths must cover at least 2 levels")
    for p in paths:
        if len(p) != depth:
            raise InconsistentPath(
                f"path {p} has {len(p)} levels, expected {depth}"
            )
        for name in p:
            if not name:
                raise DataError(f"empty class name in path {p}")
            if "," in name or any(ch.isspace() for ch in name):
                raise DataError(
                    f"class name {name!r} contains a comma or whitespace"
                )
    if len(set(paths)) != len(paths):
        dupes = sorted({p for p in paths if paths.count(p) > 1})
        raise InconsistentPath(f"duplicate leaf path {dupes[0]}")

    # name -> parent name per level; a second, different parent is an error
    parent_name: list[dict[str, str]] = [dict() for _ in range(depth)]
    for p in paths:
        for l in range(1, depth):
            seen = parent_name[l].get(p[l])
            if seen is None:
                parent_name[l][p[l]] = p[l - 1]
            elif seen != p[l - 1]:
                raise InconsistentPath(
                    f"class {p[l]!r} at level {l + 1} appears under both "
                    f"{seen!r} and {p[l - 1]!r}"
                )

    names = [tuple(sorted({p[l] for p in paths})) for l in range(depth)]
    index = [{n: i for i, n in enumerate(ns)} for ns in names]
    parents = []
    for l in range(1, depth):
        parents.append(
            np.array(
                [index[l - 1][parent_name[l][n]] for n in names[l]],
                dtype=np.int64,
            )
        )
    if level_names is None:
        level_names = default_level_names(depth)
    if len(level_names) != depth:
        raise DimensionMismatch(
            f"{len(level_names)} level names for {depth} levels"
        )
    return Taxonomy(level_names, names, parents)


def default_level_names(depth: int) -> tuple[str, ...]:
    if depth == len(DEFAULT_LEVEL_NAMES):
        return DEFAULT_LEVEL_NAMES
    return tuple(f"L{i}" for i in range(1, depth + 1))


# -- persistence ------------------------------------------------------------


def save_taxonomy(taxonomy: Taxonomy, path) -> None:
    """Write one leaf path per line, names comma-joined, sorted; header names the levels."""
    leaves = sorted(range(taxonomy.num_leaves), key=taxonomy.leaf_path)
    write_record(path, _TAXONOMY_MAGIC, [
        ",".join(taxonomy.level_names),
        *(",".join(taxonomy.leaf_path(leaf)) for leaf in leaves),
    ])


def load_taxonomy(path) -> Taxonomy:
    with read_record(path, _TAXONOMY_MAGIC) as body:
        lines = iter(body)
        ln, line = next(lines, (None, None))
        if line is None:
            raise EmptyInput(f"{path} has no level-name line")
        level_names = [n.strip() for n in line.split(",")]
        if any(not n for n in level_names):
            raise ParseError("empty level name", line=ln)
        paths = []
        for ln, line in lines:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != len(level_names):
                raise ParseError(
                    f"expected {len(level_names)} names, got {len(parts)}", line=ln
                )
            paths.append(tuple(parts))
    if not paths:
        raise EmptyInput(f"{path} lists no leaves")
    return build_taxonomy(paths, level_names)


# -- deterministic shaped trees ----------------------------------------------


def shaped_taxonomy(
    level_counts: Sequence[int],
    level_names: Sequence[str] | None = None,
    name_prefixes: Sequence[str] | None = None,
) -> Taxonomy:
    """A deterministic tree with the given per-level class counts.

    Children are spread proportionally: class ``i`` at level ``l+1`` hangs
    under class ``floor(i * n_l / n_{l+1})`` at level ``l``. Counts must be
    nondecreasing so every class keeps at least one child.
    """
    counts = [int(c) for c in level_counts]
    if len(counts) < 2:
        raise DataError("need at least 2 levels")
    if counts[0] < 1:
        raise DataError("level 1 needs at least one class")
    for a, b in zip(counts, counts[1:]):
        if b < a:
            raise DataError(f"class counts must be nondecreasing, got {a} then {b}")
    depth = len(counts)
    if name_prefixes is None:
        name_prefixes = [f"L{l}" for l in range(1, depth + 1)]
    widths = [max(2, len(str(c - 1))) for c in counts]
    names = [
        [f"{name_prefixes[l]}{i:0{widths[l]}d}" for i in range(counts[l])]
        for l in range(depth)
    ]
    paths = []
    for leaf in range(counts[-1]):
        idx = leaf
        chain = [names[-1][leaf]]
        for l in range(depth - 1, 0, -1):
            idx = idx * counts[l - 1] // counts[l]
            chain.append(names[l - 1][idx])
        paths.append(tuple(reversed(chain)))
    return build_taxonomy(paths, level_names or default_level_names(depth))


# Kingdom / Phylum / in-class species layout of the Semi-iNat benchmark,
# with the four internal level totals it reports.
SEMI_INAT_PHYLA = (
    ("Animalia", "Mollusca", 11),
    ("Animalia", "Chordata", 113),
    ("Animalia", "Arthropoda", 301),
    ("Animalia", "Echinodermata", 4),
    ("Plantae", "Tracheophyta", 336),
    ("Plantae", "Bryophyta", 6),
    ("Fungi", "Basidiomycota", 29),
    ("Fungi", "Ascomycota", 10),
)
SEMI_INAT_LEVEL_COUNTS = (3, 8, 29, 123, 339, 729, 810)


def _bounded_allocate(total, weights, lo, hi):
    """Integer allocation near-proportional to weights, within [lo, hi] per slot."""
    counts = list(lo)
    remaining = total - sum(counts)
    if remaining < 0 or total > sum(hi):
        raise DataError("allocation bounds are infeasible")
    while remaining > 0:
        best, best_score = -1, -1.0
        for i, w in enumerate(weights):
            if counts[i] >= hi[i]:
                continue
            score = w / (counts[i] + 1)
            if score > best_score:
                best, best_score = i, score
        counts[best] += 1
        remaining -= 1
    return counts


def semi_inat_taxonomy() -> Taxonomy:
    """A 7-level tree with the Semi-iNat in-class shape.

    Kingdom and Phylum names and per-Phylum species counts follow the
    published statistics; the Class..Genus tiers are synthesized so that
    the per-level totals come out to (3, 8, 29, 123, 339, 729, 810).
    """
    species = [s for _, _, s in SEMI_INAT_PHYLA]
    per_phylum = [[1] * len(SEMI_INAT_PHYLA)]  # each phylum is 1 class at its own level
    for total in SEMI_INAT_LEVEL_COUNTS[2:-1]:
        per_phylum.append(
            _bounded_allocate(total, species, per_phylum[-1], species)
        )
    per_phylum.append(species)

    paths = []
    for p, (kingdom, phylum, _) in enumerate(SEMI_INAT_PHYLA):
        counts = [row[p] for row in per_phylum[1:]]  # Class .. Species
        sub = shaped_taxonomy(
            counts,
            name_prefixes=[f"{phylum}-C", f"{phylum}-O", f"{phylum}-F",
                           f"{phylum}-G", f"{phylum}-S"],
        )
        for leaf in range(sub.num_leaves):
            paths.append((kingdom, phylum) + sub.leaf_path(leaf))
    return build_taxonomy(paths, DEFAULT_LEVEL_NAMES)
