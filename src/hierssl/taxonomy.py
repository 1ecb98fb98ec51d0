"""Tree-structured label spaces and exact probability marginalization.

A taxonomy is an L-level tree (level 1 coarsest, level L the leaves).
Classes at each level are indexed lexicographically by name, which makes
builds deterministic across runs and platforms. Instances are immutable
after construction and safe to share between workers.

Marginalizing a leaf-level distribution to a coarser level sums the
probability of every leaf under each coarse class, by grouped summation
over a precomputed ancestor map. When the ancestor map is nondecreasing,
every coarse class's leaves are already contiguous and the sum reads the
input in place; only unsorted maps gather a reordered copy first. Every
level of a ``shaped_taxonomy`` tree is sorted, and so are Semi-iNat
levels 2 and finer. Semi-iNat level 1 (Kingdom) is not: leaves sort by
phylum name, and one kingdom's phyla are not adjacent in that order.
"""

from __future__ import annotations

import heapq
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

    ``ancestor_map(level, level - 1)`` maps each class index at ``level``
    (2..L) to its parent's index. Levels are 1-based throughout the public
    API.
    """

    def __init__(self, level_names, names_per_level, parents):
        self.level_names = tuple(level_names)
        self._names = tuple(tuple(ns) for ns in names_per_level)
        self._parents = [None] + [np.asarray(p, dtype=np.int64) for p in parents]
        self._index = [
            {name: i for i, name in enumerate(ns)} for ns in self._names
        ]
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

    # -- ancestor queries --------------------------------------------------

    def ancestor_map(self, fine_level: int, coarse_level: int) -> np.ndarray:
        """Class index at ``coarse_level`` for every class at ``fine_level``.

        Accepts ``coarse_level == fine_level`` (identity map).
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

    def leaf_paths(self) -> list[tuple[str, ...]]:
        """Every leaf's ancestor names, coarsest first, in leaf-index order."""
        return list(zip(*(
            [names[i] for i in self.ancestor_map(self.leaf_level, level)]
            for level, names in enumerate(self._names, 1)
        )))

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
        if len(self._parents) != self.num_levels:
            raise DimensionMismatch("need one parent map per level below the first")
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
    """Edges from a fine level to a coarse level of one taxonomy:
    ``ancestor_map[r]`` is the coarse class under which fine class ``r``
    sits."""

    ancestor_map: np.ndarray
    n_coarse: int

    def __post_init__(self):
        amap = self.ancestor_map
        if amap.size and (amap.min() < 0 or amap.max() >= self.n_coarse):
            raise OutOfRange(f"ancestor map index out of range 0..{self.n_coarse - 1}")
        if not np.bincount(amap, minlength=self.n_coarse).all():
            raise DataError("some coarse class has no fine class")
        # A nondecreasing map is its own stable argsort: _order is None and
        # marginalize sums the input in place instead of gathering a copy.
        order = None
        if np.any(amap[:-1] > amap[1:]):
            order = np.argsort(amap, kind="stable")
            amap = amap[order]
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_starts", np.searchsorted(amap, np.arange(self.n_coarse)))

    @classmethod
    def between(cls, taxonomy: Taxonomy, fine_level: int, coarse_level: int):
        """Edges from ``fine_level`` to ``coarse_level``; the identity when equal."""
        return cls(taxonomy.ancestor_map(fine_level, coarse_level),
                   taxonomy.class_counts[coarse_level - 1])


def _distribution(probs, n_fine: int) -> np.ndarray:
    """``probs`` as float64 whose last axis holds ``n_fine`` entries."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[-1:] != (n_fine,):
        raise DimensionMismatch(
            f"distribution of shape {probs.shape}, expected {n_fine} entries on the last axis"
        )
    return probs


def marginalize(probs: np.ndarray, w: MarginalizationMatrix) -> np.ndarray:
    """Sum fine-class mass onto coarse classes: out[c] = sum of probs under c.

    Accepts a single distribution or a batch (last axis = fine classes).
    Total mass is preserved exactly; summation order is fixed (ascending
    fine index within each coarse class), so results are deterministic.
    A sorted ancestor map (every ``shaped_taxonomy`` level, Semi-iNat
    levels 2 and finer) is summed in place; an unsorted one (Semi-iNat
    level 1) is first gathered into coarse-class order.
    """
    probs = _distribution(probs, len(w.ancestor_map))
    if w._order is not None:
        probs = probs[..., w._order]
    return np.add.reduceat(probs, w._starts, axis=-1)


def coarse_probs(taxonomy: Taxonomy, leaf_probs: np.ndarray, level: int) -> np.ndarray:
    """Leaf distribution(s) marginalized up to ``level`` (identity at leaves)."""
    if level == taxonomy.leaf_level:
        return _distribution(leaf_probs, taxonomy.num_leaves)
    w = MarginalizationMatrix.between(taxonomy, taxonomy.leaf_level, level)
    return marginalize(leaf_probs, w)


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
    write_record(path, _TAXONOMY_MAGIC, [
        ",".join(taxonomy.level_names),
        *(",".join(p) for p in sorted(taxonomy.leaf_paths())),
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
    # each unit goes to the open slot of highest w / (count + 1), lowest index on ties
    heap = [(-(w / (c + 1)), i) for i, (w, c) in enumerate(zip(weights, counts)) if c < hi[i]]
    heapq.heapify(heap)
    for _ in range(remaining):
        _, i = heapq.heappop(heap)
        counts[i] += 1
        if counts[i] < hi[i]:
            heapq.heappush(heap, (-(weights[i] / (counts[i] + 1)), i))
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
        paths.extend((kingdom, phylum) + p for p in sub.leaf_paths())
    return build_taxonomy(paths, DEFAULT_LEVEL_NAMES)
