"""Synthetic hierarchical feature datasets and the on-disk dataset format.

The generator mirrors the split structure of coarse-label benchmarks:
a small species-labeled set, a larger coarsely labeled in-class pool, a
coarsely labeled out-of-class pool drawn from novel species grafted into
the same tree, and a species-labeled test set over the in-class species.

Class centers are built top-down: each class center is its parent's
center plus a Gaussian offset whose scale shrinks with depth, so coarse
classes are far apart and species within a genus are close. Features are
the species center plus isotropic noise. Everything is deterministic
given the config seed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError, UnknownClass
from .records import read_record, value_parser, write_record
from .taxonomy import (
    Taxonomy,
    build_taxonomy,
    default_level_names,
    is_name,
    shaped_taxonomy,
    _bounded_allocate,
)

_DATASET_MAGIC = "hierssl-dataset v1"

SPLIT_TAGS = ("labeled", "coarse_in", "coarse_out", "test")

COARSE_SOURCES = ("coarse_in", "union")


@dataclass(frozen=True, eq=False)
class Samples:
    """A set of samples as parallel arrays, one row per sample.

    ``X`` holds the ``(n, d)`` float64 features; ``label_level`` and
    ``label`` the provided label (a class index at that taxonomy level).
    ``true_species`` is the hidden ground-truth leaf index, -1 when the
    sample's species is not part of the modeled label space; so a sample
    is in-class exactly when ``true_species >= 0``. It is for generation
    and evaluation only; training never reads it.
    """

    X: np.ndarray
    label_level: np.ndarray
    label: np.ndarray
    true_species: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    def __add__(self, other: "Samples") -> "Samples":
        """The rows of ``self`` followed by the rows of ``other``."""
        return Samples(**{name: np.concatenate([col, getattr(other, name)])
                          for name, col in vars(self).items()})

    def take(self, rows) -> "Samples":
        """The rows selected by a boolean mask or any other numpy row index."""
        return Samples(**{name: col[rows] for name, col in vars(self).items()})


@dataclass(eq=False)
class DataSplit:
    labeled: Samples
    coarse_in: Samples
    coarse_out: Samples
    test: Samples

    def coarse(self, source: str) -> Samples:
        """The coarse pool named by ``source``: the in-class pool alone, or
        its union with the out-of-class pool."""
        if source == "coarse_in":
            return self.coarse_in
        if source == "union":
            return self.coarse_in + self.coarse_out
        raise ConfigError(f"coarse_source: unknown source {source!r}")


def features_of(samples: Samples) -> np.ndarray:
    return samples.X


def labels_at_level(samples: Samples, taxonomy: Taxonomy, level: int) -> np.ndarray:
    """Label of every sample re-expressed at ``level``.

    Coarser levels are derived from the provided label through the parent
    chain; finer levels need the hidden ground-truth species and exist
    only for generated data. One lookup per distinct label level.
    """
    label_level, label = samples.label_level, samples.label
    species = samples.true_species
    bad = (label_level < level) & (species < 0)
    if bad.any():
        raise UnknownClass(
            f"sample labeled at level {label_level[bad.argmax()]} cannot be "
            f"relabeled at finer level {level} without its ground-truth species"
        )
    out = label.copy()
    for lvl in np.unique(label_level):
        rows = label_level == lvl
        if level < lvl:
            out[rows] = taxonomy.ancestor_map(int(lvl), level)[label[rows]]
        elif level > lvl:
            out[rows] = taxonomy.ancestor_map(taxonomy.leaf_level, level)[species[rows]]
    return out


# -- generator config --------------------------------------------------------


@dataclass
class GenConfig:
    """Shape and noise parameters for the synthetic generator.

    ``level_counts`` gives explicit per-level class counts for the
    in-class tree; ``branching`` (children per node per level, coarsest
    first) is the multiplicative alternative and, when set, clears
    ``level_counts``. ``out_fraction`` is the fraction of all species held
    out as novel classes; they attach under existing ``out_attach_level``
    nodes, with center offsets scaled by ``out_offset_scale`` to control
    the severity of the domain shift.
    """

    level_counts: tuple[int, ...] | None = (3, 8, 12, 18, 27, 40, 60)
    branching: tuple[int, ...] | None = None
    dim: int = 32
    sigma_levels: tuple[float, ...] = (2.0, 1.4, 1.0, 0.8, 0.65, 0.5, 0.4)
    sigma_x: float = 2.4
    labeled_per_species: int = 3
    coarse_in_per_species: int = 25
    coarse_out_per_species: int = 25
    test_per_species: int = 12
    out_fraction: float = 2.0 / 3.0
    out_attach_level: int | None = None  # default: one level above the leaves
    out_offset_scale: float = 1.0
    long_tail_exponent: float = 0.0
    coarse_level: int = 2
    level_names: tuple[str, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.branching is not None:
            self.level_counts = None

    def resolved_counts(self) -> tuple[int, ...]:
        if self.branching is not None:
            counts = [int(self.branching[0])]
            for b in self.branching[1:]:
                counts.append(counts[-1] * int(b))
            return tuple(counts)
        if self.level_counts is None:
            raise ConfigError("one of level_counts or branching must be set")
        return tuple(int(c) for c in self.level_counts)

    def validate(self) -> None:
        counts = self.resolved_counts()
        depth = len(counts)
        if depth < 2:
            raise ConfigError("level_counts: need at least 2 levels")
        if any(c < 1 for c in counts):
            raise ConfigError("level_counts: all counts must be >= 1")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ConfigError("level_counts: counts must be nondecreasing")
        if self.level_names is not None:
            if len(self.level_names) != depth:
                raise ConfigError("level_names: wrong number of names")
            if len(set(self.level_names)) != depth:
                raise ConfigError("level_names: names must be distinct")
            for name in self.level_names:
                if not is_name(name):
                    raise ConfigError(f"level_names: {name!r} is empty or "
                                      "holds a comma or whitespace")
        if self.dim < 1:
            raise ConfigError("dim: must be >= 1")
        if len(self.sigma_levels) < depth:
            raise ConfigError(
                f"sigma_levels: need {depth} scales, got {len(self.sigma_levels)}"
            )
        if any(s <= 0 for s in self.sigma_levels[:depth]):
            raise ConfigError("sigma_levels: scales must be > 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.sigma_x < 0:
            raise ConfigError("sigma_x: must be >= 0")
        for name in ("labeled_per_species", "coarse_in_per_species",
                     "coarse_out_per_species", "test_per_species"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        if not 0 <= self.out_fraction < 1:
            raise ConfigError("out_fraction: must be in [0, 1)")
        attach = self.attach_level(depth)
        if not 1 <= attach <= depth - 1:
            raise ConfigError("out_attach_level: must be between 1 and the leaf level - 1")
        if self.out_offset_scale <= 0:
            raise ConfigError("out_offset_scale: must be > 0")
        if self.long_tail_exponent < 0:
            raise ConfigError("long_tail_exponent: must be >= 0")
        if not 1 <= self.coarse_level <= depth:
            raise ConfigError("coarse_level: out of range")
        if self.out_fraction > 0 and self.coarse_level > attach:
            raise ConfigError(
                "coarse_level: must not be finer than out_attach_level, "
                "otherwise out-of-class samples have no shared coarse label"
            )

    def attach_level(self, depth: int) -> int:
        return depth - 1 if self.out_attach_level is None else self.out_attach_level


@dataclass
class GenResult:
    """Full taxonomy (in-class plus novel species), the in-class label
    space used for training, and the generated splits expressed in it."""

    taxonomy: Taxonomy
    in_taxonomy: Taxonomy
    split: DataSplit


def _per_species_counts(base: int, n_species: int, exponent: float) -> list[int]:
    if base == 0 or n_species == 0:
        return [0] * n_species
    if exponent == 0.0:
        return [base] * n_species
    weights = [(r + 1.0) ** -exponent for r in range(n_species)]
    total = base * n_species
    return _bounded_allocate(total, weights, [0] * n_species, [total] * n_species)


def generate(config: GenConfig) -> GenResult:
    """Build the taxonomy, class centers, and all four splits; a feature
    that overflows (a huge ``sigma_x``) is a DataError."""
    config.validate()
    counts = config.resolved_counts()
    depth = len(counts)
    level_names = tuple(config.level_names or default_level_names(depth))
    prefixes = _level_prefixes(level_names)

    in_tax = shaped_taxonomy(counts, level_names, name_prefixes=prefixes)

    # graft novel species (plus singleton chains below the attach level)
    attach = config.attach_level(depth)
    n_in = counts[-1]
    n_out = int(round(n_in * config.out_fraction / (1.0 - config.out_fraction)))
    paths = in_tax.leaf_paths()
    out_names: list[str] = []
    novel: set[str] = set()  # every class on a grafted chain
    if n_out:
        attach_of = in_tax.ancestor_map(depth, attach)
        in_per_attach = np.bincount(attach_of, minlength=counts[attach - 1])
        alloc = _bounded_allocate(
            n_out, [max(int(c), 1) for c in in_per_attach],
            [0] * len(in_per_attach), [n_out] * len(in_per_attach),
        )
        # the first leaf under each attach class, whose path leads to it
        _, first_leaf = np.unique(attach_of, return_index=True)
        width = max(2, len(str(n_out - 1)))
        k = 0
        for attach_class, n_here in enumerate(alloc):
            base = paths[first_leaf[attach_class]][:attach]
            for _ in range(n_here):
                chain = tuple(
                    f"X{k:0{width}d}-{prefixes[l]}" for l in range(attach, depth)
                )
                paths.append(base + chain)
                out_names.append(chain[-1])
                novel.update(chain)
                k += 1
    full_tax = build_taxonomy(paths, level_names)

    rng = np.random.default_rng(config.seed)
    centers = _draw_centers(full_tax, config, rng, novel)

    leaf_centers = centers[depth - 1]
    in_full_ids, out_full_ids = (
        np.array([full_tax.class_index(depth, name) for name in names], dtype=np.int64)
        for names in (in_tax.class_names(depth), sorted(out_names)))

    k = config.coarse_level
    in_coarse = in_tax.ancestor_map(depth, k)
    # coarse labels of novel species, resolved by name into the in-class space
    full_coarse = full_tax.ancestor_map(depth, k)
    out_coarse = np.array(
        [in_tax.class_index(k, full_tax.class_name(k, full_coarse[f]))
         for f in out_full_ids],
        dtype=np.int64,
    )

    def draw(full_ids, per_species, level, labels, species):
        """``per_species[j]`` samples of species ``j``, in species order,
        drawn in one call: the same stream as one draw per sample."""
        rows = np.repeat(np.arange(len(per_species)), per_species)
        noise = rng.standard_normal((len(rows), config.dim))
        return Samples(
            X=leaf_centers[full_ids[rows]] + config.sigma_x * noise,
            label_level=np.full(len(rows), level, dtype=np.int64),
            label=labels[rows],
            true_species=species[rows],
        )

    in_ids = np.arange(n_in, dtype=np.int64)
    split = DataSplit(
        labeled=draw(in_full_ids, [config.labeled_per_species] * n_in,
                     depth, in_ids, in_ids),
        coarse_in=draw(in_full_ids, _per_species_counts(
            config.coarse_in_per_species, n_in, config.long_tail_exponent),
            k, in_coarse, in_ids),
        coarse_out=draw(out_full_ids, _per_species_counts(
            config.coarse_out_per_species, n_out, config.long_tail_exponent),
            k, out_coarse, np.full(n_out, -1, dtype=np.int64)),
        test=draw(in_full_ids, [config.test_per_species] * n_in,
                  depth, in_ids, in_ids),
    )
    _check_finite(split)
    return GenResult(taxonomy=full_tax, in_taxonomy=in_tax, split=split)


def _level_prefixes(level_names: Sequence[str]) -> list[str]:
    initials = [n[0].upper() for n in level_names]
    if len(set(initials)) == len(initials):
        return initials
    return [f"L{i}_" for i in range(1, len(level_names) + 1)]


def _draw_centers(taxonomy, config, rng, novel):
    """Per-level class centers, drawn in index order level by level.

    Classes named in ``novel``, the grafted novel-species chains, get
    their offsets scaled by ``out_offset_scale``, which controls how far
    the out-of-class clusters sit from their in-class siblings.
    """
    depth = taxonomy.num_levels
    centers = []
    for l in range(1, depth + 1):
        n = taxonomy.class_counts[l - 1]
        offsets = rng.standard_normal((n, config.dim))
        parent_centers = centers[-1][taxonomy.ancestor_map(l, l - 1)] if l > 1 else 0.0
        out_mask = np.array([nm in novel for nm in taxonomy.class_names(l)])
        scale = config.sigma_levels[l - 1] * np.where(
            out_mask, config.out_offset_scale, 1.0
        )
        centers.append(parent_centers + offsets * scale[:, None])
    return centers


# -- feature-space augmentations ----------------------------------------------


def augment_weak(x: np.ndarray, sigma_weak: float, rng: np.random.Generator) -> np.ndarray:
    """The weak view for consistency training: additive Gaussian noise."""
    x = np.asarray(x, dtype=np.float64)
    return x + sigma_weak * rng.standard_normal(x.shape)


def augment_strong(x: np.ndarray, sigma_strong: float, p_drop: float,
                   jitter: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    """The strong view: drops coordinates (with inverse-keep rescaling),
    jitters each row's scale, and adds larger noise. The asymmetry with the
    weak view, not the specific transforms, is what matters."""
    x = np.asarray(x, dtype=np.float64)
    keep = rng.random(x.shape) >= p_drop
    out = x * keep / (1.0 - p_drop)
    lo, hi = jitter
    scale_shape = x.shape[:-1] + (1,) if x.ndim > 1 else ()
    out = out * rng.uniform(lo, hi, size=scale_shape)
    return out + sigma_strong * rng.standard_normal(x.shape)


# -- persistence ----------------------------------------------------------------


def _check_finite(split: DataSplit) -> None:
    """A non-finite feature is a DataError: no dataset file can hold it."""
    for tag in SPLIT_TAGS:
        if not np.isfinite(getattr(split, tag).X).all():
            raise DataError(f"non-finite feature value in the {tag} split")


def save_dataset(split: DataSplit, taxonomy: Taxonomy, path) -> None:
    """One sample per line: split tag, level name, class name, species name
    or '-', then the feature floats (shortest round-trip formatting); a
    non-finite feature is a DataError before anything is written. Lines
    are streamed to the file as they are formatted."""
    _check_finite(split)
    parts = [(tag, getattr(split, tag)) for tag in SPLIT_TAGS]
    dim = next((s.X.shape[1] for _, s in parts if len(s)), 0)

    def lines():
        yield f"d {dim}"
        yield "levels " + ",".join(taxonomy.level_names)
        for tag, s in parts:
            for level, label, species, x in zip(
                    s.label_level.tolist(), s.label.tolist(),
                    s.true_species.tolist(), s.X):
                level_name = taxonomy.level_names[level - 1]
                label_name = taxonomy.class_name(level, label)
                species_name = (
                    taxonomy.class_name(taxonomy.leaf_level, species)
                    if species >= 0 else "-"
                )
                feats = " ".join(map(repr, x.tolist()))
                yield f"{tag} {level_name} {label_name} {species_name} {feats}"
    write_record(path, _DATASET_MAGIC, lines())


def load_dataset(path, taxonomy: Taxonomy) -> DataSplit:
    with read_record(path, _DATASET_MAGIC) as body:
        ln, line = next(body, (2, ""))
        key, _, dim = line.partition(" ")
        if key != "d" or (dim := value_parser(int)(dim)) < 0:
            raise ParseError(
                f"expected 'd <dim>' with dim >= 0, got {line!r}", line=ln
            )
        ln, line = next(body, (ln + 1, ""))
        key, _, names = line.partition(" ")
        if key != "levels":
            raise ParseError(f"expected a 'levels' line, got {line!r}", line=ln)
        level_names = tuple(names.split(","))
        if level_names != taxonomy.level_names:
            raise ParseError(
                f"level names {level_names} do not match taxonomy "
                f"{taxonomy.level_names}", line=ln,
            )
        level_index = {n: i + 1 for i, n in enumerate(level_names)}
        # each split's features, and its (level, label, species) per row
        rows = {tag: (array("d"), array("q")) for tag in SPLIT_TAGS}

        def lookup(ln: int, kind: str, level: int, name: str) -> int:
            try:
                return taxonomy.class_index(level, name)
            except UnknownClass:
                raise UnknownClass(
                    f"line {ln}: no {kind} named {name!r} at level "
                    f"{level_names[level - 1]} ({taxonomy.class_counts[level - 1]} classes)"
                ) from None

        for ln, line in body:
            parts = line.split(None, 4)
            text = parts.pop() if len(parts) == 5 else ""
            feats = text.split()
            if len(parts) + len(feats) != 4 + dim:
                raise ParseError(
                    f"expected {4 + dim} fields, got {len(parts) + len(feats)}", line=ln
                )
            tag, level_name, label_name, species_name = parts
            if tag not in rows:
                raise ParseError(f"unknown split tag {tag!r}", line=ln)
            level = level_index.get(level_name)
            if level is None:
                raise ParseError(f"unknown level {level_name!r}", line=ln)
            label = lookup(ln, "class", level, label_name)
            species = (-1 if species_name == "-" else
                       lookup(ln, "species", taxonomy.leaf_level, species_name))
            # one check per row, not per value: float() also reads "٣" and "1_0"
            if not text.isascii() or "_" in text:
                raise ParseError("feature values must be ASCII without '_'", line=ln)
            feats = [float(v) for v in feats]
            if not all(map(math.isfinite, feats)):
                raise ParseError("non-finite feature value", line=ln)
            X, labels = rows[tag]
            X.extend(feats)
            labels.extend((level, label, species))
    split = {}
    for tag, (X, labels) in rows.items():
        level, label, species = np.frombuffer(labels, np.int64).reshape(-1, 3).T.copy()
        split[tag] = Samples(X=np.frombuffer(X, np.float64).reshape(len(level), dim),
                             label_level=level, label=label, true_species=species)
    return DataSplit(**split)
