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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ParseError, UnknownClass
from .records import read_record, write_record
from .taxonomy import (
    Taxonomy,
    build_taxonomy,
    default_level_names,
    shaped_taxonomy,
    _bounded_allocate,
)

_DATASET_MAGIC = "hierssl-dataset v1"

ORIGIN_IN = "in_class"
ORIGIN_OUT = "out_of_class"

SPLIT_TAGS = ("labeled", "coarse_in", "coarse_out", "test")


@dataclass
class Sample:
    """One feature vector with a label at some taxonomy level.

    ``true_species`` is the hidden ground-truth leaf index (-1 when the
    sample's species is not part of the modeled label space) and
    ``origin`` records whether it came from an in-class or novel species.
    Both are for generation and evaluation only; training never reads them.
    """

    features: np.ndarray
    label_level: int
    label: int
    true_species: int = -1
    origin: str = ORIGIN_IN


@dataclass
class DataSplit:
    labeled: tuple[Sample, ...] = ()
    coarse_in: tuple[Sample, ...] = ()
    coarse_out: tuple[Sample, ...] = ()
    test: tuple[Sample, ...] = ()

    def replace_coarse(self, kept: Sequence[Sample]) -> "DataSplit":
        """A copy whose coarse pool is exactly ``kept`` (labeled/test untouched)."""
        return DataSplit(
            labeled=self.labeled,
            coarse_in=tuple(kept),
            coarse_out=(),
            test=self.test,
        )


def features_of(samples: Sequence[Sample]) -> np.ndarray:
    if not samples:
        return np.zeros((0, 0))
    return np.stack([s.features for s in samples])


def labels_of(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.int64)


def true_species_of(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([s.true_species for s in samples], dtype=np.int64)


def labels_at_level(
    samples: Sequence[Sample], taxonomy: Taxonomy, level: int
) -> np.ndarray:
    """Label of every sample re-expressed at ``level``.

    Coarser levels are derived from the provided label through the parent
    chain; finer levels need the hidden ground-truth species and exist
    only for generated data. One lookup per distinct label level.
    """
    n = len(samples)
    label_level = np.fromiter((s.label_level for s in samples), np.int64, n)
    label = np.fromiter((s.label for s in samples), np.int64, n)
    species = np.fromiter((s.true_species for s in samples), np.int64, n)
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
            out[rows] = taxonomy.ancestors(level)[species[rows]]
    return out


# -- generator config --------------------------------------------------------


@dataclass
class GenConfig:
    """Shape and noise parameters for the synthetic generator.

    ``level_counts`` gives explicit per-level class counts for the
    in-class tree; ``branching`` (children per node per level, coarsest
    first) is the multiplicative alternative. ``out_fraction`` is the
    fraction of all species held out as novel classes; they attach under
    existing ``out_attach_level`` nodes, with center offsets scaled by
    ``out_offset_scale`` to control the severity of the domain shift.
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
        if self.dim < 1:
            raise ConfigError("dim: must be >= 1")
        if len(self.sigma_levels) < depth:
            raise ConfigError(
                f"sigma_levels: need {depth} scales, got {len(self.sigma_levels)}"
            )
        if any(s <= 0 for s in self.sigma_levels[:depth]):
            raise ConfigError("sigma_levels: scales must be > 0")
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
    """Build the taxonomy, class centers, and all four splits."""
    config.validate()
    counts = config.resolved_counts()
    depth = len(counts)
    level_names = tuple(config.level_names or default_level_names(depth))
    if len(level_names) != depth:
        raise ConfigError("level_names: wrong number of names")
    prefixes = _level_prefixes(level_names)

    in_tax = shaped_taxonomy(counts, level_names, name_prefixes=prefixes)

    # graft novel species (plus singleton chains below the attach level)
    attach = config.attach_level(depth)
    n_in = counts[-1]
    n_out = int(round(n_in * config.out_fraction / (1.0 - config.out_fraction)))
    paths = [in_tax.leaf_path(leaf) for leaf in range(n_in)]
    out_names: list[str] = []
    if n_out:
        in_per_attach = np.bincount(
            in_tax.ancestors(attach), minlength=counts[attach - 1]
        )
        alloc = _bounded_allocate(
            n_out, [max(int(c), 1) for c in in_per_attach],
            [0] * len(in_per_attach), [n_out] * len(in_per_attach),
        )
        width = max(2, len(str(n_out - 1)))
        k = 0
        for attach_class, n_here in enumerate(alloc):
            base = _class_path(in_tax, attach, attach_class)
            for _ in range(n_here):
                chain = tuple(
                    f"X{k:0{width}d}-{prefixes[l]}" for l in range(attach, depth)
                )
                paths.append(base + chain)
                out_names.append(paths[-1][-1])
                k += 1
    full_tax = build_taxonomy(paths, level_names)

    rng = np.random.default_rng(config.seed)
    centers = _draw_centers(full_tax, config, rng, set(out_names))

    leaf_centers = centers[depth - 1]
    in_leaf_of = {full_tax.class_name(depth, i): i for i in range(full_tax.num_leaves)}
    in_full_ids = np.array(
        [in_leaf_of[in_tax.class_name(depth, i)] for i in range(n_in)]
    )
    out_full_ids = np.array(
        [in_leaf_of[name] for name in sorted(out_names)], dtype=np.int64
    )

    k = config.coarse_level
    in_coarse = in_tax.ancestors(k)
    # coarse labels of novel species, resolved by name into the in-class space
    out_coarse = np.array(
        [
            in_tax.class_index(k, full_tax.class_name(k, full_tax.ancestors(k)[f]))
            for f in out_full_ids
        ],
        dtype=np.int64,
    ) if n_out else np.zeros(0, dtype=np.int64)

    def draw(center: np.ndarray) -> np.ndarray:
        return center + config.sigma_x * rng.standard_normal(config.dim)

    labeled = []
    for s in range(n_in):
        for _ in range(config.labeled_per_species):
            labeled.append(Sample(draw(leaf_centers[in_full_ids[s]]),
                                  depth, s, true_species=s))
    coarse_in = []
    for s, n_here in enumerate(_per_species_counts(
            config.coarse_in_per_species, n_in, config.long_tail_exponent)):
        for _ in range(n_here):
            coarse_in.append(Sample(draw(leaf_centers[in_full_ids[s]]),
                                    k, int(in_coarse[s]), true_species=s))
    coarse_out = []
    for j, n_here in enumerate(_per_species_counts(
            config.coarse_out_per_species, n_out, config.long_tail_exponent)):
        for _ in range(n_here):
            coarse_out.append(Sample(draw(leaf_centers[out_full_ids[j]]),
                                     k, int(out_coarse[j]),
                                     true_species=-1, origin=ORIGIN_OUT))
    test = []
    for s in range(n_in):
        for _ in range(config.test_per_species):
            test.append(Sample(draw(leaf_centers[in_full_ids[s]]),
                               depth, s, true_species=s))

    split = DataSplit(tuple(labeled), tuple(coarse_in), tuple(coarse_out), tuple(test))
    return GenResult(taxonomy=full_tax, in_taxonomy=in_tax, split=split)


def _level_prefixes(level_names: Sequence[str]) -> list[str]:
    initials = [n[0].upper() for n in level_names]
    if len(set(initials)) == len(initials):
        return initials
    return [f"L{i}_" for i in range(1, len(level_names) + 1)]


def _class_path(taxonomy: Taxonomy, level: int, class_id: int) -> tuple[str, ...]:
    """Names of a class's ancestors, coarsest first, ending at the class."""
    names = []
    idx = class_id
    for l in range(level, 0, -1):
        names.append(taxonomy.class_name(l, idx))
        if l > 1:
            idx = int(taxonomy.parent_of(l)[idx])
    return tuple(reversed(names))


def _draw_centers(taxonomy, config, rng, out_names):
    """Per-level class centers, drawn in index order level by level.

    Classes on a novel-species chain get their offsets scaled by
    ``out_offset_scale``, which controls how far the out-of-class
    clusters sit from their in-class siblings.
    """
    depth = taxonomy.num_levels
    centers = []
    for l in range(1, depth + 1):
        n = taxonomy.class_counts[l - 1]
        offsets = rng.standard_normal((n, config.dim))
        if l == 1:
            parent_centers = np.zeros((n, config.dim))
            out_mask = np.zeros(n, dtype=bool)
        else:
            parent = taxonomy.parent_of(l)
            parent_centers = centers[-1][parent]
            # novel-species chain classes are named "X<k>-<prefix>"
            out_mask = np.array(
                [nm in out_names or (nm.startswith("X") and "-" in nm)
                 for nm in taxonomy.class_names(l)]
            )
        scale = config.sigma_levels[l - 1] * np.where(
            out_mask, config.out_offset_scale, 1.0
        )
        centers.append(parent_centers + offsets * scale[:, None])
    return centers


# -- feature-space augmentations ----------------------------------------------


@dataclass(frozen=True)
class AugmentParams:
    """Weak/strong perturbation strengths for consistency training.

    Weak is additive Gaussian noise; strong drops coordinates (with
    inverse-keep rescaling), jitters the overall scale, and adds larger
    noise. The asymmetry, not the specific transforms, is what matters.
    """

    sigma_weak: float = 0.1
    sigma_strong: float = 0.6
    p_drop: float = 0.1
    jitter: tuple[float, float] = (0.9, 1.1)

    def validate(self) -> None:
        if self.sigma_weak < 0:
            raise ConfigError("sigma_weak: must be >= 0")
        if self.sigma_strong < self.sigma_weak:
            raise ConfigError("sigma_strong: must be >= sigma_weak")
        if not 0 <= self.p_drop < 1:
            raise ConfigError("p_drop: must be in [0, 1)")
        lo, hi = self.jitter
        if not 0 < lo <= hi:
            raise ConfigError("jitter: need 0 < lo <= hi")


def augment_weak(x: np.ndarray, sigma_weak: float, rng: np.random.Generator) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x + sigma_weak * rng.standard_normal(x.shape)


def augment_strong(
    x: np.ndarray, params: AugmentParams, rng: np.random.Generator
) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    keep = rng.random(x.shape) >= params.p_drop
    out = x * keep / (1.0 - params.p_drop)
    lo, hi = params.jitter
    scale_shape = x.shape[:-1] + (1,) if x.ndim > 1 else ()
    out = out * rng.uniform(lo, hi, size=scale_shape)
    return out + params.sigma_strong * rng.standard_normal(x.shape)


# -- persistence ----------------------------------------------------------------


def save_dataset(split: DataSplit, taxonomy: Taxonomy, path) -> None:
    """One sample per line: split tag, level name, class name, species name
    or '-', then the feature floats (shortest round-trip formatting)."""
    dim = None
    lines = []
    for tag in SPLIT_TAGS:
        for s in getattr(split, tag):
            if dim is None:
                dim = len(s.features)
            level_name = taxonomy.level_names[s.label_level - 1]
            label_name = taxonomy.class_name(s.label_level, s.label)
            species = (
                taxonomy.class_name(taxonomy.leaf_level, s.true_species)
                if s.true_species >= 0 else "-"
            )
            feats = " ".join(repr(float(v)) for v in s.features)
            lines.append(f"{tag} {level_name} {label_name} {species} {feats}")
    if dim is None:
        dim = 0
    write_record(path, _DATASET_MAGIC, [
        f"d {dim}",
        "levels " + ",".join(taxonomy.level_names),
        *lines,
    ])


def load_dataset(path, taxonomy: Taxonomy) -> DataSplit:
    buckets: dict[str, list[Sample]] = {tag: [] for tag in SPLIT_TAGS}
    with read_record(path, _DATASET_MAGIC) as body:
        lines = iter(body)
        ln, line = next(lines, (2, ""))
        key, _, dim = line.partition(" ")
        if key != "d" or not dim.isdigit():
            raise ParseError(
                f"expected 'd <dim>' with dim >= 0, got {line!r}", line=ln
            )
        dim = int(dim)
        ln, line = next(lines, (ln + 1, ""))
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

        for ln, line in lines:
            parts = line.split()
            if len(parts) != 4 + dim:
                raise ParseError(
                    f"expected {4 + dim} fields, got {len(parts)}", line=ln
                )
            tag, level_name, label_name, species_name = parts[:4]
            if tag not in buckets:
                raise ParseError(f"unknown split tag {tag!r}", line=ln)
            level = level_index.get(level_name)
            if level is None:
                raise ParseError(f"unknown level {level_name!r}", line=ln)
            try:
                label = taxonomy.class_index(level, label_name)
            except UnknownClass:
                raise UnknownClass(
                    f"line {ln}: no class named {label_name!r} at level "
                    f"{level_name} ({taxonomy.class_counts[level - 1]} classes)"
                ) from None
            if species_name == "-":
                species = -1
            else:
                try:
                    species = taxonomy.class_index(taxonomy.leaf_level, species_name)
                except UnknownClass:
                    raise UnknownClass(
                        f"line {ln}: no species named {species_name!r} at level "
                        f"{taxonomy.level_names[-1]} ({taxonomy.num_leaves} classes)"
                    ) from None
            feats = np.array([float(v) for v in parts[4:]], dtype=np.float64)
            if not np.all(np.isfinite(feats)):
                raise ParseError("non-finite feature value", line=ln)
            origin = ORIGIN_OUT if tag == "coarse_out" else ORIGIN_IN
            buckets[tag].append(
                Sample(feats, level, label, true_species=species, origin=origin)
            )
    return DataSplit(**{tag: tuple(buckets[tag]) for tag in SPLIT_TAGS})
