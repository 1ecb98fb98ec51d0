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

import struct
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, OutOfRange, ParseError, UnknownClass
from .records import (
    bounded,
    float64_bytes,
    float64_texts,
    parse_lines,
    read_record,
    value_parser,
    write_record,
)
from .taxonomy import (
    Taxonomy,
    build_taxonomy,
    default_level_names,
    is_name,
    shaped_taxonomy,
    _bounded_allocate,
)

_DATASET_FORMAT = "hierssl-dataset"

SPLIT_TAGS = ("labeled", "coarse_in", "coarse_out", "test")

COARSE_SOURCES = ("coarse_in", "union")


@dataclass(frozen=True, eq=False)
class Samples:
    """A set of samples as parallel arrays, one row per sample.

    ``X`` holds the ``(n, d)`` float64 features; ``label_level`` and
    ``label`` the provided label (a class index at that taxonomy level).
    ``true_species`` is the hidden ground-truth leaf index, -1 when the
    sample's species is not part of the modeled label space; so a sample
    is in-class exactly when ``true_species >= 0``. Generation and
    evaluation read it, and training reads it only to relabel a pool row
    at a ``supervision_level`` finer than its label (``labels_at_level``).
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


@dataclass(frozen=True)
class GenConfig:
    """Shape and noise parameters for the synthetic generator.

    ``level_counts`` gives the in-class tree's class count at each level,
    coarsest first. ``out_fraction`` is the fraction of all species held
    out as novel classes; they attach under existing ``out_attach_level``
    nodes, with center offsets scaled by ``out_offset_scale`` to control
    the severity of the domain shift.
    """

    level_counts: tuple[int, ...] = (3, 8, 12, 18, 27, 40, 60)
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

    def validate(self) -> None:
        counts = self.level_counts
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
        attach = self.attach_level()
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

    def attach_level(self) -> int:
        if self.out_attach_level is None:
            return len(self.level_counts) - 1
        return self.out_attach_level


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
    counts = config.level_counts
    depth = len(counts)
    level_names = tuple(config.level_names or default_level_names(depth))
    prefixes = _level_prefixes(level_names)

    in_tax = shaped_taxonomy(counts, level_names, name_prefixes=prefixes)

    # graft novel species (plus singleton chains below the attach level)
    attach = config.attach_level()
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
    out = out * rng.uniform(lo, hi, size=x.shape[:-1] + (1,))
    return out + sigma_strong * rng.standard_normal(x.shape)


# -- persistence ----------------------------------------------------------------


def _check_finite(split: DataSplit) -> None:
    """A non-finite feature is a DataError: no dataset file can hold it."""
    for tag in SPLIT_TAGS:
        if not np.isfinite(getattr(split, tag).X).all():
            raise DataError(f"non-finite feature value in the {tag} split")


# a save codes this many bytes of features in one base64 call, a load this much text
_BLOCK_BYTES = 24 << 10
# the header lines in file order, each with its parser
_HEADER = {"d": ("dim", bounded(int, 0)), "levels": ("level_names", value_parser(tuple[str, ...]))}


def _off_tree(tag: str, s: Samples, taxonomy: Taxonomy) -> np.ndarray:
    """The row rules of ``save_dataset`` and ``load_dataset``: an index out of
    range is OutOfRange, and the mask of rows whose species is not under
    their class is returned. A species is a leaf, or -1 for none."""
    level, label, species = s.label_level, s.label, s.true_species
    off = np.zeros(len(s), dtype=bool)
    for lvl in np.unique(level):
        above = taxonomy.ancestor_map(taxonomy.leaf_level, int(lvl))  # checks lvl
        rows = level == lvl
        bad = rows & ((label < 0) | (label >= taxonomy.class_counts[lvl - 1])
                      | (species < -1) | (species >= taxonomy.num_leaves))
        if bad.any():
            raise OutOfRange(f"the {tag} split's row {bad.argmax()}: "
                             "class or species index out of range")
        rows &= species >= 0
        off[rows] = above[species[rows]] != label[rows]
    return off


def save_dataset(split: DataSplit, taxonomy: Taxonomy, path) -> None:
    """One sample per line: split tag, level name, class name, species name
    or '-', then the features as one field, the base64 of the row's
    little-endian float64 bytes (``records.float64_texts``), which reads back
    bit for bit. A non-finite feature, splits with rows of two widths or a row
    against ``_off_tree``'s rules is an error before anything is written; then
    rows stream a block at a time."""
    _check_finite(split)
    parts = [(tag, getattr(split, tag)) for tag in SPLIT_TAGS]
    dim = next((s.X.shape[1] for _, s in parts if len(s)), 0)
    for tag, s in parts:
        if len(s) and (d := s.X.shape[1]) != dim:
            raise DataError(f"the {tag} split has {d} features per row, an earlier split {dim}")
        if (off := _off_tree(tag, s, taxonomy)).any():
            raise DataError(f"the {tag} split's row {off.argmax()}: "
                            "its species is not under its class")
    names = [taxonomy.class_names(level) for level in range(1, taxonomy.num_levels + 1)]
    species_names = names[-1] + ("-",)  # species -1 is the last
    step = max(1, _BLOCK_BYTES // (8 * dim + 1))

    def lines():
        yield f"d {dim}"
        yield "levels " + ",".join(taxonomy.level_names)
        for tag, s in parts:
            for at in range(0, len(s), step):
                rows = slice(at, at + step)
                yield "\n".join([f"{tag} {taxonomy.level_names[level - 1]} "
                                 f"{names[level - 1][label]} {species_names[species]} {field}"
                                 for level, label, species, field in zip(
                                     s.label_level[rows].tolist(), s.label[rows].tolist(),
                                     s.true_species[rows].tolist(), float64_texts(s.X[rows]))])
    write_record(path, f"{_DATASET_FORMAT} v2", lines())


def _v1_features(texts: list[str], dim: int) -> bytes:
    """The features of v1 rows, ``dim`` floats in text each, as
    ``float64_bytes`` returns v2 rows'."""
    text = "\n".join(texts)
    # one check per block, not per value: float() also reads "٣" and "1_0"
    if not text.isascii() or "_" in text:
        raise ValueError("feature values must be ASCII without '_'")
    if (got := next((len(t.split()) for t in texts if len(t.split()) != dim), dim)) != dim:
        raise ValueError(f"expected {4 + dim} fields, got {4 + got}")
    return struct.pack(f"<{dim * len(texts)}d", *map(float, text.split()))


def load_dataset(path, taxonomy: Taxonomy) -> DataSplit:
    """Read a dataset that ``save_dataset`` wrote, in v2 or in v1, whose rows
    spell each feature as a float in text. A block of rows that fails a check
    is read again row by row, so the file's first fault is raised at its line."""
    with read_record(path, _DATASET_FORMAT, (1, 2)) as body:
        features = {1: _v1_features, 2: float64_bytes}[body.version]
        dim, level_names = parse_lines(_HEADER, body)
        if level_names != taxonomy.level_names:
            raise ValueError(f"level names {level_names} do not match taxonomy "
                             f"{taxonomy.level_names}")
        # level name -> (level, class name -> index at that level)
        classes = {name: (level, {c: i for i, c in enumerate(taxonomy.class_names(level))})
                   for level, name in enumerate(level_names, 1)}
        species_index = {**classes[level_names[-1]][1], "-": -1}
        # each split's feature bytes, and its (level, label, species, line) per row
        rows = {tag: (bytearray(), array("q")) for tag in SPLIT_TAGS}

        def read_row(ln: int, line: str) -> None:  # the one place a row's fault is spelled
            parts = line.split(None, 4)
            if len(parts) < 4:
                raise ParseError("expected a split tag, level, class and species "
                                 f"before the features, got {line!r}", line=ln)
            tag, level_name, label_name, species_name = parts[:4]
            if tag not in rows:
                raise ParseError(f"unknown split tag {tag!r}", line=ln)
            if level_name not in classes:
                raise ParseError(f"unknown level {level_name!r}", line=ln)
            level, index = classes[level_name]
            for kind, at, known, name in (("class", level, index, label_name), (
                    "species", taxonomy.leaf_level, species_index, species_name)):
                if name not in known:
                    where = f"{level_names[at - 1]} ({taxonomy.class_counts[at - 1]} classes)"
                    raise UnknownClass(f"no {kind} named {name!r} at level {where}", line=ln)
            X, labels = rows[tag]
            try:
                X += features([parts[4] if len(parts) == 5 else ""], dim)
            except ValueError as exc:
                raise ParseError(str(exc), line=ln) from None
            labels.extend((level, index[label_name], species_index[species_name], ln))

        def read_block(block: list) -> None:
            got = {tag: ([], array("q")) for tag in SPLIT_TAGS}
            try:
                for ln, line in block:
                    tag, level_name, label_name, species_name, *field = line.split(None, 4)
                    texts, labels = got[tag]
                    level, index = classes[level_name]
                    labels.extend((level, index[label_name], species_index[species_name], ln))
                    texts.append(field[0] if field else "")
                done = [(rows[tag], features(texts, dim), labels)
                        for tag, (texts, labels) in got.items() if labels]
            except (KeyError, ValueError):
                for ln, line in block:
                    read_row(ln, line)
                return
            for (X, labels), raw, new in done:
                X += raw
                labels.extend(new)

        for piece in body.pieces(_BLOCK_BYTES):
            read_block([(ln, line) for ln, line in piece if line.strip()])
    split, bad_lines, off_tree = {}, [], []
    for tag, (X, labels) in rows.items():
        level, label, species, lines = np.frombuffer(labels, np.int64).reshape(-1, 4).T.copy()
        X = np.frombuffer(X, "<f8").reshape(len(level), dim)
        if not (finite := np.isfinite(X).all(axis=1)).all():
            bad_lines.append(lines[finite.argmin()])
        split[tag] = Samples(X=X, label_level=level, label=label, true_species=species)
        if (off := _off_tree(tag, split[tag], taxonomy)).any():
            off_tree.append(lines[off.argmax()])
    if bad_lines:
        raise ParseError("non-finite feature value", line=int(min(bad_lines)))
    if off_tree:
        raise ParseError("the row's species is not under its class", line=int(min(off_tree)))
    return DataSplit(**split)
