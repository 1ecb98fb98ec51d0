"""Synthetic dataset generation: split shapes, determinism, label
relabeling, augmentations, and the dataset text round trip."""

import base64
import hashlib
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hierssl.data import (
    COARSE_SOURCES,
    SPLIT_TAGS,
    DataSplit,
    GenConfig,
    augment_strong,
    augment_weak,
    features_of,
    generate,
    labels_at_level,
    load_dataset,
    save_dataset,
)
from hierssl.errors import ConfigError, DataError, OutOfRange, ParseError, UnknownClass
from hierssl.trainers import TrainConfig

from _reference import content_digest

TOY = GenConfig(level_counts=(1, 2, 8), dim=8, seed=0)
# save_dataset(generate(TOY)...) as written by the v1 writer, whose rows
# spell each feature as a shortest round-trip float
V1_TOY = Path(__file__).parent / "data" / "dataset_v1_toy.txt"


@pytest.fixture(scope="module")
def default_gen():
    return generate(GenConfig())


def split_features(split: DataSplit) -> np.ndarray:
    return np.concatenate([
        features_of(split.labeled), features_of(split.coarse_in),
        features_of(split.coarse_out), features_of(split.test),
    ])


class TestDefaultShapes:
    def test_split_sizes(self, default_gen):
        s = default_gen.split
        assert len(s.labeled) == 60 * 3
        assert len(s.coarse_in) == 60 * 25
        assert len(s.coarse_out) == 120 * 25
        assert len(s.test) == 60 * 12

    def test_taxonomy_shapes(self, default_gen):
        assert default_gen.in_taxonomy.class_counts == (3, 8, 12, 18, 27, 40, 60)
        # novel species graft below the genus level, one chain each
        assert default_gen.taxonomy.num_leaves == 180
        assert default_gen.taxonomy.class_counts[:5] == (3, 8, 12, 18, 27)

    def test_feature_dim(self, default_gen):
        assert features_of(default_gen.split.labeled).shape == (180, 32)

    def test_label_levels_and_origins(self, default_gen):
        s = default_gen.split
        assert set(s.labeled.label_level.tolist()) == {7}
        assert set(s.test.label_level.tolist()) == {7}
        assert set(s.coarse_in.label_level.tolist()) == {2}
        assert set(s.coarse_out.label_level.tolist()) == {2}
        in_class = s.labeled + s.coarse_in + s.test
        assert (in_class.true_species >= 0).all()
        assert (s.coarse_out.true_species == -1).all()

    def test_every_species_appears_in_labeled(self, default_gen):
        assert set(default_gen.split.labeled.label.tolist()) == set(range(60))
        assert np.array_equal(
            default_gen.split.labeled.label,
            default_gen.split.labeled.true_species,
        )

    def test_coarse_labels_are_phylum_indices(self, default_gen):
        tax = default_gen.in_taxonomy
        ci = default_gen.split.coarse_in
        assert np.array_equal(ci.label, tax.ancestor_map(7, 2)[ci.true_species])
        assert set(default_gen.split.coarse_out.label.tolist()) <= set(range(8))


class TestDeterminism:
    def test_toy_regeneration_is_bit_identical(self):
        a, b = generate(TOY), generate(TOY)
        assert a.taxonomy == b.taxonomy
        assert np.array_equal(split_features(a.split), split_features(b.split))
        assert np.array_equal(a.split.labeled.label, b.split.labeled.label)

    def test_default_regeneration_is_bit_identical(self):
        a, b = generate(GenConfig()), generate(GenConfig())
        assert np.array_equal(split_features(a.split), split_features(b.split))

    def test_seed_changes_features_not_structure(self):
        a = generate(GenConfig(seed=0))
        b = generate(GenConfig(seed=1))
        assert a.taxonomy == b.taxonomy
        assert not np.array_equal(split_features(a.split), split_features(b.split))
        assert np.array_equal(a.split.labeled.label, b.split.labeled.label)


class TestZeroNoise:
    def test_species_collapse_to_their_centers(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.0,
                               test_per_species=4))
        both = g.split.labeled + g.split.test
        for species in np.unique(both.true_species):
            feats = both.X[both.true_species == species]
            assert (feats == feats[0]).all()

    def test_nearest_center_is_perfect_at_zero_noise(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.0))
        lab = g.split.labeled
        centers = lab.X[[np.flatnonzero(lab.true_species == s)[0] for s in range(8)]]
        X = features_of(g.split.test)
        pred = np.argmin(
            ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1
        )
        assert np.array_equal(pred, g.split.test.label)


class TestRelabeling:
    def test_coarser_levels_follow_parent_chain(self, default_gen):
        tax = default_gen.in_taxonomy
        lab = default_gen.split.labeled
        for level in range(1, 8):
            got = labels_at_level(lab, tax, level)
            want = tax.ancestor_map(7, level)[lab.true_species]
            assert np.array_equal(got, want)

    def test_coarse_in_can_be_relabeled_finer_via_ground_truth(self, default_gen):
        tax = default_gen.in_taxonomy
        ci = default_gen.split.coarse_in.take(slice(50))
        got = labels_at_level(ci, tax, 7)
        assert np.array_equal(got, ci.true_species)

    def test_same_level_is_identity(self, default_gen):
        ci = default_gen.split.coarse_in.take(slice(50))
        got = labels_at_level(ci, default_gen.in_taxonomy, 2)
        assert np.array_equal(got, ci.label)

    def test_out_samples_cannot_be_relabeled_finer(self, default_gen):
        with pytest.raises(UnknownClass):
            labels_at_level(
                default_gen.split.coarse_out.take(slice(1)),
                default_gen.in_taxonomy, 7
            )


    def test_mixed_level_pool_matches_per_sample_reference(self, default_gen):
        tax = default_gen.in_taxonomy
        s = default_gen.split
        pool = (s.coarse_in.take(np.s_[::7]) + s.labeled.take(np.s_[::5])
                + s.coarse_out.take(np.s_[::9]) + s.test.take(np.s_[::11]))

        def reference(samples, level):
            out = []
            for label_level, label, species in zip(
                    samples.label_level.tolist(), samples.label.tolist(),
                    samples.true_species.tolist()):
                if level <= label_level:
                    out.append(tax.ancestor_map(label_level, level)[label])
                else:
                    out.append(tax.ancestor_map(tax.leaf_level, level)[species])
            return np.array(out, dtype=np.int64)

        for level in (1, 2):
            got = labels_at_level(pool, tax, level)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference(pool, level))
        labeled_only = (s.coarse_in.take(np.s_[::7]) + s.labeled.take(np.s_[::5])
                        + s.test.take(np.s_[::11]))
        for level in range(3, 8):
            assert np.array_equal(labels_at_level(labeled_only, tax, level),
                                  reference(labeled_only, level))

    def test_one_ancestor_lookup_per_label_level(self, default_gen, monkeypatch):
        tax = default_gen.in_taxonomy
        s = default_gen.split
        pool = s.coarse_in + s.labeled + s.coarse_out
        calls = []
        real = tax.ancestor_map

        def counted(fine, coarse):
            calls.append((fine, coarse))
            return real(fine, coarse)

        monkeypatch.setattr(tax, "ancestor_map", counted)
        labels_at_level(pool, tax, 1)
        assert sorted(calls) == [(2, 1), (7, 1)]

    def test_mixed_pool_with_out_samples_cannot_go_finer(self, default_gen):
        s = default_gen.split
        pool = (s.labeled.take(slice(3)) + s.coarse_in.take(slice(3))
                + s.coarse_out.take(slice(3)))
        with pytest.raises(UnknownClass, match="labeled at level 2"):
            labels_at_level(pool, default_gen.in_taxonomy, 3)

    def test_empty_sample_list_gives_empty_labels(self, default_gen):
        got = labels_at_level(default_gen.split.test.take([]),
                              default_gen.in_taxonomy, 3)
        assert got.shape == (0,) and got.dtype == np.int64


class TestLongTail:
    def test_counts_skew_but_total_is_preserved(self):
        cfg = GenConfig(level_counts=(1, 2, 8), dim=8, long_tail_exponent=1.0)
        g = generate(cfg)
        per = np.bincount(g.split.coarse_in.true_species, minlength=8)
        assert per.sum() == 8 * 25
        assert per[0] > per[-1]
        assert np.array_equal(per, np.sort(per)[::-1])
        # labeled and test splits stay balanced
        assert len(g.split.labeled) == 8 * 3

    def test_zero_exponent_is_uniform(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8))
        per = np.bincount(g.split.coarse_in.true_species, minlength=8)
        assert np.array_equal(per, np.full(8, 25))


class TestOutClusters:
    def test_out_fraction_zero_disables_out_split(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8, out_fraction=0.0))
        assert len(g.split.coarse_out) == 0
        assert g.taxonomy == g.in_taxonomy

    def test_out_offset_scale_pushes_clusters_away(self):
        near = generate(GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.0,
                                  out_attach_level=1, coarse_level=1,
                                  out_offset_scale=1.0))
        far = generate(GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.0,
                                 out_attach_level=1, coarse_level=1,
                                 out_offset_scale=4.0))
        def mean_norm(split):
            return np.linalg.norm(features_of(split.coarse_out), axis=1).mean()
        assert mean_norm(far.split) > mean_norm(near.split)

    def test_attach_level_controls_shared_prefix(self):
        g = generate(GenConfig(level_counts=(2, 4, 8, 16), dim=8,
                               out_attach_level=2, coarse_level=2))
        # every novel chain hangs under a real level-2 class
        in_l2 = set(g.in_taxonomy.class_names(2))
        for path in g.taxonomy.leaf_paths():
            assert path[1] in in_l2


class TestGenConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(level_counts=(4, 2)),
        dict(level_counts=(8,)),
        dict(level_counts=(0, 4)),
        dict(dim=0),
        dict(sigma_x=-0.1),
        dict(labeled_per_species=-1),
        dict(out_fraction=1.0),
        dict(out_fraction=-0.2),
        dict(out_offset_scale=0.0),
        dict(out_attach_level=0),
        dict(out_attach_level=7),
        dict(coarse_level=0),
        dict(coarse_level=8),
        dict(coarse_level=7),             # finer than the attach level
        dict(sigma_levels=(1.0, 0.5)),    # too few scales for 7 levels
        dict(sigma_levels=(1.0,) * 6 + (0.0,)),  # a scale that is not > 0
        dict(seed=-1),
        dict(long_tail_exponent=-1.0),    # a head-heavy tail only
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            GenConfig(**bad).validate()

    def test_frozen(self):
        # a validated config stays valid
        with pytest.raises(FrozenInstanceError):
            GenConfig().level_counts = (2, 4)

    def test_coarse_level_at_attach_is_allowed(self):
        GenConfig(level_counts=(1, 2, 8), out_attach_level=2,
                  coarse_level=2).validate()


class TestAugment:
    def test_weak_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        assert np.array_equal(augment_weak(x, 0.0, np.random.default_rng(1)), x)

    def test_weak_perturbs_at_positive_sigma(self):
        x = np.zeros((5, 4))
        out = augment_weak(x, 0.5, np.random.default_rng(1))
        assert out.shape == x.shape
        assert np.all(out != 0.0)

    def test_strong_identity_when_all_knobs_off(self):
        x = np.random.default_rng(2).standard_normal((3, 6))
        out = augment_strong(x, 0.0, 0.0, (1.0, 1.0), np.random.default_rng(3))
        assert_allclose(out, x, rtol=1e-15)

    def test_strong_is_deterministic_given_generator_state(self):
        x = np.random.default_rng(4).standard_normal((3, 6))
        a = augment_strong(x, 0.6, 0.1, (0.9, 1.1), np.random.default_rng(5))
        b = augment_strong(x, 0.6, 0.1, (0.9, 1.1), np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_strong_drop_zeroes_coordinates(self):
        x = np.ones((20, 10))
        out = augment_strong(x, 0.0, 0.5, (1.0, 1.0), np.random.default_rng(6))
        assert np.all(np.isin(out, (0.0, 2.0)))  # kept coords rescaled by 1/(1-p)
        assert 0.0 < (out == 0.0).mean() < 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_strong_row_is_a_block_of_one(self, seed):
        x = np.random.default_rng(7).standard_normal(6)
        row = augment_strong(x, 0.6, 0.1, (0.9, 1.1), np.random.default_rng(seed))
        block = augment_strong(x[None], 0.6, 0.1, (0.9, 1.1), np.random.default_rng(seed))
        assert row.shape == x.shape
        assert row.tobytes() == block[0].tobytes()

    @pytest.mark.parametrize("bad", [
        dict(sigma_weak=-0.1),
        dict(sigma_weak=0.5, sigma_strong=0.1),
        dict(p_drop=1.0),
        dict(p_drop=-0.1),
        dict(jitter=(0.0, 1.0)),
        dict(jitter=(1.2, 0.8)),
    ])
    def test_param_validation(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


def _noncanonical(field: str) -> str:
    """``field`` with a padding bit of its last base64 digit set: the same
    bytes, but not the writer's spelling of them."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    body = field.rstrip("=")
    return body[:-1] + alphabet[alphabet.index(body[-1]) ^ 1] + field[len(body):]


def _b64(values) -> str:
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode()


# (line, new feature field given the old) of a v2 row the writer never writes;
# an 8-wide row's 64 bytes leave four padding bits in its last digit
V2_FEATURE_CASES = {
    "not-base64": (4, lambda f: f[:5] + "*" + f[6:]),
    "noncanonical": (30, _noncanonical),
    "short": (300, lambda f: _b64([0.5] * 7)),
    "nan": (700, lambda f: _b64([0.5] * 7 + [float("nan")])),
}


def _off_class(parts, tax) -> str:
    """A species name that does not sit under the row's class."""
    level = tax.level_names.index(parts[1]) + 1
    off = tax.ancestor_map(tax.leaf_level, level) != tax.class_index(level, parts[2])
    return tax.class_names(tax.leaf_level)[int(np.argmax(off))]


# name -> (field index, its new text given the row's fields, the error) of a
# fault in one row; the "nan" and "off-class" faults are found only after
# every row has been read
ROW_FAULTS = {
    "base64": (4, lambda parts, tax: parts[4][:5] + "*" + parts[4][6:], ParseError),
    "class": (2, lambda parts, tax: "no-such-class", UnknownClass),
    "nan": (4, lambda parts, tax: _b64([0.5] * 7 + [float("nan")]), ParseError),
    "short": (4, lambda parts, tax: _b64([0.5] * 7), ParseError),
    "tag": (0, lambda parts, tax: "no-such-split", ParseError),
    "utf8": (0, lambda parts, tax: "\udcff" + parts[0], ParseError),  # a 0xff byte
    "off-class": (3, _off_class, ParseError),
}

# (fault at line 30, fault at a later line, which of the two is raised)
FIRST_FAULT_CASES = [
    ("base64", "class", "first"), ("class", "base64", "first"),
    ("nan", "class", "second"), ("short", "tag", "first"), ("tag", "short", "first"),
    ("base64", "nan", "first"), ("base64", "utf8", "first"), ("utf8", "base64", "first"),
    ("nan", "utf8", "second"), ("off-class", "class", "second"),
    ("off-class", "nan", "second"),
]


class TestPersistence:
    def test_round_trip_preserves_everything(self, default_gen, tmp_path):
        s = default_gen.split
        # the shape filter writes: kept in-class and novel rows in coarse_in
        kept = s.coarse_in.take(slice(10)) + s.coarse_out.take(slice(5))
        filtered = DataSplit(s.labeled, kept, s.coarse_out.take([]), s.test)
        for split in (s, filtered):
            p = tmp_path / "data.txt"
            save_dataset(split, default_gen.in_taxonomy, p)
            back = load_dataset(p, default_gen.in_taxonomy)
            for tag in SPLIT_TAGS:
                orig, got = getattr(split, tag), getattr(back, tag)
                assert len(got) == len(orig)
                for name, col in vars(orig).items():  # X: repr round trip
                    assert np.array_equal(getattr(got, name), col), (tag, name)

    def test_save_is_byte_identical(self, default_gen, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(default_gen.split, default_gen.in_taxonomy, a)
        save_dataset(default_gen.split, default_gen.in_taxonomy, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("something else\n")
        tax = generate(TOY).in_taxonomy
        with pytest.raises(ParseError) as e:
            load_dataset(p, tax)
        assert e.value.line == 1

    def test_wrong_field_count_reports_line(self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        lines[5] = lines[5] + " 1.5"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 6

    def test_level_name_mismatch(self, tmp_path):
        g = generate(TOY)
        other = generate(GenConfig(level_counts=(1, 2, 8), dim=8,
                                   level_names=("X", "Y", "Z")))
        p = tmp_path / "data.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        with pytest.raises(ParseError):
            load_dataset(p, other.in_taxonomy)

    @pytest.mark.parametrize("tag, column, value, error", [
        ("test", "label", 8, OutOfRange),  # TOY has 8 species
        ("test", "true_species", -2, OutOfRange),
        ("coarse_in", "true_species", 0, DataError),  # L3_00 is not under L2_01
    ], ids=["label-out-of-range", "species-below-minus-1", "species-off-its-class"])
    def test_failed_save_leaves_the_old_file(self, tmp_path, tag, column, value, error):
        g = generate(TOY)
        p = tmp_path / "dataset.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        before = p.read_bytes()
        # the split's last row breaks a row rule: a save that streamed the
        # rows before it would have written them when it raised
        s = getattr(g.split, tag)
        col = getattr(s, column).copy()
        col[-1] = value
        with pytest.raises(error):
            save_dataset(replace(g.split, **{tag: replace(s, **{column: col})}),
                         g.in_taxonomy, p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_splits_of_two_widths_are_refused_before_the_file_opens(self, tmp_path):
        # each row writes its own width, but a load reads every row at the first's
        g = generate(TOY)
        p = tmp_path / "dataset.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        before = p.read_bytes()
        narrow = replace(g.split.test, X=g.split.test.X[:, :4])
        with pytest.raises(DataError, match="^the test split has 4 features per row, "
                                            "an earlier split 8$"):
            save_dataset(replace(g.split, test=narrow), g.in_taxonomy, p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_non_finite_feature_rejected(self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        lines = V1_TOY.read_text().splitlines()
        parts = lines[3].split()
        parts[4] = "nan"
        lines[3] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 4

    @pytest.mark.parametrize("token", ["٣", "1_0", "１", "1_000.5"])
    def test_only_ascii_feature_spellings_load(self, tmp_path, token):
        # float() reads each of these; the v1 writer never wrote them
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        lines = V1_TOY.read_text().splitlines()
        parts = lines[3].split()
        parts[-1] = token
        lines[3] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="ASCII") as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 4

    def test_v1_file_loads_bit_for_bit(self):
        assert hashlib.sha256(V1_TOY.read_bytes()).hexdigest() == (
            "27d5ec8cb1de2dc21746c889c8f9e2e6741ace54cbdf359521a1ac585d040bdd")
        g = generate(TOY)
        assert content_digest(load_dataset(V1_TOY, g.in_taxonomy)) == content_digest(g.split)

    @pytest.mark.parametrize("case", sorted(V2_FEATURE_CASES))
    def test_only_the_writers_feature_field_loads(self, tmp_path, case):
        line, edit = V2_FEATURE_CASES[case]
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        parts = lines[line - 1].split()
        parts[4] = edit(parts[4])
        lines[line - 1] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == line

    def test_unknown_class_name_rejected(self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        parts = lines[3].split()
        parts[2] = "no-such-class"
        lines[3] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnknownClass, match="line 4: no class named") as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 4


    def test_negative_dimension_reports_line_2(self, tmp_path):
        tax = generate(TOY).in_taxonomy
        p = tmp_path / "bad.txt"
        lines = V1_TOY.read_text().splitlines()
        lines[1] = "d -2"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            load_dataset(p, tax)
        assert e.value.line == 2

    def test_huge_dimension_fails_at_the_first_row_without_allocating(
            self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        lines[1] = f"d {10**12}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="expected") as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 4

    def test_empty_split_round_trips_with_dimension_0(self, tmp_path):
        tax = generate(TOY).in_taxonomy
        p = tmp_path / "empty.txt"
        none = generate(TOY).split.test.take([])
        save_dataset(DataSplit(none, none, none, none), tax, p)
        assert p.read_text().splitlines()[1] == "d 0"
        back = load_dataset(p, tax)
        for tag in SPLIT_TAGS:
            assert len(getattr(back, tag)) == 0
            assert getattr(back, tag).X.shape == (0, 0)

    def test_unknown_species_name_reports_line(self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        parts = lines[3].split()
        assert parts[3] != "-"
        parts[3] = "NoSuchSpecies"
        lines[3] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnknownClass, match="line 4: no species named") as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 4

    @pytest.mark.parametrize("tag, row", [
        ("coarse_in", "Phylum P01 S00"),  # S00 sits under P00
        ("test", "Species S00 S59"),
    ])
    def test_species_off_its_class_reports_line(self, default_gen, tmp_path, tag, row):
        p = tmp_path / "bad.txt"
        save_dataset(default_gen.split, default_gen.in_taxonomy, p)
        lines = p.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{tag} "))
        parts = lines[i].split()
        parts[1:4] = row.split()
        lines[i] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="species is not under its class") as e:
            load_dataset(p, default_gen.in_taxonomy)
        assert e.value.line == i + 1

    # TOY's file has 723 lines: line 30 is a coarse_in row, 35 one read in the
    # same block, and 300 a coarse_out row in a later block
    @pytest.mark.parametrize("later", [35, 300])
    @pytest.mark.parametrize("first, second, raised", FIRST_FAULT_CASES)
    def test_the_first_fault_in_the_file_wins(self, tmp_path, first, second, raised,
                                               later):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 723
        for line, fault in [(30, first), (later, second)]:
            parts = lines[line - 1].split()
            at, edit, _ = ROW_FAULTS[fault]
            parts[at] = edit(parts, g.in_taxonomy)
            lines[line - 1] = " ".join(parts)
        p.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        error = ROW_FAULTS[first if raised == "first" else second][2]
        with pytest.raises(error, match=f"^line {30 if raised == 'first' else later}: "):
            load_dataset(p, g.in_taxonomy)


class TestReplaceCoarse:
    def test_filter_result_shape(self, default_gen):
        # the split the shape filter writes: the kept pool in coarse_in and
        # an empty coarse_out of the same width, so either coarse source
        # reads back exactly the kept rows
        s = default_gen.split
        kept = s.coarse_in.take(slice(10)) + s.coarse_out.take(slice(5))
        out = DataSplit(s.labeled, kept, s.coarse_out.take([]), s.test)
        assert out.labeled is s.labeled
        assert out.test is s.test
        assert out.coarse_in is kept
        assert len(out.coarse_out) == 0
        assert out.coarse_out.X.shape == (0, 32)
        for source in COARSE_SOURCES:
            pool = out.coarse(source)
            assert np.array_equal(pool.X, kept.X)
            assert np.array_equal(pool.true_species, kept.true_species)


def test_features_of_empty_is_empty_matrix():
    empty = generate(TOY).split.test.take([])
    assert features_of(empty).shape == (0, 8)
    assert empty.label.shape == (0,)


# sha256 of save_dataset(generate(config).split, ...), pinned so that any
# change in the draw order of the generator or in the feature encoding of
# the writer shows
GOLDEN = {
    "toy": (GenConfig(level_counts=(1, 2, 8), dim=8),
            "383529aebafed71f0cb388e60ad17716cc47f18f160dd55f85c196e8ddf22b10"),
    "long-tail": (
        GenConfig(level_counts=(1, 2, 8), dim=8, long_tail_exponent=1.0),
        "058de0a7722321cdf1138a7b5a57fb3096c61ab44ae038f98ad637b65893c449"),
    "no-out": (
        GenConfig(level_counts=(1, 2, 8), dim=8, out_fraction=0.0),
        "98f9e2a550e7a0960e1286ad62920312988d6d835332fa0d8474ad6e183c36de"),
    "attach-2": (
        GenConfig(level_counts=(2, 4, 8, 16), dim=8, out_attach_level=2,
                  out_offset_scale=1.5),
        "8c48d39233ae29aae95aef3e03e08794629f7baa0e0643b4a0144212d3002361"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_dataset_bytes_are_pinned(name, tmp_path):
    cfg, digest = GOLDEN[name]
    g = generate(cfg)
    p = tmp_path / "dataset.txt"
    save_dataset(g.split, g.in_taxonomy, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


# content_digest of each GOLDEN dataset as load_dataset reads it back from
# the file save_dataset writes: the arrays, whatever the file's format
GOLDEN_CONTENT = {
    "toy": "2c961004d7146c4f784d368a80ca92f2fd85dea88586f4f762e8f03730477d59",
    "long-tail": "d505fde1abc2b549c70b582dcc0503974c8236ab76ec119383ca9c70a49be316",
    "no-out": "02b4230294f6f669b3c56f80b3db0e7bd37623e1666c38fb42833f3b9a657cfa",
    "attach-2": "b8a7c54ab84a67766c2265faf7b039cf13892def140c3ecf63320651f987aa8e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_dataset_content_is_pinned(name, tmp_path):
    g = generate(GOLDEN[name][0])
    p = tmp_path / "dataset.txt"
    save_dataset(g.split, g.in_taxonomy, p)
    assert content_digest(load_dataset(p, g.in_taxonomy)) == GOLDEN_CONTENT[name]
