"""Synthetic dataset generation: split shapes, determinism, label
relabeling, augmentations, and the dataset text round trip."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hierssl.data import (
    ORIGIN_IN,
    ORIGIN_OUT,
    AugmentParams,
    DataSplit,
    GenConfig,
    Sample,
    augment_strong,
    augment_weak,
    features_of,
    generate,
    labels_at_level,
    labels_of,
    load_dataset,
    save_dataset,
    true_species_of,
)
from hierssl.errors import ConfigError, ParseError, UnknownClass

TOY = GenConfig(level_counts=(1, 2, 8), dim=8, seed=0)


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
        assert {x.label_level for x in s.labeled} == {7}
        assert {x.label_level for x in s.test} == {7}
        assert {x.label_level for x in s.coarse_in} == {2}
        assert {x.label_level for x in s.coarse_out} == {2}
        assert {x.origin for x in s.labeled + s.coarse_in + s.test} == {ORIGIN_IN}
        assert {x.origin for x in s.coarse_out} == {ORIGIN_OUT}
        assert all(x.true_species >= 0 for x in s.labeled + s.coarse_in + s.test)
        assert all(x.true_species == -1 for x in s.coarse_out)

    def test_every_species_appears_in_labeled(self, default_gen):
        assert set(labels_of(default_gen.split.labeled)) == set(range(60))
        assert np.array_equal(
            labels_of(default_gen.split.labeled),
            true_species_of(default_gen.split.labeled),
        )

    def test_coarse_labels_are_phylum_indices(self, default_gen):
        tax = default_gen.in_taxonomy
        for x in default_gen.split.coarse_in:
            assert x.label == tax.ancestors(2)[x.true_species]
        assert {x.label for x in default_gen.split.coarse_out} <= set(range(8))


class TestDeterminism:
    def test_toy_regeneration_is_bit_identical(self):
        a, b = generate(TOY), generate(TOY)
        assert a.taxonomy == b.taxonomy
        assert np.array_equal(split_features(a.split), split_features(b.split))
        assert np.array_equal(labels_of(a.split.labeled), labels_of(b.split.labeled))

    def test_default_regeneration_is_bit_identical(self):
        a, b = generate(GenConfig()), generate(GenConfig())
        assert np.array_equal(split_features(a.split), split_features(b.split))

    def test_seed_changes_features_not_structure(self):
        a = generate(GenConfig(seed=0))
        b = generate(GenConfig(seed=1))
        assert a.taxonomy == b.taxonomy
        assert not np.array_equal(split_features(a.split), split_features(b.split))
        assert np.array_equal(labels_of(a.split.labeled), labels_of(b.split.labeled))


class TestZeroNoise:
    def test_species_collapse_to_their_centers(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.0,
                               test_per_species=4))
        by_species: dict[int, list[np.ndarray]] = {}
        for x in g.split.labeled + g.split.test:
            by_species.setdefault(x.true_species, []).append(x.features)
        for feats in by_species.values():
            for f in feats[1:]:
                assert np.array_equal(f, feats[0])

    def test_nearest_center_is_perfect_at_zero_noise(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.0))
        centers = np.stack(
            [next(x.features for x in g.split.labeled if x.true_species == s)
             for s in range(8)]
        )
        X = features_of(g.split.test)
        pred = np.argmin(
            ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1
        )
        assert np.array_equal(pred, labels_of(g.split.test))


class TestRelabeling:
    def test_coarser_levels_follow_parent_chain(self, default_gen):
        tax = default_gen.in_taxonomy
        lab = default_gen.split.labeled
        for level in range(1, 8):
            got = labels_at_level(lab, tax, level)
            want = [tax.ancestors(level)[x.true_species] for x in lab]
            assert np.array_equal(got, want)

    def test_coarse_in_can_be_relabeled_finer_via_ground_truth(self, default_gen):
        tax = default_gen.in_taxonomy
        ci = default_gen.split.coarse_in[:50]
        got = labels_at_level(ci, tax, 7)
        assert np.array_equal(got, true_species_of(ci))

    def test_same_level_is_identity(self, default_gen):
        ci = default_gen.split.coarse_in[:50]
        got = labels_at_level(ci, default_gen.in_taxonomy, 2)
        assert np.array_equal(got, labels_of(ci))

    def test_out_samples_cannot_be_relabeled_finer(self, default_gen):
        with pytest.raises(UnknownClass):
            labels_at_level(
                default_gen.split.coarse_out[:1], default_gen.in_taxonomy, 7
            )


    def test_mixed_level_pool_matches_per_sample_reference(self, default_gen):
        tax = default_gen.in_taxonomy
        s = default_gen.split
        pool = s.coarse_in[::7] + s.labeled[::5] + s.coarse_out[::9] + s.test[::11]

        def reference(samples, level):
            out = []
            for x in samples:
                if level <= x.label_level:
                    out.append(tax.ancestor_map(x.label_level, level)[x.label])
                else:
                    out.append(tax.ancestors(level)[x.true_species])
            return np.array(out, dtype=np.int64)

        for level in (1, 2):
            got = labels_at_level(pool, tax, level)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference(pool, level))
        labeled_only = s.coarse_in[::7] + s.labeled[::5] + s.test[::11]
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
        pool = s.labeled[:3] + s.coarse_in[:3] + s.coarse_out[:3]
        with pytest.raises(UnknownClass, match="labeled at level 2"):
            labels_at_level(pool, default_gen.in_taxonomy, 3)

    def test_empty_sample_list_gives_empty_labels(self, default_gen):
        got = labels_at_level((), default_gen.in_taxonomy, 3)
        assert got.shape == (0,) and got.dtype == np.int64


class TestLongTail:
    def test_counts_skew_but_total_is_preserved(self):
        cfg = GenConfig(level_counts=(1, 2, 8), dim=8, long_tail_exponent=1.0)
        g = generate(cfg)
        per = np.bincount(true_species_of(g.split.coarse_in), minlength=8)
        assert per.sum() == 8 * 25
        assert per[0] > per[-1]
        assert np.array_equal(per, np.sort(per)[::-1])
        # labeled and test splits stay balanced
        assert len(g.split.labeled) == 8 * 3

    def test_zero_exponent_is_uniform(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8))
        per = np.bincount(true_species_of(g.split.coarse_in), minlength=8)
        assert np.array_equal(per, np.full(8, 25))


class TestOutClusters:
    def test_out_fraction_zero_disables_out_split(self):
        g = generate(GenConfig(level_counts=(1, 2, 8), dim=8, out_fraction=0.0))
        assert g.split.coarse_out == ()
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
        for leaf in range(g.taxonomy.num_leaves):
            path = g.taxonomy.leaf_path(leaf)
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
        dict(level_counts=None),          # and no branching either
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            GenConfig(**bad).validate()

    def test_branching_resolves_multiplicatively(self):
        cfg = GenConfig(branching=(2, 3, 2), level_counts=None)
        assert cfg.resolved_counts() == (2, 6, 12)
        g = generate(GenConfig(branching=(1, 2, 4), level_counts=None, dim=8))
        assert g.in_taxonomy.class_counts == (1, 2, 8)

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
        params = AugmentParams(sigma_weak=0.0, sigma_strong=0.0, p_drop=0.0,
                               jitter=(1.0, 1.0))
        x = np.random.default_rng(2).standard_normal((3, 6))
        out = augment_strong(x, params, np.random.default_rng(3))
        assert_allclose(out, x, rtol=1e-15)

    def test_strong_is_deterministic_given_generator_state(self):
        params = AugmentParams()
        x = np.random.default_rng(4).standard_normal((3, 6))
        a = augment_strong(x, params, np.random.default_rng(5))
        b = augment_strong(x, params, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_strong_drop_zeroes_coordinates(self):
        params = AugmentParams(sigma_weak=0.0, sigma_strong=0.0, p_drop=0.5,
                               jitter=(1.0, 1.0))
        x = np.ones((20, 10))
        out = augment_strong(x, params, np.random.default_rng(6))
        assert np.all(np.isin(out, (0.0, 2.0)))  # kept coords rescaled by 1/(1-p)
        assert 0.0 < (out == 0.0).mean() < 1.0

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
            AugmentParams(**bad).validate()


class TestPersistence:
    def test_round_trip_preserves_everything(self, default_gen, tmp_path):
        p = tmp_path / "data.txt"
        save_dataset(default_gen.split, default_gen.in_taxonomy, p)
        back = load_dataset(p, default_gen.in_taxonomy)
        for tag in ("labeled", "coarse_in", "coarse_out", "test"):
            orig = getattr(default_gen.split, tag)
            got = getattr(back, tag)
            assert len(got) == len(orig)
            for a, b in zip(got, orig):
                assert np.array_equal(a.features, b.features)  # repr round trip
                assert (a.label_level, a.label) == (b.label_level, b.label)
                assert a.true_species == b.true_species
                assert a.origin == b.origin

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

    def test_non_finite_feature_rejected(self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        parts = lines[3].split()
        parts[4] = "nan"
        lines[3] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            load_dataset(p, g.in_taxonomy)
        assert e.value.line == 4

    def test_unknown_class_name_rejected(self, tmp_path):
        g = generate(TOY)
        p = tmp_path / "bad.txt"
        save_dataset(g.split, g.in_taxonomy, p)
        lines = p.read_text().splitlines()
        parts = lines[3].split()
        parts[2] = "no-such-class"
        lines[3] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnknownClass):
            load_dataset(p, g.in_taxonomy)


    def test_negative_dimension_reports_line_2(self, tmp_path):
        tax = generate(TOY).in_taxonomy
        levels = ",".join(tax.level_names)
        p = tmp_path / "bad.txt"
        p.write_text(f"hierssl-dataset v1\nd -2\nlevels {levels}\ntest x\n")
        with pytest.raises(ParseError) as e:
            load_dataset(p, tax)
        assert e.value.line == 2

    def test_empty_split_round_trips_with_dimension_0(self, tmp_path):
        tax = generate(TOY).in_taxonomy
        p = tmp_path / "empty.txt"
        save_dataset(DataSplit(), tax, p)
        assert p.read_text().splitlines()[1] == "d 0"
        assert load_dataset(p, tax) == DataSplit()

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
        with pytest.raises(UnknownClass, match="line 4: no species named"):
            load_dataset(p, g.in_taxonomy)


class TestReplaceCoarse:
    def test_filter_result_shape(self, default_gen):
        s = default_gen.split
        kept = s.coarse_in[:10] + s.coarse_out[:5]
        out = s.replace_coarse(kept)
        assert out.labeled == s.labeled
        assert out.test == s.test
        assert out.coarse_in == tuple(kept)
        assert out.coarse_out == ()


def test_features_of_empty_is_empty_matrix():
    assert features_of(()).shape == (0, 0)
    assert labels_of(()).shape == (0,)
