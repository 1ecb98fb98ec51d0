"""Coarse-pool filtering: keep-rule semantics, idempotence, threshold
monotonicity, origin independence, and the report round trip."""

from dataclasses import replace

import numpy as np
import pytest

from hierssl.data import GenConfig, generate
from hierssl.errors import ConfigError, ParseError
from hierssl.ood import (
    FilterConfig,
    FilterStats,
    filter_split,
    filter_stats,
    keep_mask,
    read_filter_report,
    write_filter_report,
)
from hierssl.trainers import default_train_config, train

TOY = GenConfig(level_counts=(1, 2, 8), dim=8, seed=0)


@pytest.fixture(scope="module")
def setup():
    g = generate(TOY)
    model = train(g.split, g.in_taxonomy,
                  default_train_config("baseline", steps=120, seed=0)).model
    return g, model


def pool_of(g):
    return g.split.coarse_in + g.split.coarse_out


class TestKeepRule:
    def test_kept_samples_are_confident_and_ancestor_consistent(self, setup):
        g, model = setup
        from hierssl.model import predict_probs

        cfg = FilterConfig(tau=0.5, match_level=2)
        pool = pool_of(g)
        mask = keep_mask(model, g.in_taxonomy, pool, cfg)
        probs = predict_probs(model, pool.X, g.in_taxonomy)
        conf = probs.max(axis=-1)
        pred_phylum = g.in_taxonomy.ancestor_map(3, 2)[probs.argmax(axis=-1)]
        provided = pool.label
        want = (conf >= 0.5) & (pred_phylum == provided)
        assert np.array_equal(mask, want)

    def test_empty_input_gives_empty_mask(self, setup):
        g, model = setup
        mask = keep_mask(model, g.in_taxonomy, pool_of(g).take([]), FilterConfig())
        assert mask.shape == (0,) and mask.dtype == bool

    def test_match_at_kingdom_uses_coarser_ancestor(self, setup):
        g, model = setup
        pool = pool_of(g)
        # one kingdom in the toy tree: ancestor always matches, so the
        # kingdom-level rule reduces to the confidence gate alone
        mask1 = keep_mask(model, g.in_taxonomy, pool, FilterConfig(0.5, 1))
        from hierssl.model import predict_probs

        probs = predict_probs(model, pool.X, g.in_taxonomy)
        assert np.array_equal(mask1, probs.max(axis=-1) >= 0.5)


class TestInvariants:
    def test_idempotent(self, setup):
        g, model = setup
        cfg = FilterConfig(tau=0.4, match_level=2)
        once, stats_once = filter_split(model, g.in_taxonomy, g.split, cfg)
        twice, stats_twice = filter_split(model, g.in_taxonomy, once, cfg)
        assert len(once.coarse_in) == len(twice.coarse_in)
        assert stats_twice.n_kept == stats_twice.n_total == stats_once.n_kept
        for name in ("X", "label_level", "label", "true_species"):
            assert np.array_equal(getattr(once.coarse_in, name),
                                  getattr(twice.coarse_in, name))

    def test_kept_set_shrinks_as_tau_rises(self, setup):
        g, model = setup
        pool = pool_of(g)
        previous = None
        for tau in (0.2, 0.4, 0.6, 0.8, 0.95):
            mask = keep_mask(model, g.in_taxonomy, pool,
                             FilterConfig(tau, match_level=2))
            if previous is not None:
                assert np.all(previous | ~mask)  # mask ⊆ previous
            previous = mask

    def test_finer_match_level_keeps_a_subset(self, setup):
        g, model = setup
        pool = pool_of(g)
        coarse = keep_mask(model, g.in_taxonomy, pool, FilterConfig(0.3, 1))
        fine = keep_mask(model, g.in_taxonomy, pool, FilterConfig(0.3, 2))
        assert np.all(coarse | ~fine)  # fine ⊆ coarse

    def test_origin_field_never_affects_the_decision(self, setup):
        g, model = setup
        pool = pool_of(g)
        flipped = replace(pool, true_species=np.full(len(pool), -1))
        cfg = FilterConfig(tau=0.4, match_level=2)
        assert np.array_equal(
            keep_mask(model, g.in_taxonomy, pool, cfg),
            keep_mask(model, g.in_taxonomy, flipped, cfg),
        )

    def test_decision_is_deterministic(self, setup):
        g, model = setup
        pool = pool_of(g)
        cfg = FilterConfig(tau=0.4, match_level=2)
        assert np.array_equal(
            keep_mask(model, g.in_taxonomy, pool, cfg),
            keep_mask(model, g.in_taxonomy, pool, cfg),
        )


class TestErrors:
    def test_match_level_finer_than_provided_label(self, setup):
        g, model = setup
        with pytest.raises(ConfigError):
            keep_mask(model, g.in_taxonomy, pool_of(g),
                      FilterConfig(tau=0.5, match_level=3))

    def test_match_level_beyond_taxonomy(self, setup):
        g, model = setup
        with pytest.raises(ConfigError):
            keep_mask(model, g.in_taxonomy, pool_of(g),
                      FilterConfig(tau=0.5, match_level=4))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FilterConfig(tau=0.0).validate()
        with pytest.raises(ConfigError):
            FilterConfig(match_level=0).validate()

    def test_model_must_match_taxonomy(self, setup):
        from hierssl.errors import ArchitectureMismatch
        from hierssl.taxonomy import shaped_taxonomy

        g, model = setup
        with pytest.raises(ArchitectureMismatch):
            keep_mask(model, shaped_taxonomy([2, 5]), pool_of(g), FilterConfig())

    def test_empty_pool_still_checks_the_model(self, setup):
        from hierssl.errors import ArchitectureMismatch
        from hierssl.taxonomy import shaped_taxonomy

        # no row to score, but the model's class count is still checked
        g, model = setup
        with pytest.raises(ArchitectureMismatch):
            keep_mask(model, shaped_taxonomy([2, 5]), pool_of(g).take([]), FilterConfig())


class TestStats:
    def test_counts_add_up(self, setup):
        g, model = setup
        _, stats = filter_split(model, g.in_taxonomy, g.split,
                                FilterConfig(0.4, 2))
        assert stats.n_total == len(g.split.coarse_in) + len(g.split.coarse_out)
        assert stats.n_in == len(g.split.coarse_in)
        assert stats.n_out == len(g.split.coarse_out)
        assert stats.n_kept == stats.kept_in + stats.kept_out
        assert 0.0 <= stats.precision <= 1.0
        assert 0.0 <= stats.recall <= 1.0

    def test_vacuous_rates_default_to_one(self):
        empty = filter_stats(generate(TOY).split.coarse_in.take([]),
                             np.zeros(0, dtype=bool))
        assert empty.precision == 1.0
        assert empty.recall == 1.0
        assert empty.kept_fraction == 0.0

    def test_filtered_split_keeps_labeled_and_test(self, setup):
        g, model = setup
        out, _ = filter_split(model, g.in_taxonomy, g.split, FilterConfig(0.4, 2))
        assert out.labeled is g.split.labeled
        assert out.test is g.split.test
        assert len(out.coarse_out) == 0
        assert out.coarse_out.X.shape == (0, 8)


class TestReport:
    def test_round_trip(self, tmp_path):
        stats = FilterStats(n_total=100, n_kept=40, n_in=60, n_out=40,
                            kept_in=35, kept_out=5)
        cfg = FilterConfig(tau=0.35, match_level=2)
        p = tmp_path / "filter.txt"
        write_filter_report(stats, cfg, p)
        back_stats, back_cfg = read_filter_report(p)
        assert back_stats == stats
        assert back_cfg == cfg

    def test_write_is_byte_identical(self, tmp_path):
        stats = FilterStats(10, 5, 6, 4, 4, 1)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_filter_report(stats, FilterConfig(), a)
        write_filter_report(stats, FilterConfig(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("nope\n")
        with pytest.raises(ParseError):
            read_filter_report(p)

    def test_invalid_config_fails_at_its_last_line(self, tmp_path):
        # FilterConfig.validate runs once both config lines are read
        p = tmp_path / "f.txt"
        write_filter_report(FilterStats(10, 5, 6, 4, 4, 1), FilterConfig(tau=0.5), p)
        p.write_text(p.read_text().replace("tau 0.5", "tau -1.0"))
        with pytest.raises(ParseError, match="line 3: filter_tau: must be > 0"):
            read_filter_report(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("hierssl-filter v1\ntau 0.5\n")
        with pytest.raises(ParseError):
            read_filter_report(p)
