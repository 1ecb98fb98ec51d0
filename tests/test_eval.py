"""Per-level accuracy, the two argmax modes, confusion counts, and the
three report formats' round trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hierssl.data import GenConfig, Sample, generate
from hierssl.errors import ConfigError, EmptySplit, ParseError
from hierssl.evaluate import (
    EvalReport,
    confusion,
    evaluate,
    level_accuracy,
    read_confusion,
    read_report,
    read_sweep,
    sweep_means,
    top1,
    write_confusion,
    write_report,
    write_sweep,
)
from hierssl.taxonomy import build_taxonomy
from hierssl.trainers import default_train_config, train

TOY = GenConfig(level_counts=(1, 2, 8), dim=8, seed=0)


@pytest.fixture(scope="module")
def setup():
    g = generate(TOY)
    model = train(g.split, g.in_taxonomy,
                  default_train_config("baseline", steps=150, seed=0)).model
    return g, model


class FixedModel:
    """Evaluation stub that returns preset logits for any input."""

    def __init__(self, logits: np.ndarray):
        self._logits = np.asarray(logits, dtype=np.float64)
        self.n_classes = self._logits.shape[1]

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self._logits[: X.shape[0]]


def two_branch_taxonomy():
    # branch A holds three leaves, branch B two
    return build_taxonomy(
        [("A", "s1"), ("A", "s2"), ("A", "s3"), ("B", "s4"), ("B", "s5")],
        ("Genus", "Species"),
    )


def leaf_samples(labels, dim=3):
    return tuple(
        Sample(np.zeros(dim), 2, int(l), true_species=int(l)) for l in labels
    )


class TestArgmaxModes:
    def test_marginal_and_leaf_modes_can_disagree(self):
        tax = two_branch_taxonomy()
        # leaf argmax lands in branch B (0.4), but branch A holds 0.6 mass
        logits = np.log(np.array([[0.25, 0.25, 0.1, 0.4, 0.0] ]) + 1e-12)
        model = FixedModel(logits)
        sample = leaf_samples([0])
        acc_marginal = level_accuracy(model, sample, tax, 1, mode="marginal")
        acc_leaf = level_accuracy(model, sample, tax, 1, mode="leaf")
        assert acc_marginal == 1.0  # branch A wins on summed mass
        assert acc_leaf == 0.0      # leaf winner s4 sits in branch B

    def test_modes_agree_at_leaf_level(self, setup):
        g, model = setup
        a = level_accuracy(model, g.split.test, g.in_taxonomy, 3, mode="marginal")
        b = level_accuracy(model, g.split.test, g.in_taxonomy, 3, mode="leaf")
        assert a == b

    def test_unknown_mode_rejected(self, setup):
        g, model = setup
        with pytest.raises(ConfigError):
            level_accuracy(model, g.split.test, g.in_taxonomy, 1, mode="vote")

    def test_ties_resolve_to_lowest_index(self):
        tax = two_branch_taxonomy()
        logits = np.zeros((2, 5))  # all classes tied
        model = FixedModel(logits)
        acc = level_accuracy(model, leaf_samples([0, 0]), tax, 2)
        assert acc == 1.0  # argmax picks class 0 on a full tie
        acc_b = level_accuracy(model, leaf_samples([1, 1]), tax, 2)
        assert acc_b == 0.0


class TestAccuracy:
    def test_coarse_accuracy_dominates_fine(self, setup):
        g, model = setup
        accs = [level_accuracy(model, g.split.test, g.in_taxonomy, lvl)
                for lvl in (1, 2, 3)]
        assert accs[0] >= accs[1] >= accs[2]
        assert accs[0] == 1.0  # single kingdom

    def test_top1_is_leaf_level_accuracy(self, setup):
        g, model = setup
        assert top1(model, g.split.test, g.in_taxonomy) == level_accuracy(
            model, g.split.test, g.in_taxonomy, 3)

    def test_empty_sample_list_rejected(self, setup):
        g, model = setup
        with pytest.raises(EmptySplit):
            level_accuracy(model, (), g.in_taxonomy, 1)
        with pytest.raises(EmptySplit):
            confusion(model, (), g.in_taxonomy, 1)

    def test_evaluate_covers_every_level(self, setup):
        g, model = setup
        report = evaluate(model, g.split.test, g.in_taxonomy)
        assert report.n_samples == len(g.split.test)
        assert [r[0] for r in report.levels] == [1, 2, 3]
        assert [r[1] for r in report.levels] == ["L1", "L2", "L3"]
        assert report.top1 == report.levels[-1][2]


    def test_evaluate_is_one_forward_pass(self, setup, monkeypatch):
        import hierssl.evaluate as ev

        g, model = setup
        calls = []
        real = ev.predict_probs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "predict_probs", counted)
        report = evaluate(model, g.split.test, g.in_taxonomy)
        assert len(calls) == 1
        monkeypatch.undo()
        for level, _, acc in report.levels:
            assert acc == level_accuracy(model, g.split.test, g.in_taxonomy, level)


class TestConfusion:
    def test_rows_sum_to_per_class_counts(self, setup):
        g, model = setup
        m = confusion(model, g.split.test, g.in_taxonomy, 3)
        assert m.shape == (8, 8)
        assert m.sum() == len(g.split.test)
        per_class = np.bincount(
            [s.true_species for s in g.split.test], minlength=8)
        assert np.array_equal(m.sum(axis=1), per_class)

    def test_diagonal_matches_accuracy(self, setup):
        g, model = setup
        m = confusion(model, g.split.test, g.in_taxonomy, 2)
        acc = level_accuracy(model, g.split.test, g.in_taxonomy, 2)
        assert_allclose(np.trace(m) / m.sum(), acc, rtol=1e-12)


class TestReportFiles:
    def test_eval_report_round_trip(self, setup, tmp_path):
        g, model = setup
        report = evaluate(model, g.split.test, g.in_taxonomy)
        p = tmp_path / "eval.txt"
        write_report(report, p)
        assert read_report(p) == report

    def test_eval_report_rejects_bad_content(self, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("hierssl-eval v1\nn_samples ten\n")
        with pytest.raises(ParseError):
            read_report(p)
        p.write_text("hierssl-eval v1\nn_samples 5\ntop1 0.5\n")
        with pytest.raises(ParseError):   # no level rows
            read_report(p)
        p.write_text("wrong\n")
        with pytest.raises(ParseError):
            read_report(p)

    def test_report_floats_round_trip_exactly(self, tmp_path):
        ugly = (0.1 + 0.2, 1.0 / 3.0, 5e-324)
        report = EvalReport(
            n_samples=3, top1=ugly[2],
            levels=((1, "A", ugly[0]), (2, "B", ugly[1]), (3, "C", ugly[2])),
        )
        p = tmp_path / "r.txt"
        write_report(report, p)
        back = read_report(p)
        assert back.top1 == report.top1
        assert back.levels == report.levels

    def test_confusion_round_trip(self, setup, tmp_path):
        g, model = setup
        m = confusion(model, g.split.test, g.in_taxonomy, 2)
        p = tmp_path / "conf.txt"
        write_confusion(m, g.in_taxonomy, 2, p)
        back, level = read_confusion(p)
        assert level == 2
        assert np.array_equal(back, m)

    def test_confusion_rejects_short_rows(self, setup, tmp_path):
        g, model = setup
        m = confusion(model, g.split.test, g.in_taxonomy, 2)
        p = tmp_path / "conf.txt"
        write_confusion(m, g.in_taxonomy, 2, p)
        lines = p.read_text().splitlines()
        lines[3] = " ".join(lines[3].split()[:-1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_confusion(p)

    def test_sweep_round_trip_and_means(self, tmp_path):
        rows = [(None, 0, 0.25), (None, 1, 0.35), (2, 0, 0.5), (2, 1, 0.6),
                (7, 0, 0.75)]
        p = tmp_path / "sweep.txt"
        write_sweep(rows, p)
        assert read_sweep(p) == rows
        means = sweep_means(rows)
        assert means[None] == pytest.approx(0.3)
        assert means[2] == pytest.approx(0.55)
        assert means[7] == 0.75

    def test_sweep_rejects_malformed_rows(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("hierssl-sweep v1\nlevel 2 seed x top1 0.5\n")
        with pytest.raises(ParseError):
            read_sweep(p)
        p.write_text("hierssl-sweep v1\nlevel 2 top1 0.5\n")
        with pytest.raises(ParseError):
            read_sweep(p)
