"""Per-level accuracy by marginal decoding, and the report formats'
round trips."""

from dataclasses import replace

import numpy as np
import pytest

from hierssl.data import GenConfig, Samples, generate, labels_at_level
from hierssl.errors import EmptySplit, ParseError
from hierssl.evaluate import (
    EvalReport,
    evaluate,
    read_report,
    read_sweep,
    sweep_means,
    top1,
    write_report,
    write_sweep,
)
from hierssl.model import _BLOCK_ROWS, ARCHS, predict_probs
from hierssl.taxonomy import build_taxonomy, semi_inat_taxonomy
from hierssl.trainers import default_train_config, train

from _reference import coarse_probs
from _reference import evaluate as evaluate_whole

TOY = GenConfig(level_counts=(1, 2, 8), dim=8, seed=0)


@pytest.fixture(scope="module")
def setup():
    g = generate(TOY)
    model = train(g.split, g.in_taxonomy,
                  default_train_config("baseline", steps=150, seed=0)).model
    return g, model


class FixedModel:
    """Evaluation stub that returns preset logits for any input of the
    width of ``leaf_samples``."""

    def __init__(self, logits: np.ndarray, dim: int = 3):
        self._logits = np.asarray(logits, dtype=np.float64)
        self.n_classes = self._logits.shape[1]
        self.dim = dim

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self._logits[: X.shape[0]].copy()  # a new array, as every model's


def two_branch_taxonomy():
    # branch A holds three leaves, branch B two
    return build_taxonomy(
        [("A", "s1"), ("A", "s2"), ("A", "s3"), ("B", "s4"), ("B", "s5")],
        ("Genus", "Species"),
    )


def level_acc(model, samples, taxonomy, level) -> float:
    """The accuracy ``evaluate`` reports at ``level``."""
    return evaluate(model, samples, taxonomy).levels[level - 1][2]


def leaf_samples(labels, dim=3):
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    return Samples(X=np.zeros((n, dim)), label_level=np.full(n, 2),
                   label=labels, true_species=labels)


class TestArgmaxModes:
    def test_marginal_decoding_sums_branch_mass(self):
        tax = two_branch_taxonomy()
        # leaf argmax lands in branch B (0.4), but branch A holds 0.6 mass
        logits = np.log(np.array([[0.25, 0.25, 0.1, 0.4, 0.0] ]) + 1e-12)
        model = FixedModel(logits)
        assert level_acc(model, leaf_samples([0]), tax, 1) == 1.0

    def test_ties_resolve_to_lowest_index(self):
        tax = two_branch_taxonomy()
        logits = np.zeros((2, 5))  # all classes tied
        model = FixedModel(logits)
        acc = level_acc(model, leaf_samples([0, 0]), tax, 2)
        assert acc == 1.0  # argmax picks class 0 on a full tie
        acc_b = level_acc(model, leaf_samples([1, 1]), tax, 2)
        assert acc_b == 0.0


class TestAccuracy:
    def test_coarse_accuracy_dominates_fine(self, setup):
        g, model = setup
        accs = [acc for _, _, acc in evaluate(model, g.split.test, g.in_taxonomy).levels]
        assert accs[0] >= accs[1] >= accs[2]
        assert accs[0] == 1.0  # single kingdom

    def test_top1_is_leaf_level_accuracy(self, setup):
        g, model = setup
        assert top1(model, g.split.test, g.in_taxonomy) == evaluate(
            model, g.split.test, g.in_taxonomy).top1

    def test_empty_sample_list_rejected(self, setup):
        g, model = setup
        with pytest.raises(EmptySplit):
            evaluate(model, (), g.in_taxonomy)

    def test_evaluate_covers_every_level(self, setup):
        g, model = setup
        report = evaluate(model, g.split.test, g.in_taxonomy)
        assert report.n_samples == len(g.split.test)
        assert [r[0] for r in report.levels] == [1, 2, 3]
        assert [r[1] for r in report.levels] == ["L1", "L2", "L3"]
        assert report.top1 == report.levels[-1][2]


    def test_evaluate_scores_each_row_exactly_once(self, monkeypatch):
        import hierssl.model as mod

        # three blocks, the last a partial one
        tax = two_branch_taxonomy()
        rng = np.random.default_rng(1)
        n = 2 * _BLOCK_ROWS + 5
        samples = replace(leaf_samples(rng.integers(0, tax.num_leaves, n)),
                          X=rng.standard_normal((n, 3)))
        model = ARCHS["linear"](3, tax.num_leaves, rng)
        rows = []
        real = mod.predict_probs

        def counted(model, X, taxonomy):
            rows.append(len(X))
            return real(model, X, taxonomy)

        monkeypatch.setattr(mod, "predict_probs", counted)
        report = evaluate(model, samples, tax)
        assert len(rows) == 3 and sum(rows) == n
        monkeypatch.undo()
        probs = predict_probs(model, samples.X, tax)
        for level, _, acc in report.levels:
            pred = coarse_probs(tax, probs, level).argmax(axis=-1)
            assert acc == float((pred == labels_at_level(samples, tax, level)).mean())

    def test_row_blocks_match_the_whole_matrix(self):
        # 2,500 rows: two full blocks and a partial one, on a taxonomy whose
        # level 1 map is unsorted (marginalize gathers before summing)
        tax = semi_inat_taxonomy()
        rng = np.random.default_rng(5)
        n = 2500
        assert n > _BLOCK_ROWS and n % _BLOCK_ROWS
        model = ARCHS["linear"](8, tax.num_leaves, rng)
        X = rng.standard_normal((n, 8))
        # label each row with its own leaf argmax, so any row out of place
        # in the concatenated blocks lowers top1 below 1
        leaves = predict_probs(model, X, tax).argmax(axis=-1)
        samples = Samples(X=X, label_level=np.full(n, tax.leaf_level),
                          label=leaves, true_species=leaves)
        report = evaluate(model, samples, tax)
        assert report == evaluate_whole(model, samples, tax)
        assert report.top1 == 1.0


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
