"""Acceptance gate: eight go/no-go checks, one per test, each printing a
single PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -s``).

They cover exact marginalization algebra, analytic-gradient correctness,
multi-seed directional effects of coarse supervision and consistency
training, the cost of out-of-class unlabeled data and its recovery by
filtering, screening-rule properties, byte-level training determinism,
and a zero-noise sanity bound."""

from dataclasses import replace

import numpy as np
import pytest

from hierssl.data import GenConfig, generate
from hierssl.evaluate import top1
from hierssl.losses import (
    distill_loss,
    fixmatch_loss,
    info_nce_loss,
    pseudo_label_loss,
)
from hierssl.model import save_checkpoint
from hierssl.ood import FilterConfig, filter_split, keep_mask
from hierssl.taxonomy import (
    MarginalizationMatrix,
    marginalize,
    semi_inat_taxonomy,
    shaped_taxonomy,
)
from hierssl.trainers import (
    TrainConfig,
    default_train_config,
    train,
    train_seeds,
    write_metrics,
)

from _reference import dense, hier_supervised_loss

N_SEEDS = 5


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def mean_top1(gen, cfg: TrainConfig) -> float:
    """Mean test top1 of ``cfg`` over seeds 0 .. N_SEEDS - 1, trained in lockstep."""
    accs = [
        top1(result.model, gen.split.test, gen.in_taxonomy)
        for result in train_seeds(gen.split, gen.in_taxonomy, cfg, range(N_SEEDS))
    ]
    return float(np.mean(accs))


# -- 1. exact algebra ---------------------------------------------------------


def test_1_exact_marginalization_and_degeneracies(toy_gen):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(2, 6))
        counts = np.sort(rng.integers(1, 40, size=depth)).tolist()
        tax = shaped_taxonomy(counts)
        probs = rng.dirichlet(np.ones(counts[-1]), size=4)
        coarse = int(rng.integers(1, depth))
        got = marginalize(probs, MarginalizationMatrix.between(tax, depth, coarse))
        brute = np.zeros((4, counts[coarse - 1]))
        anc = tax.ancestor_map(depth, coarse)
        for j, a in enumerate(anc):
            brute[:, a] += probs[:, j]
        worst = max(worst, np.abs(got - brute).max())

    compose_exact = True
    for trial in range(20):
        counts = np.sort(rng.integers(1, 25, size=4)).tolist()
        tax = shaped_taxonomy(counts)
        direct = dense(MarginalizationMatrix.between(tax, 4, 2))
        via = (dense(MarginalizationMatrix.between(tax, 4, 3))
               @ dense(MarginalizationMatrix.between(tax, 3, 2)))
        compose_exact &= bool(np.array_equal(direct, via))

    counts = semi_inat_taxonomy().class_counts
    counts_ok = counts == (3, 8, 29, 123, 339, 729, 810) and sum(counts) == 2041

    # coarse loss taken at the leaf level collapses to plain CE, bitwise
    logits = np.random.default_rng(7).normal(size=(6, 5))
    labels = np.array([0, 1, 2, 3, 4, 0])
    eye = MarginalizationMatrix(np.arange(5, dtype=np.int64), 5)
    composed, _, _ = hier_supervised_loss(
        logits, labels, logits, labels, eye, unsup_weight=1.0)
    from hierssl.losses import cross_entropy

    ce, _ = cross_entropy(logits, labels)
    leaf_bitwise = composed == 2.0 * ce

    # inert confidence gates: pseudo-labeling with tau > 1 follows the
    # supervised trajectory bitwise; the consistency term of fixmatch
    # vanishes at every step
    split, tax = toy_gen.split, toy_gen.in_taxonomy
    base = train(split, tax, TrainConfig(method="baseline", steps=120))
    pl = train(split, tax,
               TrainConfig(method="pseudo_label", steps=120, tau=1.1))
    pl_ok = all(
        a.total == b.total and a.fine == b.fine and a.coarse == b.coarse
        for a, b in zip(base.trace, pl.trace)
    ) and all(
        np.array_equal(base.model.params[k], pl.model.params[k])
        for k in base.model.params
    )
    fm = train(split, tax, TrainConfig(method="fixmatch", steps=120, tau=1.1,
                                       batch_labeled=16, batch_coarse=32))
    fm_ok = all(
        s.extra == 0.0 and s.mask_rate == 0.0
        and s.total == s.fine + 1.0 * s.coarse
        for s in fm.trace
    )

    ok = (worst < 1e-12 and compose_exact and counts_ok and leaf_bitwise
          and pl_ok and fm_ok)
    verdict(
        "criterion 1 (exact marginalization, level counts, degeneracies)", ok,
        f"brute-force max diff {worst:.2e}, composition exact {compose_exact}, "
        f"counts {counts_ok}, leaf CE bitwise {leaf_bitwise}, "
        f"inert-gate identities pl={pl_ok} fm={fm_ok}",
    )


# -- 2. analytic gradients ----------------------------------------------------


def fd_grad(loss_fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (loss_fn(xp) - loss_fn(xm)) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def gate_between(conf: np.ndarray) -> float:
    """Threshold in the widest gap between confidences, safe for FD probes."""
    pts = np.sort(np.concatenate([conf, [0.0, 1.0]]))
    gaps = np.diff(pts)
    i = int(np.argmax(gaps))
    return float((pts[i] + pts[i + 1]) / 2.0)


def test_2_finite_difference_gradients():
    worst = 0.0
    anc = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    w = MarginalizationMatrix(anc, 3)
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(100 + seed)
        fine = rng.normal(size=(4, 5)) * 2.0
        coarse = rng.normal(size=(3, 5)) * 2.0
        y_fine = rng.integers(0, 5, size=4)
        y_coarse = rng.integers(0, 3, size=3)

        _, g_f, g_c = hier_supervised_loss(fine, y_fine, coarse, y_coarse, w,
                                           unsup_weight=0.7)
        worst = max(worst, rel_err(g_f, fd_grad(
            lambda z: hier_supervised_loss(z, y_fine, coarse, y_coarse, w,
                                           unsup_weight=0.7)[0], fine)))
        worst = max(worst, rel_err(g_c, fd_grad(
            lambda z: hier_supervised_loss(fine, y_fine, z, y_coarse, w,
                                           unsup_weight=0.7)[0], coarse)))

        from hierssl.losses import softmax

        tau = gate_between(softmax(fine).max(axis=1))
        _, g, _ = pseudo_label_loss(fine, tau)
        worst = max(worst, rel_err(g, fd_grad(
            lambda z: pseudo_label_loss(z, tau)[0], fine)))

        weak = rng.normal(size=(4, 5)) * 2.0
        strong = rng.normal(size=(4, 5)) * 2.0
        tau = gate_between(softmax(weak).max(axis=1))
        _, g, _ = fixmatch_loss(weak, strong, tau)
        worst = max(worst, rel_err(g, fd_grad(
            lambda z: fixmatch_loss(weak, z, tau)[0], strong)))

        student = rng.normal(size=(4, 5)) * 2.0
        teacher = rng.normal(size=(4, 5)) * 2.0
        _, g, _ = distill_loss(student, teacher, 2.0)
        worst = max(worst, rel_err(g, fd_grad(
            lambda z: distill_loss(z, teacher, 2.0)[0], student)))

        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        queue = rng.normal(size=(16, 8))
        _, g = info_nce_loss(q, k, queue, 0.07)
        worst = max(worst, rel_err(g, fd_grad(
            lambda z: info_nce_loss(z, k, queue, 0.07)[0], q)))

    ok = worst < 1e-4
    verdict("criterion 2 (finite-difference gradient checks)", ok,
            f"max relative error {worst:.2e} over {N_SEEDS} seeds")


# -- 3. coarse supervision helps, finer helps more ----------------------------


def test_3_supervision_level_sweep(default_gen):
    levels = [None] + list(range(1, 8))
    means = [
        mean_top1(default_gen, TrainConfig(method="baseline", supervision_level=lv))
        for lv in levels
    ]
    gain = means[2] - means[0]  # level 2 vs none
    inversions = [
        (levels[i + 1], means[i] - means[i + 1])
        for i in range(len(means) - 1)
        if means[i + 1] < means[i]
    ]
    ok = (gain >= 0.02 and len(inversions) <= 1
          and all(drop <= 0.01 for _, drop in inversions))
    summary = " ".join(
        f"{'none' if lv is None else lv}={m:.3f}" for lv, m in zip(levels, means))
    verdict("criterion 3 (coarse-supervision level sweep)", ok,
            f"gain at level 2 {gain * 100:+.1f}pt, "
            f"inversions {inversions or 'none'}; {summary}")


# -- 4. consistency training stacks with coarse supervision -------------------


def crit4_fixmatch(supervision_level) -> TrainConfig:
    return default_train_config(
        "fixmatch", supervision_level=supervision_level,
        arch="mlp1", weight_decay=1e-2, tau=0.95)


def test_4_consistency_plus_hierarchy(default_gen):
    b_hier = mean_top1(default_gen, TrainConfig(
        method="baseline", supervision_level=2, arch="mlp1",
        weight_decay=1e-2))
    f_none = mean_top1(default_gen, crit4_fixmatch(None))
    f_hier = mean_top1(default_gen, crit4_fixmatch(2))
    ok = f_hier >= f_none and f_hier >= b_hier
    verdict("criterion 4 (consistency + coarse supervision)", ok,
            f"fixmatch+L2 {f_hier:.3f} vs fixmatch alone {f_none:.3f} "
            f"vs baseline+L2 {b_hier:.3f}")


# -- 5. out-of-class data hurts; filtering recovers part of the loss ----------


def test_5_out_of_class_cost_and_filter_recovery(shifted_gen):
    split, tax = shifted_gen.split, shifted_gen.in_taxonomy

    screen = train(split, tax, TrainConfig(
        method="baseline", supervision_level=None, arch="mlp1",
        weight_decay=1e-2, seed=0))
    filtered, _ = filter_split(screen.model, tax, split,
                               FilterConfig(tau=0.3, match_level=2))

    f_in = mean_top1(shifted_gen, crit4_fixmatch(2))
    f_union = mean_top1(shifted_gen,
                        replace(crit4_fixmatch(2), coarse_source="union"))
    filtered_gen = replace(shifted_gen, split=filtered)
    f_filt = mean_top1(filtered_gen, crit4_fixmatch(2))

    ok = f_union < f_in and f_union < f_filt < f_in
    verdict("criterion 5 (out-of-class cost and filter recovery)", ok,
            f"clean {f_in:.3f} > filtered {f_filt:.3f} > union {f_union:.3f}")


# -- 6. screening-rule properties ---------------------------------------------


def test_6_filter_properties():
    results = []
    for ds_seed, counts in ((0, (2, 5, 11)), (1, (1, 3, 9)), (2, (3, 6, 14))):
        gen = generate(GenConfig(
            level_counts=counts, dim=12, seed=ds_seed, out_offset_scale=1.5,
            labeled_per_species=2, coarse_in_per_species=6,
            coarse_out_per_species=6, test_per_species=2))
        split, tax = gen.split, gen.in_taxonomy
        model = train(split, tax, TrainConfig(
            method="baseline", steps=40, seed=ds_seed)).model
        pool = split.coarse_in + split.coarse_out

        once, _ = filter_split(model, tax, split, FilterConfig(tau=0.5))
        twice, _ = filter_split(model, tax, once, FilterConfig(tau=0.5))
        idempotent = all(
            np.array_equal(getattr(twice.coarse_in, name),
                           getattr(once.coarse_in, name))
            for name in ("X", "label_level", "label", "true_species"))

        masks = [keep_mask(model, tax, pool, FilterConfig(tau=t))
                 for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        nested = all(
            np.all(hi <= lo) for lo, hi in zip(masks, masks[1:]))

        flipped = replace(pool, true_species=np.where(pool.true_species >= 0, -1, 0))
        blind = np.array_equal(
            keep_mask(model, tax, pool, FilterConfig(tau=0.5)),
            keep_mask(model, tax, flipped, FilterConfig(tau=0.5)))
        results.append((idempotent, nested, blind))

    ok = all(all(r) for r in results)
    verdict("criterion 6 (filter idempotence, tau-monotonicity, origin "
            "independence)", ok, f"per-dataset results {results}")


# -- 7. byte-identical reruns -------------------------------------------------


def test_7_rerun_determinism(toy_gen, tmp_path):
    split, tax = toy_gen.split, toy_gen.in_taxonomy
    configs = [
        TrainConfig(method="baseline", steps=25),
        TrainConfig(method="fixmatch", steps=25, batch_labeled=16,
                    batch_coarse=32),
        TrainConfig(method="moco_self_training", steps=20, arch="mlp1",
                    pretrain_steps=10, batch_pretrain=16),
    ]
    identical = True
    for i, cfg in enumerate(configs):
        blobs = []
        for run in ("a", "b"):
            res = train(split, tax, cfg)
            ck = tmp_path / f"{i}{run}.ckpt"
            mt = tmp_path / f"{i}{run}.metrics"
            save_checkpoint(res.model, ck, seed=cfg.seed, step=cfg.steps)
            write_metrics(res.trace, mt, res.pretrain_trace)
            blobs.append(ck.read_bytes() + mt.read_bytes())
        identical &= blobs[0] == blobs[1]
    verdict("criterion 7 (byte-identical training reruns)", identical,
            f"{len(configs)} methods, checkpoint + metrics bytes compared")


# -- 8. zero-noise sanity -----------------------------------------------------


def test_8_zero_noise_accuracy():
    gen = generate(GenConfig(sigma_x=0.0))
    acc = top1(
        train(gen.split, gen.in_taxonomy, TrainConfig(method="baseline")).model,
        gen.split.test, gen.in_taxonomy)
    ok = acc >= 0.995
    verdict("criterion 8 (zero-noise test accuracy)", ok, f"top1 {acc:.4f}")


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_gen():
    return generate(GenConfig(level_counts=(1, 2, 8), dim=8, seed=0))


@pytest.fixture(scope="module")
def default_gen():
    return generate(GenConfig())


@pytest.fixture(scope="module")
def shifted_gen():
    return generate(GenConfig(out_attach_level=2, out_offset_scale=2.0, seed=0))
