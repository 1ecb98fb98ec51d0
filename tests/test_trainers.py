"""Training loops: exact degeneration identities, reproducibility, RNG
phase separation, the contrastive queue, and the metrics round trip."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hierssl.data import GenConfig, generate, labels_at_level
from hierssl.errors import (
    ConfigError,
    DataError,
    EmptySplit,
    NonFiniteGradient,
    ParseError,
)
from hierssl.model import save_checkpoint
from hierssl.trainers import (
    METHODS,
    NegativeQueue,
    PretrainStats,
    StepStats,
    TrainConfig,
    _pack,
    _phase_rngs,
    _pretrain_contrastive,
    default_train_config,
    read_metrics,
    train,
    train_seeds,
    write_metrics,
)

TOY = GenConfig(level_counts=(1, 2, 8), dim=8, seed=0)


@pytest.fixture(scope="module")
def toy_gen():
    return generate(TOY)


def params_equal(a, b) -> bool:
    return set(a.params) == set(b.params) and all(
        np.array_equal(a.params[k], b.params[k]) for k in a.params
    )


def quick(method: str, **kw) -> TrainConfig:
    base = dict(steps=30, seed=0, pretrain_steps=10, batch_pretrain=16)
    base.update(kw)
    return default_train_config(method, **base)


def pretrain_alone(split, tax, cfg: TrainConfig):
    """The contrastive stage alone, on the arrays ``train`` packs."""
    return _pretrain_contrastive(_pack(split, tax, cfg, need_pool=False), tax, cfg,
                                 (cfg.seed,))


class TestDegenerationIdentities:
    def test_pseudo_label_with_inert_gate_matches_baseline_bitwise(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        base = train(split, tax, quick("baseline", steps=120))
        pl = train(split, tax, quick("pseudo_label", steps=120, tau=1.1))
        assert params_equal(base.model, pl.model)
        assert len(pl.trace) == 120
        for sb, sp in zip(base.trace, pl.trace):
            assert sp.extra == 0.0
            assert sp.mask_rate == 0.0
            assert sp.total == sb.total  # bitwise
            assert sp.fine == sb.fine and sp.coarse == sb.coarse

    def test_fixmatch_with_inert_gate_drops_the_consistency_term(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        fm = train(split, tax, quick("fixmatch", steps=120, tau=1.1))
        for s in fm.trace:
            assert s.extra == 0.0
            assert s.mask_rate == 0.0
            assert s.total == s.fine + 1.0 * s.coarse  # gate contributes nothing

    def test_fixmatch_inert_gate_trajectory_ignores_consistency_weight(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        a = train(split, tax, quick("fixmatch", steps=60, tau=1.1,
                                    consistency_weight=1.0))
        b = train(split, tax, quick("fixmatch", steps=60, tau=1.1,
                                    consistency_weight=7.0))
        assert params_equal(a.model, b.model)

    def test_distillation_with_zero_weight_matches_baseline_bitwise(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        base = train(split, tax, quick("baseline", steps=60))
        st = train(split, tax, quick("self_training", steps=60, distill_weight=0.0))
        assert params_equal(base.model, st.model)
        for sb, ss in zip(base.trace, st.trace):
            assert ss.total == sb.total

    def test_zero_unsup_weight_keeps_coarse_out_of_the_update(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        none = train(split, tax, quick("baseline", steps=40, supervision_level=None))
        zero = train(split, tax, quick("baseline", steps=40, unsup_weight=0.0))
        # same objective value path; batches differ (the coarse stream is
        # still drawn), so compare the labeled-term trajectory only
        assert all(s.coarse != 0.0 for s in zero.trace)  # still measured
        assert all(s.total == s.fine for s in zero.trace)  # but not weighted in
        assert all(s.coarse == 0.0 for s in none.trace)


class TestReproducibility:
    @pytest.mark.parametrize("method", ["baseline", "pseudo_label", "fixmatch",
                                        "self_training"])
    def test_rerun_is_bitwise_identical(self, toy_gen, method):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        a = train(split, tax, quick(method))
        b = train(split, tax, quick(method))
        assert params_equal(a.model, b.model)
        assert [s.total for s in a.trace] == [s.total for s in b.trace]

    def test_moco_rerun_is_bitwise_identical(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        cfg = quick("moco_self_training", steps=15)
        a = train(split, tax, cfg)
        b = train(split, tax, cfg)
        assert params_equal(a.model, b.model)
        assert [p.loss for p in a.pretrain_trace] == [p.loss for p in b.pretrain_trace]

    def test_checkpoint_bytes_are_identical_across_reruns(self, toy_gen, tmp_path):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(train(split, tax, quick("baseline")).model, pa, seed=0, step=30)
        save_checkpoint(train(split, tax, quick("baseline")).model, pb, seed=0, step=30)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_the_run(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        a = train(split, tax, quick("baseline", seed=0))
        b = train(split, tax, quick("baseline", seed=1))
        assert not params_equal(a.model, b.model)

    def test_phase_streams_are_independent(self):
        i0, b0, a0 = _phase_rngs(3, "main")
        i1, b1, a1 = _phase_rngs(3, "main")
        assert i0.integers(0, 1 << 30) == i1.integers(0, 1 << 30)
        assert b0.integers(0, 1 << 30) == b1.integers(0, 1 << 30)
        # distinct phases give distinct streams
        i2, _, _ = _phase_rngs(3, "teacher")
        assert i0.integers(0, 1 << 30, size=8).tolist() != \
            i2.integers(0, 1 << 30, size=8).tolist()


class TestSharedSupervisedCore:
    def test_without_supervision_level_coarse_term_is_absent(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        r = train(split, tax, quick("baseline", supervision_level=None))
        assert all(s.coarse == 0.0 for s in r.trace)

    def test_supervision_level_above_depth_is_rejected(self, toy_gen):
        with pytest.raises(ConfigError):
            train(toy_gen.split, toy_gen.in_taxonomy,
                  quick("baseline", supervision_level=4))

    def test_leaf_supervision_level_is_accepted(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        r = train(split, tax, quick("baseline", supervision_level=3, steps=10))
        assert all(s.coarse > 0.0 for s in r.trace)

    def test_union_source_sees_out_samples(self, toy_gen):
        pool_in = toy_gen.split.coarse("coarse_in")
        pool_union = toy_gen.split.coarse("union")
        assert len(pool_union) == len(pool_in) + len(toy_gen.split.coarse_out)
        with pytest.raises(ConfigError):
            toy_gen.split.coarse("everything")

    def test_coarsely_labeled_labeled_split_is_rejected(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        labeled = replace(split.labeled, label_level=np.full(len(split.labeled), 2),
                          label=labels_at_level(split.labeled, tax, 2))
        with pytest.raises(DataError, match="labeled at level 2, not at the leaf level 3"):
            train(replace(split, labeled=labeled), tax, quick("baseline", steps=5))

    def test_augment_inputs_with_zero_sigma_changes_nothing(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        plain = train(split, tax, quick("baseline", steps=40))
        noiseless = quick("baseline", steps=40, augment_inputs=True, sigma_weak=0.0)
        assert params_equal(plain.model, train(split, tax, noiseless).model)

    def test_augment_inputs_with_noise_changes_the_run(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        plain = train(split, tax, quick("baseline", steps=40))
        noisy = train(split, tax, quick("baseline", steps=40, augment_inputs=True))
        assert not params_equal(plain.model, noisy.model)


class TestMonotoneLossSanity:
    def test_smoothed_baseline_loss_descends_over_first_half(self):
        g = generate(GenConfig())
        r = train(g.split, g.in_taxonomy, TrainConfig(method="baseline", seed=0))
        totals = np.array([s.total for s in r.trace])
        assert len(totals) == 400
        windows = totals.reshape(4, 100).mean(axis=1)
        first_half = windows[: len(windows) // 2 + 1]
        assert np.all(np.diff(first_half) <= 0.0)


class TestStages:
    def test_self_training_returns_its_teacher(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        r = train(split, tax, quick("self_training", steps=20))
        assert r.teacher is not None
        assert not params_equal(r.teacher, r.model)

    def test_moco_keeps_pretrained_representation_and_fresh_classifier(self, toy_gen):
        from hierssl.model import ARCHS

        split, tax = toy_gen.split, toy_gen.in_taxonomy
        cfg = quick("moco", steps=1, lr=1e-12)
        encoder, _ = pretrain_alone(split, tax, cfg)
        r = train(split, tax, cfg)
        # representation comes from stage 1 (up to one ~1e-12 SGD step)
        assert_allclose(r.model.params["W1"], encoder.params["W1"][0],
                        rtol=0, atol=1e-9)
        assert not np.allclose(r.model.params["W1"],
                               ARCHS["mlp1"](8, 8, _phase_rngs(0, "main")[0],
                                             hidden=cfg.hidden).params["W1"])
        # classifier does not: it restarts from the main-phase init
        fresh = ARCHS["mlp1"](8, 8, _phase_rngs(0, "main")[0],
                              hidden=cfg.hidden)
        assert_allclose(r.model.params["W2"], fresh.params["W2"],
                        rtol=0, atol=1e-9)

    def test_key_network_starts_as_an_independent_copy(self, toy_gen, monkeypatch):
        import hierssl.trainers as trainers
        from hierssl.model import ARCHS, ContrastiveModel, ProjectionHead

        seen, real = [], trainers.momentum_update

        def spy(key_params, query_params, m):
            if not seen:  # before the key's first update, after one query step
                assert not any(np.shares_memory(v, query_params[k])
                               for k, v in key_params.items())
                seen.append({k: v.copy() for k, v in key_params.items()})
            real(key_params, query_params, m)

        monkeypatch.setattr(trainers, "momentum_update", spy)
        cfg = quick("moco", pretrain_steps=1)
        pretrain_alone(toy_gen.split, toy_gen.in_taxonomy, cfg)
        rng_init = _phase_rngs(0, "pretrain")[0]
        encoder = ARCHS["mlp1"](8, 8, rng_init, hidden=cfg.hidden)
        query = ContrastiveModel(
            encoder, ProjectionHead(encoder.rep_dim, cfg.emb_dim, rng_init))
        assert seen[0].keys() == query.params.keys()
        assert all(seen[0][k].tobytes() == v.tobytes() for k, v in query.params.items())

    def test_moco_self_training_runs_all_three_stages(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        r = train(split, tax, quick("moco_self_training", steps=15))
        assert r.pretrain_trace is not None and len(r.pretrain_trace) == 10
        assert r.teacher is not None
        assert len(r.trace) == 15

    def test_inputs_are_checked_before_pretraining(self, toy_gen, monkeypatch):
        import hierssl.trainers as trainers

        def pretrain(*args):
            raise AssertionError("pretraining ran before the inputs were checked")

        monkeypatch.setattr(trainers, "_pretrain_contrastive", pretrain)
        with pytest.raises(ConfigError, match="supervision_level: 4 exceeds"):
            train(toy_gen.split, toy_gen.in_taxonomy,
                  quick("moco_self_training", supervision_level=4))

    def test_moco_requires_an_encoder_architecture(self, toy_gen):
        with pytest.raises(ConfigError):
            train(toy_gen.split, toy_gen.in_taxonomy,
                  quick("moco", arch="linear"))

    def test_pretrain_first_step_has_empty_queue_and_zero_loss(self, toy_gen):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        cfg = quick("moco", queue_size=40)
        _, (trace,) = pretrain_alone(split, tax, cfg)
        assert trace[0].loss == 0.0  # no negatives yet
        assert trace[1].loss > 0.0
        # queue length follows min(capacity, steps * batch)
        for s in trace:
            assert s.queue_len == min(40, (s.step + 1) * cfg.batch_pretrain)


class TestNegativeQueue:
    def test_fifo_eviction(self):
        q = NegativeQueue(3, 2)
        q.push(np.array([[1.0, 1], [2, 2]]))
        q.push(np.array([[3.0, 3]]))
        assert np.array_equal(q.array[:, 0], [1, 2, 3])
        q.push(np.array([[4.0, 4], [5, 5]]))
        assert np.array_equal(q.array[:, 0], [3, 4, 5])
        assert len(q) == 3

    def test_leading_axis_holds_one_fifo_per_seed(self):
        q = NegativeQueue(3, 2, (2,))
        lone = [NegativeQueue(3, 2), NegativeQueue(3, 2)]
        rng = np.random.default_rng(0)
        for n in (2, 1, 2):
            keys = rng.standard_normal((2, n, 2))
            q.push(keys)
            for one, k in zip(lone, keys):
                one.push(k)
        assert len(q) == 3 and q.array.shape == (2, 3, 2)
        assert all(np.array_equal(q.array[i], lone[i].array) for i in range(2))


class TestEmptySplits:
    def test_empty_labeled_rejected(self, toy_gen):
        from hierssl.data import DataSplit

        s = toy_gen.split
        none = s.labeled.take([])
        empty = DataSplit(labeled=none, coarse_in=none, coarse_out=none,
                          test=s.test)
        with pytest.raises(EmptySplit):
            train(empty, toy_gen.in_taxonomy, quick("baseline"))

    def test_missing_coarse_pool_rejected_when_needed(self, toy_gen):
        from hierssl.data import DataSplit

        s = toy_gen.split
        none = s.labeled.take([])
        no_coarse = DataSplit(labeled=s.labeled, coarse_in=none,
                              coarse_out=none, test=s.test)
        with pytest.raises(EmptySplit):
            train(no_coarse, toy_gen.in_taxonomy, quick("baseline"))
        with pytest.raises(EmptySplit):
            train(no_coarse, toy_gen.in_taxonomy,
                  quick("fixmatch", supervision_level=None))
        # fine without any coarse requirement
        train(no_coarse, toy_gen.in_taxonomy,
              quick("baseline", supervision_level=None, steps=5))


class TestDefaults:
    def test_fixmatch_batch_defaults(self):
        cfg = default_train_config("fixmatch")
        assert (cfg.batch_labeled, cfg.batch_coarse) == (32, 160)
        assert cfg.tau == 0.8

    def test_moco_arch_default(self):
        assert default_train_config("moco").arch == "mlp1"
        assert default_train_config("moco_self_training").arch == "mlp1"
        assert default_train_config("baseline").arch == "linear"

    def test_shared_defaults(self):
        cfg = default_train_config("baseline")
        assert (cfg.batch_labeled, cfg.batch_coarse) == (30, 30)
        assert cfg.queue_size == 2048
        assert cfg.supervision_level == 2
        assert cfg.steps == 400
        assert cfg.momentum == 0.9

    def test_overrides_apply(self):
        cfg = default_train_config("fixmatch", tau=0.95, steps=10)
        assert cfg.tau == 0.95 and cfg.steps == 10 and cfg.batch_coarse == 160

    @pytest.mark.parametrize("bad", [
        dict(method="gan"),
        dict(coarse_source="validation"),
        dict(supervision_level=0),
        dict(steps=0),
        dict(lr=0.0),
        dict(momentum=1.0),
        dict(weight_decay=-1.0),
        dict(batch_labeled=0),
        dict(tau=0.0),
        dict(unsup_weight=-0.5),
        dict(distill_temperature=0.0),
        dict(nce_temperature=0.0),
        dict(key_momentum=1.0),
        dict(queue_size=-1),
        dict(pretrain_steps=0),
        dict(emb_dim=0),
        dict(hidden=-3),
        dict(arch="cnn"),
        dict(seed=-1),
        dict(method="moco", arch="linear"),
        dict(method="moco", arch="mlp1", queue_size=0),
        dict(arch="mlp1", hidden=0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


class TestMetricsFile:
    def test_round_trip_is_exact(self, tmp_path):
        trace = [
            StepStats(0, 0.1 + 0.2, 1e-17, 2.5, 0.0, 0.5),
            StepStats(1, 1.0 / 3.0, 0.0, -0.0, 123456.789, 1.0),
        ]
        pre = [PretrainStats(0, 0.0, 0), PretrainStats(1, 7.25e-4, 64)]
        p = tmp_path / "metrics.txt"
        write_metrics(trace, p, pre)
        back, back_pre = read_metrics(p)
        assert back == trace
        assert back_pre == pre

    def test_no_pretrain_section(self, tmp_path):
        p = tmp_path / "metrics.txt"
        write_metrics([StepStats(0, 1.0, 1.0, 0.0, 0.0, 0.0)], p)
        trace, pre = read_metrics(p)
        assert len(trace) == 1 and pre is None

    def test_write_is_byte_identical(self, toy_gen, tmp_path):
        split, tax = toy_gen.split, toy_gen.in_taxonomy
        r = train(split, tax, quick("baseline", steps=10))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_metrics(r.trace, a)
        write_metrics(r.trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("wrong\n")
        with pytest.raises(ParseError) as e:
            read_metrics(p)
        assert e.value.line == 1

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("hierssl-metrics v1\nstep 0 total oops\n")
        with pytest.raises(ParseError) as e:
            read_metrics(p)
        assert e.value.line == 2


# Every method under coarse supervision on and off, from the union pool,
# and with augmented inputs; the low tau lets the gated terms fire.
RUN_CASES = {
    "L2": dict(),
    "none": dict(supervision_level=None),
    "union-L1": dict(coarse_source="union", supervision_level=1, tau=0.3),
    "augment": dict(augment_inputs=True, tau=0.3),
}

# sha256 of the checkpoint and metrics.txt bytes of one run, followed by
# the teacher checkpoint where the method has one; in RUN_CASES order.
# Pinned so that any change in the training arithmetic or the draw order
# of the batch and augmentation streams shows.
GOLDEN_RUNS = {
    "baseline": (
        "6d40aa7be9745f9f99341e628866d44c09cbad56f4caeb0bc8ca7a2f9a8fed83",
        "61be215c8aa077d4ba4a5b825530ef7cc663a2e571459075fbcff2ca4d3af07f",
        "a58223f2d3fa7f1c28caa38ed7643310fc42f77608e71641f77418ad7b558bf5",
        "89705a1f4da16ed9c29a84c56f6c4d3975ebcaf0045de44e732e1628cf081674",
    ),
    "pseudo_label": (
        "c51dee28898790f0dd8a6c901dc5eea9396413ff9050ca2ec18ac886ae1b5c22",
        "e7b314669d77caf85e11e05b1d89286b5d2e305d3f1111c585c73be7684d2867",
        "0a1f976fc887fc530730f511fbdb51ba3669d1e376f474fae4582b04a97654c8",
        "cb5b91ad77ec108baef39c86a2f890de5dc02507c07d56fd695a879f5290d0fe",
    ),
    "fixmatch": (
        "005d5a8d2d5cfb762bf734aa1f924512510c381e4937376538a60f8d6d25ce2b",
        "08a4663539eeedf929ac749ca60bbd9aa4b2eb6432021764762fdf5ccc288cc1",
        "d07e0ff5a342234f3dcdefd6391b6f4064340f038d763e8a9c5a02d668bd8652",
        "5cc27607f005df053014969831d2e57714d6ed7f25bd84486bca51da8c1c419c",
    ),
    "self_training": (
        "a168561dceb76fb50f1858fa53f5e4d5077029a10b16a0c616970f224af28d0e",
        "dafc919cfa494ca853d2621c4d19cd2583a6ee69734cbcb707e5b6e1363ce7b8",
        "3e98f233fa3209e48b518f16810f29e1de95ff5d321885443d17b52d37e77b39",
        "8e05cb824561cc3aaf78a60aef379ab563e0a55c333269c8fc1f23a5cd068b1c",
    ),
    "moco": (
        "da2b54bcbc2ebb5744f2c61920cd6b468516e8452c19f36cfbbc3d86a509c11e",
        "9cfa894e0b7944ae5eaedcf161f3b6f515587915debf247a651da040e377d2f9",
        "3eee853dafd00c0bcba90dfbf5ca5d1aea7d5fc92d059d47725f7c80648c1df9",
        "e528185b3d3efcfbc02da11285200509fe2d8d81f9d20b091543f2f9c5622b47",
    ),
    "moco_self_training": (
        "7ac954564b38f1257e925f959ef8e7be59580d832942b51b2b7a2b75cd1f74ce",
        "75a4693c1913cd0be2368aac90e46c05a5fa70da60f7b658fbd2d2f185d9df53",
        "fe99efc108c97c867bcc2f76f3453e027ead10ce99cb1f33108495f4d23a2d10",
        "a0424e3c554521702f0d8acb7a36c125579f531de2c1cabacf477efc68528e26",
    ),
}


def run_digest(r, cfg, tmp_path) -> str:
    digest = hashlib.sha256()
    save_checkpoint(r.model, tmp_path / "ckpt", seed=cfg.seed, step=cfg.steps)
    write_metrics(r.trace, tmp_path / "metrics", r.pretrain_trace)
    paths = [tmp_path / "ckpt", tmp_path / "metrics"]
    if r.teacher is not None:
        save_checkpoint(r.teacher, tmp_path / "teacher", seed=cfg.seed,
                        step=cfg.steps)
        paths.append(tmp_path / "teacher")
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_training_bytes_are_pinned(toy_gen, tmp_path, method, case):
    cfg = quick(method, **RUN_CASES[case])
    r = train(toy_gen.split, toy_gen.in_taxonomy, cfg)
    assert run_digest(r, cfg, tmp_path) == \
        GOLDEN_RUNS[method][list(RUN_CASES).index(case)]


# The golden runs above push at most 160 keys into a queue of 2048; these
# push 160 into a queue of 40, so the queue is full and drops its oldest
# keys from the third step on. Same digest layout as GOLDEN_RUNS.
GOLDEN_WRAPPED = {
    "moco": "54b19ee854c2efa8fffee957b880dd7d63195145ab3a58a3708d29e278fa9341",
    "moco_self_training":
        "07a0b33ca75b07cf652cae3099216a1203e44b7da16056b9b49a37e60bb0d6c3",
}


@pytest.mark.parametrize("method", sorted(GOLDEN_WRAPPED))
def test_wrapped_queue_bytes_are_pinned(toy_gen, tmp_path, method):
    cfg = quick(method, queue_size=40)
    r = train(toy_gen.split, toy_gen.in_taxonomy, cfg)
    assert [s.queue_len for s in r.pretrain_trace] == [16, 32] + [40] * 8
    assert run_digest(r, cfg, tmp_path) == GOLDEN_WRAPPED[method]


# -- seeds in lockstep ----------------------------------------------------------


def lone_digests(toy_gen, tmp_path, cfg, seeds) -> list[str]:
    out = []
    for seed in seeds:
        one = replace(cfg, seed=seed)
        out.append(run_digest(train(toy_gen.split, toy_gen.in_taxonomy, one), one,
                              tmp_path))
    return out


def lockstep_digests(toy_gen, tmp_path, cfg, seeds) -> list[str]:
    results = train_seeds(toy_gen.split, toy_gen.in_taxonomy, cfg, seeds)
    return [run_digest(r, replace(cfg, seed=seed), tmp_path)
            for seed, r in zip(seeds, results)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_lockstep_seeds_match_lone_runs(toy_gen, tmp_path, method, case):
    cfg = quick(method, **RUN_CASES[case])
    assert lockstep_digests(toy_gen, tmp_path, cfg, (0, 1, 2)) == \
        lone_digests(toy_gen, tmp_path, cfg, (0, 1, 2))


@pytest.mark.parametrize("method", sorted(GOLDEN_WRAPPED))
def test_lockstep_wrapped_queue_matches_lone_runs(toy_gen, tmp_path, method):
    cfg = quick(method, queue_size=40)
    digests = lockstep_digests(toy_gen, tmp_path, cfg, (0, 1, 2))
    assert digests == lone_digests(toy_gen, tmp_path, cfg, (0, 1, 2))
    assert digests[0] == GOLDEN_WRAPPED[method]


@pytest.mark.parametrize("seeds", [(0,), (0, 1)], ids=["lone", "two"])
def test_lockstep_results_own_their_parameters(toy_gen, seeds):
    results = train_seeds(toy_gen.split, toy_gen.in_taxonomy,
                          quick("self_training"), seeds)
    for r in results:
        for model in (r.model, r.teacher):
            assert all(v.flags.c_contiguous and v.base is None
                       for v in model.params.values())
    if len(seeds) > 1:
        assert not np.array_equal(*(r.model.params["W"] for r in results))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_seed_fails_the_lockstep_run(toy_gen):
    with pytest.raises(NonFiniteGradient):
        train_seeds(toy_gen.split, toy_gen.in_taxonomy,
                    quick("baseline", lr=1e160, weight_decay=1e160), (0, 1, 2))


@pytest.mark.parametrize("seeds", [(), (0, -1)], ids=["empty", "negative"])
def test_seed_list_is_checked(toy_gen, seeds):
    with pytest.raises(ConfigError, match="seed"):
        train_seeds(toy_gen.split, toy_gen.in_taxonomy, quick("baseline"), seeds)
