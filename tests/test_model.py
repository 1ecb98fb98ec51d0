"""Model forward/backward consistency, the SGD update rule, momentum
encoder updates, and the checkpoint round trip."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hierssl.errors import (
    ArchitectureMismatch,
    ConfigError,
    NonFiniteGradient,
    ParseError,
)
from hierssl.losses import cross_entropy
from hierssl.model import (
    ContrastiveModel,
    ProjectionHead,
    SgdMomentum,
    load_checkpoint,
    make_model,
    momentum_update,
    predict_probs,
    save_checkpoint,
)
from hierssl.taxonomy import shaped_taxonomy

from _gradcheck import grad_check


def fresh(arch: str, seed: int = 0, dim: int = 6, classes: int = 4):
    return make_model(arch, dim, classes, np.random.default_rng(seed), hidden=8)


class TestBackward:
    @pytest.mark.parametrize("arch", ["linear", "mlp1"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_classifier_gradients_match_finite_differences(self, arch, seed):
        rng = np.random.default_rng(100 + seed)
        model = fresh(arch, seed)
        X = rng.standard_normal((10, 6))
        y = rng.integers(0, 4, size=10)

        def fn():
            logits, cache = model.forward_cached(X)
            loss, g = cross_entropy(logits, y)
            return loss, model.backward(cache, g)

        assert grad_check(fn, model.params, np.random.default_rng(seed)) < 1e-5

    @pytest.mark.parametrize("arch", ["linear", "mlp1"])
    def test_contrastive_gradients_match_finite_differences(self, arch):
        from hierssl.losses import info_nce_loss

        rng = np.random.default_rng(7)
        enc = fresh(arch, 3)
        head = ProjectionHead(enc.rep_dim, 5, np.random.default_rng(4))
        cm = ContrastiveModel(enc, head)
        X = rng.standard_normal((6, 6))
        key = rng.standard_normal((6, 5))
        key /= np.linalg.norm(key, axis=-1, keepdims=True)
        queue = rng.standard_normal((9, 5))
        queue /= np.linalg.norm(queue, axis=-1, keepdims=True)

        def fn():
            q, cache = cm.embed_cached(X)
            loss, g_q = info_nce_loss(q, key, queue, 0.2)
            return loss, cm.backward(cache, g_q)

        params = cm.params
        if arch == "linear":
            assert set(params) == {"head.P", "head.bp"}
        else:
            assert set(params) == {"enc.W1", "enc.b1", "head.P", "head.bp"}
        assert grad_check(fn, params, np.random.default_rng(8)) < 1e-5

    def test_projection_output_is_unit_norm(self):
        head = ProjectionHead(6, 4, np.random.default_rng(0))
        rep = np.random.default_rng(1).standard_normal((12, 6))
        q, _ = head.forward_cached(rep)
        assert_allclose(np.linalg.norm(q, axis=-1), 1.0, rtol=1e-12)

    def test_forward_cached_matches_forward(self):
        model = fresh("mlp1")
        X = np.random.default_rng(2).standard_normal((5, 6))
        assert np.array_equal(model.forward(X), model.forward_cached(X)[0])

    def test_predict_probs_rows_sum_to_one(self):
        model = fresh("mlp1")
        X = np.random.default_rng(3).standard_normal((5, 6))
        p = predict_probs(model, X, shaped_taxonomy([2, 4]))
        assert p.shape == (5, 4)
        assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)

    def test_predict_probs_refuses_non_finite_logits(self):
        model = fresh("linear")
        model.params["b"][1] = np.inf
        with pytest.raises(NonFiniteGradient, match="logits"):
            predict_probs(model, np.zeros((3, 6)), shaped_taxonomy([2, 4]))


class TestSgdMomentum:
    def test_two_hand_computed_steps(self):
        params = {"W": np.array([1.0]), "b": np.array([1.0])}
        opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.5)
        for _ in range(2):
            opt.step(params, {"W": np.array([0.2]), "b": np.array([0.2])})
        assert_allclose(params["W"], [0.8005], rtol=1e-15)
        assert_allclose(params["b"], [0.942], rtol=1e-15)

    def test_decay_exemption_follows_name_suffix(self):
        # any parameter whose last dot-component starts with "b" is a bias
        params = {
            "enc.W1": np.array([1.0]),
            "enc.b1": np.array([1.0]),
            "head.bp": np.array([1.0]),
        }
        opt = SgdMomentum(lr=0.1, momentum=0.0, weight_decay=1.0)
        opt.step(params, {k: np.array([0.0]) for k in params})
        assert_allclose(params["enc.W1"], [0.9], rtol=1e-15)
        assert_allclose(params["enc.b1"], [1.0], rtol=1e-15)
        assert_allclose(params["head.bp"], [1.0], rtol=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        params = {"W": np.array([2.0])}
        opt = SgdMomentum(lr=0.5, momentum=0.0)
        opt.step(params, {"W": np.array([1.0])})
        opt.step(params, {"W": np.array([1.0])})
        assert_allclose(params["W"], [1.0], rtol=1e-15)

    def test_velocity_accumulates(self):
        params = {"W": np.array([0.0])}
        opt = SgdMomentum(lr=1.0, momentum=0.5)
        opt.step(params, {"W": np.array([1.0])})   # v=1,    W=-1
        opt.step(params, {"W": np.array([0.0])})   # v=0.5,  W=-1.5
        assert_allclose(params["W"], [-1.5], rtol=1e-15)

    def test_non_finite_gradient_raises(self):
        opt = SgdMomentum(lr=0.1)
        with pytest.raises(NonFiniteGradient):
            opt.step({"W": np.array([1.0])}, {"W": np.array([np.nan])})
        with pytest.raises(NonFiniteGradient):
            opt.step({"W": np.array([1.0])}, {"W": np.array([np.inf])})


class TestMomentumEncoder:
    def test_update_is_convex_combination(self):
        key = {"P": np.full(3, 1.0)}
        query = {"P": np.full(3, 2.0)}
        momentum_update(key, query, 0.9)
        assert_allclose(key["P"], np.full(3, 1.1), rtol=1e-15)
        momentum_update(key, query, 0.0)
        assert_allclose(key["P"], np.full(3, 2.0), rtol=1e-15)

    def test_update_is_in_place(self):
        key = {"P": np.zeros(2)}
        ref = key["P"]
        momentum_update(key, {"P": np.ones(2)}, 0.5)
        assert ref is key["P"]
        assert_allclose(ref, [0.5, 0.5])


class TestCloneAndReset:
    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError):
            make_model("transformer", 4, 3, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            make_model("mlp1", 4, 3, np.random.default_rng(0), hidden=0)


class TestCompatibility:
    def test_class_count_must_match_taxonomy(self):
        tax = shaped_taxonomy([2, 5])
        X = np.zeros((3, 6))
        predict_probs(fresh("linear", classes=5), X, tax)
        with pytest.raises(ArchitectureMismatch):
            predict_probs(fresh("linear", classes=4), X, tax)


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["linear", "mlp1"])
    def test_round_trip_is_exact(self, arch, tmp_path):
        model = fresh(arch, 5)
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p, seed=3, step=17, meta={"method": "baseline"})
        back, info = load_checkpoint(p)
        assert back.arch == model.arch
        assert (back.dim, back.n_classes, back.hidden) == (
            model.dim, model.n_classes, model.hidden)
        for k in model.params:
            assert np.array_equal(back.params[k], model.params[k])
        assert info["seed"] == 3 and info["step"] == 17
        assert info["meta"]["method"] == "baseline"

    def test_save_is_byte_identical(self, tmp_path):
        model = fresh("mlp1", 6)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, a, seed=0, step=1)
        save_checkpoint(model, b, seed=0, step=1)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = fresh("mlp1", 7)
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p, seed=0, step=0)
        back, _ = load_checkpoint(p)
        X = np.random.default_rng(11).standard_normal((4, 6))
        assert np.array_equal(back.forward(X), model.forward(X))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_text("not a checkpoint\n")
        with pytest.raises(ParseError) as e:
            load_checkpoint(p)
        assert e.value.line == 1

    def test_truncated_param_data(self, tmp_path):
        model = fresh("linear")
        p = tmp_path / "x.ckpt"
        save_checkpoint(model, p, seed=0, step=0)
        lines = p.read_text().splitlines()
        data_idx = next(i for i, l in enumerate(lines) if l.startswith("param ")) + 1
        lines[data_idx] = lines[data_idx][: len(lines[data_idx]) // 2 // 4 * 4]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_checkpoint(p)

    def test_missing_parameter(self, tmp_path):
        model = fresh("linear")
        p = tmp_path / "x.ckpt"
        save_checkpoint(model, p, seed=0, step=0)
        lines = p.read_text().splitlines()
        cut = next(i for i, l in enumerate(lines) if l.startswith("param b"))
        p.write_text("\n".join(lines[:cut] + lines[cut + 2:]) + "\n")
        with pytest.raises(ParseError) as e:
            load_checkpoint(p)
        assert "missing parameters" in str(e.value)

    def test_unknown_parameter_name(self, tmp_path):
        model = fresh("linear")
        p = tmp_path / "x.ckpt"
        save_checkpoint(model, p, seed=0, step=0)
        p.write_text(p.read_text().replace("param W", "param Q"))
        with pytest.raises(ParseError):
            load_checkpoint(p)

    def test_repeated_parameter_reports_its_line(self, tmp_path):
        model = fresh("linear")
        p = tmp_path / "x.ckpt"
        save_checkpoint(model, p, seed=0, step=0)
        lines = p.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("param b"))
        p.write_text("\n".join(lines + lines[at:at + 2]) + "\n")
        with pytest.raises(ParseError) as e:
            load_checkpoint(p)
        assert e.value.line == len(lines) + 1

    def test_malformed_shape_line_reports_line(self, tmp_path):
        model = fresh("linear")
        p = tmp_path / "x.ckpt"
        save_checkpoint(model, p, seed=0, step=0)
        lines = p.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("param W "))
        lines[at] = "param W 4 x"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            load_checkpoint(p)
        assert e.value.line == at + 1

    def test_multiline_meta_rejected_at_save(self, tmp_path):
        # each would write a checkpoint that reads back different or not at
        # all: an empty key, and every line break that str.splitlines knows
        model = fresh("linear")
        bad = [{"bad key": "x"}, {"": "v"}, {"k": "a\nb"}, {"k": "a\rb"},
               {"k": "a\x0cb"}, {"k": "a\u2028b"}, {"k": "a\r\n"}]
        for meta in bad:
            with pytest.raises(ConfigError):
                save_checkpoint(model, tmp_path / "x.ckpt", seed=0, step=0,
                                meta=meta)
        assert not (tmp_path / "x.ckpt").exists()

    def test_meta_round_trips_with_spaces_and_empty_values(self, tmp_path):
        meta = {"a": "", "b": " two  words ", "c": "tab\tinside"}
        save_checkpoint(fresh("linear"), tmp_path / "x.ckpt", seed=0, step=0,
                        meta=meta)
        assert load_checkpoint(tmp_path / "x.ckpt")[1]["meta"] == meta


# -- a leading (seed) axis ------------------------------------------------------


@pytest.mark.parametrize("arch", ["linear", "mlp1"])
def test_stacked_passes_give_each_model_bitwise(arch):
    # the shape of a lockstep step: three seeds, 30 rows of width 32, 60 classes
    rng = np.random.default_rng(5)
    lone = [make_model(arch, 32, 60, np.random.default_rng(s), hidden=64)
            for s in range(3)]
    heads = [ProjectionHead(m.rep_dim, 16, np.random.default_rng(10 + s))
             for s, m in enumerate(lone)]
    stacked = make_model(arch, 32, 60, np.random.default_rng(0), hidden=64)
    stacked.params = {k: np.stack([m.params[k] for m in lone]) for k in stacked.params}
    head = ProjectionHead(stacked.rep_dim, 16, np.random.default_rng(0))
    head.params = {k: np.stack([h.params[k] for h in heads]) for k in head.params}
    X = rng.standard_normal((3, 30, 32))
    G = rng.standard_normal((3, 30, 60))
    Gq = rng.standard_normal((3, 30, 16))

    z, cache = stacked.forward_cached(X)
    grads = stacked.backward(cache, G)
    both = ContrastiveModel(stacked, head)
    q, c_q = both.embed_cached(X)
    g_q = both.backward(c_q, Gq)
    for i, (m, h) in enumerate(zip(lone, heads)):
        zi, ci = m.forward_cached(X[i])
        assert zi.tobytes() == z[i].tobytes()
        gi = m.backward(ci, G[i])
        assert all(gi[k].tobytes() == grads[k][i].tobytes() for k in gi)
        one = ContrastiveModel(m, h)
        qi, cqi = one.embed_cached(X[i])
        assert qi.tobytes() == q[i].tobytes()
        gqi = one.backward(cqi, Gq[i])
        assert gqi.keys() == g_q.keys()
        assert all(gqi[k].tobytes() == g_q[k][i].tobytes() for k in gqi)


def test_one_non_finite_seed_fails_the_stacked_step():
    params = {"W": np.zeros((3, 2, 2))}
    grad = np.zeros((3, 2, 2))
    grad[2, 0, 1] = np.inf
    with pytest.raises(NonFiniteGradient):
        SgdMomentum(0.1).step(params, {"W": grad})
