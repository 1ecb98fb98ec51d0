"""Loss values against hand-computed oracles, finite-difference gradient
checks, floor/gate edge behavior, and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hierssl.errors import DimensionMismatch, NonFiniteGradient, OutOfRange
from hierssl.losses import (
    PROB_FLOOR,
    cross_entropy,
    distill_loss,
    fixmatch_loss,
    info_nce_loss,
    marginalized_cross_entropy,
    pseudo_label_loss,
    softmax,
)
from hierssl.taxonomy import MarginalizationMatrix

from _reference import hier_supervised_loss

TIGHT = dict(rtol=1e-13, atol=1e-15)

# -- frozen oracle fixtures (values computed with explicit per-sample loops) --

CE_LOGITS = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
CE_LABELS = np.array([1, 2])
CE_LOSS = 0.26512634393268697
CE_GRAD = np.array([
    [0.11561194881107453, -0.18573414039411879, 0.07012219158304424],
    [0.02330631128898695, 0.00857391277276020, -0.03188022406174712],
])

MCE_LOGITS = np.array([[0.2, -0.3, 0.1, 0.4], [1.0, 0.0, -0.5, 0.25]])
MCE_ANC = np.array([0, 0, 1, 1])
MCE_LABELS = np.array([0, 1])
MCE_LOSS = 0.965273185013009
MCE_GRAD = np.array([
    [-0.17728091225393205, -0.10752630866383490, 0.12120184412763074, 0.16360537679013623],
    [0.24232130385725384, 0.08914502584694181, -0.10634145907525812, -0.22512487062893752],
])
MCE_Q = np.array([
    [0.43038555816446600, 0.56961444183553400],
    [0.66293265940839130, 0.33706734059160864],
])

PL_LOGITS = np.array([[2.5, 0.1, 0.0], [0.3, 0.2, 0.1]])
PL_TAU = 0.7
PL_MAXPROBS = np.array([0.8526581540135106, 0.3671654011109255])
PL_LOSS = 0.07969828456318614
PL_GRAD = np.array([
    [-0.07367092299324468, 0.03867570129381718, 0.03499522169942756],
    [0.0, 0.0, 0.0],
])
PL_MASK = np.array([True, False])

FM_STRONG = np.array([[0.5, 0.2, -0.1], [1.0, -1.0, 0.2]])
FM_LOSS = 0.4141950849530622
FM_GRAD = np.array([
    [-0.28162409154460460, 0.16177685194167973, 0.11984723960292488],
    [0.0, 0.0, 0.0],
])

DI_STUDENT = np.array([[1.0, 0.2, -1.0], [0.5, 0.5, 0.0]])
DI_TEACHER = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
DI_T = 2.0
DI_LOSS = 1.0449346418898076
DI_GRAD = np.array([
    [-0.00396282031430931, 0.00542066043700028, -0.00145784012269095],
    [0.01316789540120857, -0.03665323093308034, 0.02348533553187177],
])
DI_KL = 0.024743305162976317

NCE_QUERY = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
NCE_KEY = np.array([[0.8, 0.6, 0.0], [0.0, 1.0, 0.0]])
NCE_QUEUE = np.array([[0.0, 0.0, 1.0], [np.sqrt(0.5), -np.sqrt(0.5), 0.0]])
NCE_T = 0.07
NCE_LOSS = 0.1176491545337596
NCE_GRAD = np.array([
    [-1.3915448417946541e-01, -1.9573976192725973e+00, 6.1421872393873254e-05],
    [7.2875031465288394e-06, -9.5307918556836334e-05, 7.7714329625275895e-05],
])


def mce_matrix() -> MarginalizationMatrix:
    return MarginalizationMatrix(MCE_ANC.copy(), 2)


def identity_matrix(n: int) -> MarginalizationMatrix:
    return MarginalizationMatrix(np.arange(n, dtype=np.int64), n)


def fd_grad(loss_fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar loss with respect to every entry of x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (loss_fn(xp) - loss_fn(xm)) / (2.0 * h)
    return g


def assert_grads_match(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-5):
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < rtol


# -- frozen-value checks ------------------------------------------------------


class TestFrozenOracles:
    def test_cross_entropy(self):
        loss, grad = cross_entropy(CE_LOGITS, CE_LABELS)
        assert_allclose(loss, CE_LOSS, **TIGHT)
        assert_allclose(grad, CE_GRAD, **TIGHT)

    def test_marginalized_cross_entropy(self):
        loss, grad = marginalized_cross_entropy(MCE_LOGITS, MCE_LABELS, mce_matrix())
        assert_allclose(loss, MCE_LOSS, **TIGHT)
        assert_allclose(grad, MCE_GRAD, **TIGHT)

    def test_marginalized_probabilities(self):
        from hierssl.taxonomy import marginalize

        q = marginalize(softmax(MCE_LOGITS), mce_matrix())
        assert_allclose(q, MCE_Q, **TIGHT)

    def test_hier_supervised_composes_both_terms(self):
        unsup_weight = 0.7
        loss, fine_grad, coarse_grad = hier_supervised_loss(
            CE_LOGITS, CE_LABELS, MCE_LOGITS, MCE_LABELS, mce_matrix(),
            unsup_weight=unsup_weight,
        )
        assert loss == CE_LOSS + unsup_weight * MCE_LOSS
        assert_allclose(fine_grad, CE_GRAD, **TIGHT)
        assert_allclose(coarse_grad, unsup_weight * MCE_GRAD, **TIGHT)

    def test_pseudo_label(self):
        loss, grad, mask = pseudo_label_loss(PL_LOGITS, PL_TAU)
        assert_allclose(softmax(PL_LOGITS).max(axis=-1), PL_MAXPROBS, **TIGHT)
        assert_allclose(loss, PL_LOSS, **TIGHT)
        assert_allclose(grad, PL_GRAD, **TIGHT)
        assert np.array_equal(mask, PL_MASK)

    def test_fixmatch(self):
        loss, grad, mask = fixmatch_loss(PL_LOGITS, FM_STRONG, PL_TAU)
        assert_allclose(loss, FM_LOSS, **TIGHT)
        assert_allclose(grad, FM_GRAD, **TIGHT)
        assert np.array_equal(mask, PL_MASK)

    def test_distill(self):
        loss, grad, kl = distill_loss(DI_STUDENT, DI_TEACHER, DI_T)
        assert_allclose(loss, DI_LOSS, **TIGHT)
        assert_allclose(grad, DI_GRAD, **TIGHT)
        assert_allclose(kl, DI_KL, **TIGHT)

    def test_info_nce(self):
        loss, grad = info_nce_loss(NCE_QUERY, NCE_KEY, NCE_QUEUE, NCE_T)
        assert_allclose(loss, NCE_LOSS, **TIGHT)
        assert_allclose(grad, NCE_GRAD, rtol=1e-12, atol=1e-18)


# -- gradients vs central differences -----------------------------------------


SEEDS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", SEEDS)
class TestFiniteDifferences:
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((6, 5))
        y = rng.integers(0, 5, size=6)
        _, grad = cross_entropy(z, y)
        assert_grads_match(grad, fd_grad(lambda x: cross_entropy(x, y)[0], z))

    def test_marginalized_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((6, 8))
        anc = np.array([0, 0, 0, 1, 1, 2, 2, 2], dtype=np.int64)
        w = MarginalizationMatrix(anc, 3)
        yc = rng.integers(0, 3, size=6)
        _, grad = marginalized_cross_entropy(z, yc, w)
        assert_grads_match(
            grad, fd_grad(lambda x: marginalized_cross_entropy(x, yc, w)[0], z)
        )

    def test_pseudo_label(self, seed):
        rng = np.random.default_rng(seed)
        z = 2.0 * rng.standard_normal((8, 5))
        tau = _safe_gate(softmax(z).max(axis=-1))
        _, grad, mask = pseudo_label_loss(z, tau)
        assert mask.any() and not mask.all()
        assert_grads_match(grad, fd_grad(lambda x: pseudo_label_loss(x, tau)[0], z))

    def test_fixmatch_strong_view_only(self, seed):
        rng = np.random.default_rng(seed)
        zw = 2.0 * rng.standard_normal((8, 5))
        zs = rng.standard_normal((8, 5))
        tau = _safe_gate(softmax(zw).max(axis=-1))
        _, grad, mask = fixmatch_loss(zw, zs, tau)
        assert mask.any() and not mask.all()
        assert_grads_match(grad, fd_grad(lambda x: fixmatch_loss(zw, x, tau)[0], zs))

    def test_distill_student_only(self, seed):
        rng = np.random.default_rng(seed)
        zs = rng.standard_normal((6, 5))
        zt = rng.standard_normal((6, 5))
        _, grad, _ = distill_loss(zs, zt, 2.0)
        assert_grads_match(grad, fd_grad(lambda x: distill_loss(x, zt, 2.0)[0], zs))

    def test_info_nce_query_only(self, seed):
        rng = np.random.default_rng(seed)

        def unit(a):
            return a / np.linalg.norm(a, axis=-1, keepdims=True)

        q = unit(rng.standard_normal((5, 6)))
        k = unit(rng.standard_normal((5, 6)))
        queue = unit(rng.standard_normal((12, 6)))
        _, grad = info_nce_loss(q, k, queue, 0.2)
        assert_grads_match(grad, fd_grad(lambda x: info_nce_loss(x, k, queue, 0.2)[0], q))


def _safe_gate(conf: np.ndarray) -> float:
    """A threshold splitting the confidences at their widest gap, so finite
    differencing never flips the gate."""
    s = np.sort(conf)
    gaps = np.diff(s)
    i = int(np.argmax(gaps))
    assert gaps[i] > 1e-4
    return float((s[i] + s[i + 1]) / 2.0)


# -- probability floor --------------------------------------------------------


class TestProbFloor:
    def test_ce_clamped_row_has_floored_loss_and_zero_grad(self):
        z = np.array([[0.0, 60.0], [1.0, 0.0]])
        y = np.array([0, 0])
        loss, grad = cross_entropy(z, y)
        per_sample_live = -np.log(softmax(z[1:2])[0, 0])
        assert_allclose(loss, (-np.log(PROB_FLOOR) + per_sample_live) / 2.0, **TIGHT)
        assert np.all(grad[0] == 0.0)
        _, live_grad = cross_entropy(z[1:2], y[1:2])
        assert_allclose(grad[1], live_grad[0] / 2.0, **TIGHT)
        assert np.isfinite(loss)

    def test_mce_clamped_row_zero_grad(self):
        z = np.array([[0.0, 0.0, 60.0, 60.0]])
        w = mce_matrix()
        loss, grad = marginalized_cross_entropy(z, np.array([0]), w)
        assert loss == -float(np.log(PROB_FLOOR))
        assert np.all(grad == 0.0)

    def test_fixmatch_floor_on_strong_view(self):
        zw = np.array([[10.0, 0.0]])   # confident weak target: class 0
        zs = np.array([[-60.0, 0.0]])  # strong view puts ~0 mass there
        loss, grad, mask = fixmatch_loss(zw, zs, 0.9)
        assert mask[0]
        assert loss == -float(np.log(PROB_FLOOR))
        assert np.all(grad == 0.0)

    def test_gradient_is_locally_consistent_at_floor(self):
        # loss is constant in the clamped region, so FD also gives ~0
        z = np.array([[0.0, 60.0]])
        y = np.array([0])
        g = fd_grad(lambda x: cross_entropy(x, y)[0], z)
        assert np.all(g == 0.0)


# -- gates, masks, degenerate thresholds --------------------------------------


class TestGates:
    def test_pseudo_label_threshold_above_one_is_inert(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((10, 6))
        loss, grad, mask = pseudo_label_loss(z, 1.1)
        assert loss == 0.0
        assert np.all(grad == 0.0)
        assert not mask.any()

    def test_fixmatch_threshold_above_one_is_inert(self):
        rng = np.random.default_rng(7)
        zw = rng.standard_normal((10, 6))
        zs = rng.standard_normal((10, 6))
        loss, grad, mask = fixmatch_loss(zw, zs, 1.1)
        assert loss == 0.0
        assert np.all(grad == 0.0)
        assert not mask.any()

    def test_fixmatch_gate_depends_only_on_weak_view(self):
        rng = np.random.default_rng(3)
        zw = rng.standard_normal((10, 6))
        _, _, mask_a = fixmatch_loss(zw, rng.standard_normal((10, 6)), 0.3)
        _, _, mask_b = fixmatch_loss(zw, rng.standard_normal((10, 6)), 0.3)
        assert np.array_equal(mask_a, mask_b)

    def test_masked_rows_have_zero_grad(self):
        rng = np.random.default_rng(11)
        z = 2.0 * rng.standard_normal((16, 4))
        _, grad, mask = pseudo_label_loss(z, 0.6)
        assert np.all(grad[~mask] == 0.0)
        assert np.all(np.abs(grad[mask]).sum(axis=-1) > 0.0)

    def test_gate_at_full_confidence_includes_equality(self):
        z = np.array([[100.0, 0.0, 0.0]])
        _, _, mask = pseudo_label_loss(z, 1.0)
        assert mask[0]  # max prob rounds to 1.0 and the gate is >=


# -- leaf-level degeneracy ----------------------------------------------------


class TestLeafDegeneracy:
    def test_marginalized_ce_equals_ce_at_identity(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((12, 7))
        y = rng.integers(0, 7, size=12)
        ce_loss, ce_grad = cross_entropy(z, y)
        m_loss, m_grad = marginalized_cross_entropy(z, y, identity_matrix(7))
        assert m_loss == ce_loss  # bitwise
        assert_allclose(m_grad, ce_grad, rtol=1e-12, atol=1e-15)

    def test_hier_loss_degenerates_to_two_plain_ce_terms(self):
        rng = np.random.default_rng(6)
        zl = rng.standard_normal((5, 7))
        yl = rng.integers(0, 7, size=5)
        zu = rng.standard_normal((9, 7))
        yu = rng.integers(0, 7, size=9)
        loss, _, _ = hier_supervised_loss(zl, yl, zu, yu, identity_matrix(7), 1.0)
        assert loss == cross_entropy(zl, yl)[0] + cross_entropy(zu, yu)[0]


# -- empty inputs -------------------------------------------------------------


class TestEmptyInputs:
    def test_cross_entropy_empty(self):
        loss, grad = cross_entropy(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        assert loss == 0.0 and grad.shape == (0, 4) and np.all(grad == 0.0)

    def test_marginalized_empty(self):
        loss, grad = marginalized_cross_entropy(
            np.zeros((0, 4)), np.zeros(0, dtype=np.int64), mce_matrix()
        )
        assert loss == 0.0 and grad.shape == (0, 4)

    def test_hier_loss_empty_coarse_batch(self):
        loss, fine_grad, coarse_grad = hier_supervised_loss(
            CE_LOGITS, CE_LABELS, np.zeros((0, 4)), np.zeros(0, dtype=np.int64),
            mce_matrix(), 0.5,
        )
        assert loss == CE_LOSS
        assert_allclose(fine_grad, CE_GRAD, **TIGHT)
        assert np.all(coarse_grad == 0.0)

    def test_pseudo_label_empty(self):
        loss, grad, mask = pseudo_label_loss(np.zeros((0, 4)), 0.5)
        assert loss == 0.0 and grad.shape == (0, 4) and mask.shape == (0,)

    def test_fixmatch_empty(self):
        loss, grad, mask = fixmatch_loss(np.zeros((0, 4)), np.zeros((0, 4)), 0.5)
        assert loss == 0.0 and grad.shape == (0, 4) and mask.shape == (0,)

    def test_distill_empty(self):
        loss, grad, kl = distill_loss(np.zeros((0, 4)), np.zeros((0, 4)), 2.0)
        assert loss == 0.0 and kl == 0.0 and grad.shape == (0, 4)

    def test_info_nce_empty_batch(self):
        loss, grad = info_nce_loss(
            np.zeros((0, 3)), np.zeros((0, 3)), NCE_QUEUE, 0.07
        )
        assert loss == 0.0 and grad.shape == (0, 3)

    def test_info_nce_empty_queue_is_exactly_zero(self):
        loss, grad = info_nce_loss(NCE_QUERY, NCE_KEY, np.zeros((0, 3)), 0.07)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_info_nce_queue_width_checked(self):
        # a (10, 64) queue must not be read as 20 negatives of width 32
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 32))
        with pytest.raises(DimensionMismatch):
            info_nce_loss(q, q, rng.normal(size=(10, 64)), 0.2)
        with pytest.raises(DimensionMismatch):
            info_nce_loss(q, q, np.zeros((0, 64)), 0.2)


# -- distillation structure ---------------------------------------------------


class TestDistill:
    def test_shifted_logits_give_zero_kl_and_gradient(self):
        # temperature-scaled softmax is shift invariant, so a student that
        # matches the teacher up to a constant per-row offset is already
        # converged: KL ~ 0 and the gradient vanishes.
        teacher = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
        student = teacher + 4.0
        loss, grad, kl = distill_loss(student, teacher, 2.0)
        assert_allclose(kl, 0.0, atol=1e-15)
        assert_allclose(grad, 0.0, atol=1e-15)
        # the loss equals the teacher entropy at that temperature
        t = softmax(teacher / 2.0)
        assert_allclose(loss, -(t * np.log(t)).sum() / 2.0, **TIGHT)

    def test_loss_is_kl_plus_teacher_entropy(self):
        rng = np.random.default_rng(9)
        zs = rng.standard_normal((4, 6))
        zt = rng.standard_normal((4, 6))
        loss, _, kl = distill_loss(zs, zt, 3.0)
        t = softmax(zt / 3.0)
        entropy = -(t * np.log(t)).sum() / 4.0
        assert_allclose(loss, kl + entropy, rtol=1e-12, atol=1e-14)
        assert kl >= 0.0

    def test_gradient_scales_inversely_with_temperature(self):
        _, g2, _ = distill_loss(DI_STUDENT, DI_TEACHER, 2.0)
        zs = DI_STUDENT * 2.0  # same scaled logits at T=4
        zt = DI_TEACHER * 2.0
        _, g4, _ = distill_loss(zs, zt, 4.0)
        assert_allclose(g4, g2 / 2.0, rtol=1e-12, atol=1e-16)


# -- error paths --------------------------------------------------------------


class TestErrors:
    def test_non_finite_inputs_raise(self):
        bad = np.array([[0.0, np.nan]])
        good = np.array([[0.0, 1.0]])
        with pytest.raises(NonFiniteGradient):
            cross_entropy(bad, np.array([0]))
        with pytest.raises(NonFiniteGradient):
            marginalized_cross_entropy(
                np.array([[np.inf, 0.0, 0.0, 0.0]]), np.array([0]), mce_matrix()
            )
        with pytest.raises(NonFiniteGradient):
            pseudo_label_loss(bad, 0.5)
        with pytest.raises(NonFiniteGradient):
            fixmatch_loss(bad, good, 0.5)
        with pytest.raises(NonFiniteGradient):
            fixmatch_loss(good, bad, 0.5)
        with pytest.raises(NonFiniteGradient):
            distill_loss(bad, good, 2.0)
        with pytest.raises(NonFiniteGradient):
            distill_loss(good, bad, 2.0)
        with pytest.raises(NonFiniteGradient):
            info_nce_loss(bad, good, np.zeros((2, 2)), 0.07)

    def test_shape_mismatches_raise(self):
        with pytest.raises(DimensionMismatch):
            cross_entropy(CE_LOGITS, np.array([0]))
        with pytest.raises(DimensionMismatch):
            fixmatch_loss(np.zeros((2, 3)), np.zeros((3, 3)), 0.5)
        with pytest.raises(DimensionMismatch):
            distill_loss(np.zeros((2, 3)), np.zeros((2, 4)), 2.0)
        with pytest.raises(DimensionMismatch):
            info_nce_loss(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((0, 3)), 0.07)
        with pytest.raises(DimensionMismatch):
            marginalized_cross_entropy(
                np.zeros((2, 3)), np.array([0, 0]), mce_matrix()
            )

    def test_out_of_range_labels_raise(self):
        with pytest.raises(OutOfRange):
            cross_entropy(CE_LOGITS, np.array([0, 3]))
        with pytest.raises(OutOfRange):
            marginalized_cross_entropy(MCE_LOGITS, np.array([0, 2]), mce_matrix())


# -- structural properties ----------------------------------------------------


logits_arrays = st.integers(0, 2**31 - 1).map(
    lambda s: np.random.default_rng(s).standard_normal(
        (int(np.random.default_rng(s + 1).integers(1, 9)),
         int(np.random.default_rng(s + 2).integers(2, 7)))
    )
)


@settings(max_examples=40, deadline=None)
@given(logits_arrays)
def test_softmax_rows_are_distributions(z):
    p = softmax(z)
    assert np.all(p >= 0.0)
    assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(logits_arrays, st.floats(-5.0, 5.0))
def test_softmax_shift_invariance(z, shift):
    assert_allclose(softmax(z + shift), softmax(z), rtol=1e-12, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(logits_arrays)
def test_ce_gradient_rows_sum_to_zero(z):
    n, c = z.shape
    y = np.arange(n) % c
    loss, grad = cross_entropy(z, y)
    assert loss >= 0.0
    assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(logits_arrays, st.floats(0.0, 1.0))
def test_pseudo_label_loss_nonnegative_and_mask_consistent(z, tau):
    loss, grad, mask = pseudo_label_loss(z, tau)
    assert loss >= 0.0
    assert np.all(grad[~mask] == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_marginalized_ce_grad_rows_sum_to_zero_on_live_rows(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((5, 6))
    # every coarse class keeps at least one fine child, as in a real tree
    cut_a, cut_b = sorted(rng.choice(np.arange(1, 6), size=2, replace=False))
    anc = np.zeros(6, dtype=np.int64)
    anc[cut_a:] = 1
    anc[cut_b:] = 2
    w = MarginalizationMatrix(anc, 3)
    yc = rng.integers(0, 3, size=5)
    _, grad = marginalized_cross_entropy(z, yc, w)
    assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-14)


# -- bit-for-bit pins against the straightforward bodies ----------------------
#
# softmax and info_nce_loss normalize in place; these references allocate
# every intermediate, and the in-place versions must match them bit for bit.


def _reference_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_info_nce(query, key_pos, queue, temperature):
    n = len(query)
    pos = (query * key_pos).sum(axis=-1, keepdims=True)
    neg = query @ queue.T
    sims = np.concatenate([pos, neg], axis=-1) / temperature
    probs = _reference_softmax(sims)
    p0 = probs[:, 0]
    live = p0 >= PROB_FLOOR
    loss = float(-np.log(np.maximum(p0, PROB_FLOOR)).mean()) + 0.0
    coeff = probs.copy()
    coeff[:, 0] -= 1.0
    coeff[~live] = 0.0
    grad = (coeff[:, :1] * key_pos + coeff[:, 1:] @ queue) / (n * temperature)
    return loss, grad


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("temperature", [0.07, 0.01])
@pytest.mark.parametrize("m", [0, 64, 1000, 2048])
def test_info_nce_matches_reference_bitwise(m, temperature):
    rng = np.random.default_rng(m)
    query, key, queue = (_unit_rows(rng, 64, 32), _unit_rows(rng, 64, 32),
                         _unit_rows(rng, m, 32))
    key[0] = -query[0]  # anti-aligned: under the floor at T = 0.01
    loss, grad = info_nce_loss(query, key, queue, temperature)
    ref_loss, ref_grad = _reference_info_nce(query, key, queue, temperature)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()
    if m and temperature == 0.01:
        assert not grad[0].any() and grad[1:].any()  # the live mask ran


@pytest.mark.parametrize("shape", [(97, 810), (810,)])
def test_softmax_matches_reference_bitwise_and_keeps_its_input(shape):
    z = np.random.default_rng(1).standard_normal(shape) * 5.0
    before = z.copy()
    assert softmax(z).tobytes() == _reference_softmax(z).tobytes()
    assert z.tobytes() == before.tobytes()


def _reference_pseudo_label(logits, tau):
    """The one-view body written out: target and gate from the same softmax."""
    n = len(logits)
    probs = _reference_softmax(logits)
    conf = probs.max(axis=-1)
    targets = probs.argmax(axis=-1)
    mask = conf >= tau
    loss = float(-(np.log(np.maximum(conf, PROB_FLOOR)) * mask).sum() / n) + 0.0
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    grad[~mask] = 0.0
    return loss, grad / n, mask


@pytest.mark.parametrize("gate", ["open", "shut", "mixed"])
@pytest.mark.parametrize("width", [60, 810])
def test_pseudo_label_is_fixmatch_with_one_view_bitwise(width, gate):
    z = np.random.default_rng(width).standard_normal((64, width)) * 4.0
    conf = softmax(z).max(axis=-1)
    tau = {"open": 0.0, "shut": 1.1, "mixed": _safe_gate(conf)}[gate]
    got = pseudo_label_loss(z, tau)
    for want in (fixmatch_loss(z, z, tau), _reference_pseudo_label(z, tau)):
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
    mask = got[2]
    assert {"open": mask.all(), "shut": not mask.any(),
            "mixed": mask.any() and not mask.all()}[gate]


@pytest.mark.parametrize("shape", [(32, 5), (32, 60), (3, 16, 60)])
def test_fully_gated_fixmatch_is_cross_entropy_on_its_pseudo_labels_bitwise(shape):
    # both are the one target cross entropy: FixMatch's targets are the weak
    # view's argmax, and with every row gated nothing else differs
    rng = np.random.default_rng(shape[-1])
    weak, strong = (rng.standard_normal(shape) * 4.0 for _ in range(2))
    loss, grad, mask = fixmatch_loss(weak, strong, 0.0)
    assert mask.all()
    want_loss, want_grad = cross_entropy(strong, weak.argmax(axis=-1))
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


# -- a leading (seed) axis ------------------------------------------------------


def _stacked_cases(rng):
    """(name, loss function, per-slice argument tuples) at training-like shapes."""
    S, n, c = 3, 30, 60
    anc = np.repeat(np.arange(12), 5)
    w = MarginalizationMatrix(anc, 12)
    z = [rng.standard_normal((n, c)) * 3 for _ in range(S)]
    z2 = [rng.standard_normal((n, c)) * 3 for _ in range(S)]
    q = [x / np.linalg.norm(x, axis=-1, keepdims=True)
         for x in (rng.standard_normal((S, 16, 8)), rng.standard_normal((S, 16, 8)),
                   rng.standard_normal((S, 40, 8)))]
    return [
        ("cross_entropy", cross_entropy,
         [(z[i], rng.integers(0, c, n)) for i in range(S)]),
        ("marginalized", lambda zz, y: marginalized_cross_entropy(zz, y, w),
         [(z[i], rng.integers(0, 12, n)) for i in range(S)]),
        ("pseudo_label", lambda zz: pseudo_label_loss(zz, 0.5), [(z[i],) for i in range(S)]),
        ("fixmatch", lambda a, b: fixmatch_loss(a, b, 0.5),
         [(z[i], z2[i]) for i in range(S)]),
        ("distill", lambda a, b: distill_loss(a, b, 2.0), [(z[i], z2[i]) for i in range(S)]),
        ("info_nce", lambda a, b, m: info_nce_loss(a, b, m, 0.07),
         [(q[0][i], q[1][i], q[2][i]) for i in range(S)]),
    ]


@pytest.mark.parametrize("case", range(6))
def test_leading_axis_gives_each_slice_bitwise(case):
    name, fn, per_slice = _stacked_cases(np.random.default_rng(11))[case]
    lone = [fn(*args) for args in per_slice]
    stacked = fn(*(np.stack(parts) for parts in zip(*per_slice)))
    for k, out in enumerate(stacked):
        assert out.shape[:1] == (len(per_slice),), name
        for i, one in enumerate(lone):
            assert np.asarray(one[k]).tobytes() == out[i].tobytes(), (name, k, i)
    assert all(isinstance(one[0], float) for one in lone)


def test_one_non_finite_slice_fails_the_call():
    z = np.zeros((3, 4, 5))
    z[1, 2, 3] = np.nan
    with pytest.raises(NonFiniteGradient):
        cross_entropy(z, np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(NonFiniteGradient):
        fixmatch_loss(np.zeros((3, 4, 5)), z, 0.5)


def test_leading_axis_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        cross_entropy(np.zeros((3, 4, 5)), np.zeros(4, dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        info_nce_loss(np.zeros((3, 4, 5)), np.zeros((3, 4, 5)), np.zeros((7, 5)), 0.1)


def test_gradient_does_not_depend_on_memory_layout():
    # the true-class entries are updated in place: a Fortran-ordered or
    # strided input must get them too
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 6, 5))
    y = rng.integers(0, 5, (3, 6))
    for logits in (np.asfortranarray(z), z.transpose(1, 0, 2).copy().transpose(1, 0, 2)):
        assert_allclose(cross_entropy(logits, y)[1], cross_entropy(z, y)[1], **TIGHT)
        assert_allclose(fixmatch_loss(logits, logits, 0.0)[1],
                        fixmatch_loss(z, z, 0.0)[1], **TIGHT)
