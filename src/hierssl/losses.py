"""Loss functions with hand-derived gradients.

Every function takes raw logits (or embeddings), returns the batch-mean
loss together with the gradient of that mean with respect to its trainable
input, and treats every other input as a constant. Targets derived from
model outputs (pseudo-labels, teacher probabilities, momentum-encoder
keys) are detached by construction: no gradient flows into them.

Probabilities inside a log are floored at ``PROB_FLOOR``; where the floor
is active the loss is locally constant, so the gradient contribution of
that sample (or term) is exactly zero. This keeps analytic gradients
consistent with finite differences of the computed loss.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, OutOfRange
from .taxonomy import MarginalizationMatrix, marginalize

PROB_FLOOR = 1e-12


def _require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Diverged training shows up here first; fail instead of training on NaNs."""
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteGradient(f"non-finite values in {name}")
    return arr


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of float64 ``z``, written into ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_inplace(np.array(logits, dtype=np.float64))


def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise OutOfRange(
            f"label outside [0, {n_classes}): "
            f"min {labels.min()}, max {labels.max()}"
        )
    return labels


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean -log p(label); gradient is (softmax - onehot) / n."""
    logits = _require_finite("logits", np.atleast_2d(np.asarray(logits, dtype=np.float64)))
    n, c = logits.shape
    labels = _check_labels(labels, c)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels shape {labels.shape} for {n} logits rows")
    if n == 0:
        return 0.0, np.zeros_like(logits)
    probs = softmax(logits)
    p_true = probs[np.arange(n), labels]
    live = p_true >= PROB_FLOOR
    loss = float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean()) + 0.0
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad[~live] = 0.0
    return loss, grad / n


def marginalized_cross_entropy(
    logits: np.ndarray, coarse_labels: np.ndarray, w: MarginalizationMatrix
):
    """CE against a coarse label after summing leaf probabilities.

    With loss -log M, M the probability mass of the true coarse class,
    the gradient at leaf j is p_j - p_j * [j in class] / M.
    """
    logits = _require_finite("logits", np.atleast_2d(np.asarray(logits, dtype=np.float64)))
    n, c = logits.shape
    if c != len(w.ancestor_map):
        raise DimensionMismatch(
            f"{c} logits columns but marginalization maps {len(w.ancestor_map)} leaves"
        )
    coarse_labels = _check_labels(coarse_labels, w.n_coarse)
    if coarse_labels.shape != (n,):
        raise DimensionMismatch(
            f"coarse_labels shape {coarse_labels.shape} for {n} logits rows"
        )
    if n == 0:
        return 0.0, np.zeros_like(logits)
    probs = softmax(logits)
    coarse = marginalize(probs, w)
    mass = coarse[np.arange(n), coarse_labels]
    live = mass >= PROB_FLOOR
    loss = float(-np.log(np.maximum(mass, PROB_FLOOR)).mean()) + 0.0
    in_class = w.ancestor_map[None, :] == coarse_labels[:, None]
    safe_mass = np.where(live, mass, 1.0)
    grad = probs * (1.0 - in_class / safe_mass[:, None])
    grad[~live] = 0.0
    return loss, grad / n


def pseudo_label_loss(logits: np.ndarray, tau: float):
    """Self-labeled CE on confident predictions: FixMatch's one-view case.

    The argmax target and its confidence gate are constants, as the weak
    view's are in ``fixmatch_loss``. With one view the target's probability
    is the row max, at least 1 / C > ``PROB_FLOOR``, so exactly the gated
    samples contribute.
    """
    return fixmatch_loss(logits, logits, tau)


def fixmatch_loss(weak_logits: np.ndarray, strong_logits: np.ndarray, tau: float):
    """Consistency CE: confident weak-view predictions label the strong view.

    No gradient flows to the weak view. The mean is over the full batch,
    gated or not.
    """
    weak_logits = _require_finite("weak logits", np.atleast_2d(np.asarray(weak_logits, dtype=np.float64)))
    strong_logits = _require_finite("strong logits", np.atleast_2d(np.asarray(strong_logits, dtype=np.float64)))
    if weak_logits.shape != strong_logits.shape:
        raise DimensionMismatch(
            f"weak {weak_logits.shape} vs strong {strong_logits.shape}"
        )
    n, _ = weak_logits.shape
    if n == 0:
        return 0.0, np.zeros_like(strong_logits), np.zeros(0, dtype=bool)
    weak_probs = softmax(weak_logits)
    targets = weak_probs.argmax(axis=-1)
    mask = weak_probs.max(axis=-1) >= tau
    strong_probs = softmax(strong_logits)
    p_t = strong_probs[np.arange(n), targets]
    live = mask & (p_t >= PROB_FLOOR)
    loss = float(-(np.log(np.maximum(p_t, PROB_FLOOR)) * mask).sum() / n) + 0.0
    grad = strong_probs.copy()
    grad[np.arange(n), targets] -= 1.0
    grad[~live] = 0.0
    return loss, grad / n, mask


def distill_loss(
    student_logits: np.ndarray, teacher_logits: np.ndarray, temperature: float
):
    """Soft-target CE between temperature-scaled distributions.

    Loss is H(teacher, student) at temperature T; the teacher is constant.
    The student gradient per sample is (student - teacher) / (n * T).
    Also returns the KL divergence (same gradient, nonnegative) as a
    convergence diagnostic.
    """
    student_logits = _require_finite("student logits", np.atleast_2d(np.asarray(student_logits, dtype=np.float64)))
    teacher_logits = _require_finite("teacher logits", np.atleast_2d(np.asarray(teacher_logits, dtype=np.float64)))
    if student_logits.shape != teacher_logits.shape:
        raise DimensionMismatch(
            f"student {student_logits.shape} vs teacher {teacher_logits.shape}"
        )
    n, _ = student_logits.shape
    if n == 0:
        return 0.0, np.zeros_like(student_logits), 0.0
    t = softmax(teacher_logits / temperature)
    s = softmax(student_logits / temperature)
    live = s >= PROB_FLOOR
    log_s = np.log(np.maximum(s, PROB_FLOOR))
    loss = float(-(t * log_s).sum() / n) + 0.0
    # entropy of the teacher, with the same floor, for the KL diagnostic
    log_t = np.log(np.maximum(t, PROB_FLOOR))
    kl = float((t * (log_t - log_s)).sum() / n)
    t_live = (t * live).sum(axis=-1, keepdims=True)
    grad = (s * t_live - t * live) / (n * temperature)
    return loss, grad, kl


def info_nce_loss(
    query: np.ndarray, key_pos: np.ndarray, queue: np.ndarray, temperature: float
):
    """Contrastive CE over one positive and the queued negatives.

    All embeddings must already be unit-normalized; keys and queue are
    constants. Row i's logits are the scaled similarities
    [q_i . k_i, q_i . queue_0, ...] with the positive at index 0.
    An empty queue gives zero loss and zero gradient.
    """
    query = _require_finite("query embeddings", np.atleast_2d(np.asarray(query, dtype=np.float64)))
    key_pos = _require_finite("key embeddings", np.atleast_2d(np.asarray(key_pos, dtype=np.float64)))
    queue = np.asarray(queue, dtype=np.float64)
    if queue.shape[-1:] != query.shape[-1:]:
        raise DimensionMismatch(f"queue {queue.shape} vs query {query.shape}")
    queue = queue.reshape(-1, query.shape[-1])
    if query.shape != key_pos.shape:
        raise DimensionMismatch(f"query {query.shape} vs key {key_pos.shape}")
    n, _ = query.shape
    if n == 0:
        return 0.0, np.zeros_like(query)
    # One (n, m + 1) buffer goes from similarities to probabilities to
    # gradient coefficients in place: the positive in column 0, then the
    # negatives.
    buf = np.empty((n, len(queue) + 1))
    (query * key_pos).sum(axis=-1, out=buf[:, 0])
    np.matmul(query, queue.T, out=buf[:, 1:])
    buf /= temperature
    _softmax_inplace(buf)
    p0 = buf[:, 0].copy()
    live = p0 >= PROB_FLOOR
    loss = float(-np.log(np.maximum(p0, PROB_FLOOR)).mean()) + 0.0
    buf[:, 0] -= 1.0
    buf[~live] = 0.0
    grad = (buf[:, :1] * key_pos + buf[:, 1:] @ queue) / (n * temperature)
    return loss, grad
