"""Loss functions with hand-derived gradients.

Every function takes raw logits (or embeddings), returns the batch-mean
loss together with the gradient of that mean with respect to its trainable
input, and treats every other input as a constant. Targets derived from
model outputs (pseudo-labels, teacher probabilities, momentum-encoder
keys) are detached by construction: no gradient flows into them. Inputs
of shape ``(..., n, c)`` hold one batch per leading index (seed), one loss each.

Probabilities inside a log are floored at ``PROB_FLOOR``; where the floor
is active the loss is locally constant, so the gradient contribution of
that sample (or term) is exactly zero. This keeps analytic gradients
consistent with finite differences of the computed loss. The rule's one
home is ``_nll``; only ``distill_loss`` floors its per-class terms itself.
The cross entropy against one target class per row, with its
``(p - onehot) / n`` gradient, is ``_target_ce``: the fine loss, and
FixMatch's and self-labeling's loss on gated pseudo-labels.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, OutOfRange
from .taxonomy import MarginalizationMatrix, marginalize

PROB_FLOOR = 1e-12


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of float64 ``z``, written into ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_inplace(np.array(logits, dtype=np.float64))


def _batches(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` as float64 batches ``(..., n, c)``; diverged training fails here first."""
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteGradient(f"non-finite values in {name}")
    return arr


def _per_batch(values: np.ndarray):
    """One loss per leading index, or a float for a single batch; -0.0 is 0.0."""
    return float(values) + 0.0 if values.ndim == 0 else values + 0.0


def _at(index: np.ndarray) -> tuple:
    """Indexes entry ``index[..., i]`` of every row i of an ``(..., n, c)`` array."""
    return (*np.indices(index.shape, sparse=True), index)


def _nll(p: np.ndarray, gate=True):
    """Sum of ``-log max(p, PROB_FLOOR)`` over the gated rows of ``p`` ``(..., n)``
    over ``max(n, 1)`` (an empty batch costs 0), and the live mask
    ``gate & (p >= PROB_FLOOR)`` of the rows whose gradient flows."""
    loss = -(np.log(np.maximum(p, PROB_FLOOR)) * gate).sum(axis=-1) / max(p.shape[-1], 1)
    return _per_batch(loss), gate & (p >= PROB_FLOOR)


def _check_labels(labels: np.ndarray, logits: np.ndarray, n_classes: int) -> np.ndarray:
    """``labels`` as int64, one in [0, ``n_classes``) per row of ``logits``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise OutOfRange(
            f"label outside [0, {n_classes}): "
            f"min {labels.min()}, max {labels.max()}"
        )
    if labels.shape != logits.shape[:-1]:
        raise DimensionMismatch(f"labels shape {labels.shape} for logits {logits.shape}")
    return labels


def _target_ce(probs: np.ndarray, targets: np.ndarray, gate=True):
    """The ``_nll`` of each row's ``targets`` entry of ``probs`` ``(..., n, c)``;
    ``probs`` is overwritten with the gradient ``(p - onehot) / n`` of the
    live rows, zero elsewhere."""
    at = _at(targets)
    loss, live = _nll(probs[at], gate)
    probs[at] -= 1.0
    probs[~live] = 0.0
    np.divide(probs, probs.shape[-2], out=probs)
    return loss


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean -log p(label); gradient is (softmax - onehot) / n."""
    logits = _batches("logits", logits)
    labels = _check_labels(labels, logits, logits.shape[-1])
    grad = softmax(logits)
    return _target_ce(grad, labels), grad


def marginalized_cross_entropy(
    logits: np.ndarray, coarse_labels: np.ndarray, w: MarginalizationMatrix
):
    """CE against a coarse label after summing leaf probabilities.

    With loss -log M, M the probability mass of the true coarse class,
    the gradient at leaf j is p_j - p_j * [j in class] / M.
    """
    logits = _batches("logits", logits)
    n, c = logits.shape[-2:]
    if c != len(w.ancestor_map):
        raise DimensionMismatch(
            f"{c} logits columns but marginalization maps {len(w.ancestor_map)} leaves"
        )
    coarse_labels = _check_labels(coarse_labels, logits, w.n_coarse)
    grad = softmax(logits)
    mass = marginalize(grad, w)[_at(coarse_labels)]
    loss, live = _nll(mass)
    in_class = w.ancestor_map == coarse_labels[..., None]
    factor = np.divide(in_class, np.where(live, mass, 1.0)[..., None])
    grad *= np.subtract(1.0, factor, out=factor)
    grad[~live] = 0.0
    return loss, np.divide(grad, n, out=grad)


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
    weak_logits = _batches("weak logits", weak_logits)
    strong_logits = _batches("strong logits", strong_logits)
    if weak_logits.shape != strong_logits.shape:
        raise DimensionMismatch(
            f"weak {weak_logits.shape} vs strong {strong_logits.shape}"
        )
    weak_probs = softmax(weak_logits)
    mask = weak_probs.max(axis=-1) >= tau
    grad = softmax(strong_logits)
    return _target_ce(grad, weak_probs.argmax(axis=-1), mask), grad, mask


def distill_loss(
    student_logits: np.ndarray, teacher_logits: np.ndarray, temperature: float
):
    """Soft-target CE between temperature-scaled distributions.

    Loss is H(teacher, student) at temperature T; the teacher is constant.
    The student gradient per sample is (student - teacher) / (n * T).
    Also returns the KL divergence (same gradient, nonnegative) as a
    convergence diagnostic.
    """
    student_logits = _batches("student logits", student_logits)
    teacher_logits = _batches("teacher logits", teacher_logits)
    if student_logits.shape != teacher_logits.shape:
        raise DimensionMismatch(
            f"student {student_logits.shape} vs teacher {teacher_logits.shape}"
        )
    *lead, n, _ = student_logits.shape
    n = max(n, 1)  # an empty batch costs 0, as in _nll
    t = softmax(teacher_logits / temperature)
    s = softmax(student_logits / temperature)
    live = s >= PROB_FLOOR
    log_s = np.log(np.maximum(s, PROB_FLOOR))
    # each batch summed as one flat run of n * c values
    loss = _per_batch(-(t * log_s).reshape(*lead, -1).sum(axis=-1) / n)
    # entropy of the teacher, with the same floor, for the KL diagnostic
    log_t = np.log(np.maximum(t, PROB_FLOOR))
    kl = _per_batch((t * (log_t - log_s)).reshape(*lead, -1).sum(axis=-1) / n)
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
    query = _batches("query embeddings", query)
    key_pos = _batches("key embeddings", key_pos)
    queue = np.asarray(queue, dtype=np.float64)
    *lead, n, d = query.shape
    if queue.shape[-1:] != (d,) or queue.shape[:-2] != tuple(lead):
        raise DimensionMismatch(f"queue {queue.shape} vs query {query.shape}")
    queue = queue.reshape(*lead, -1, d)
    if query.shape != key_pos.shape:
        raise DimensionMismatch(f"query {query.shape} vs key {key_pos.shape}")
    # One (..., n, m + 1) buffer goes from similarities to probabilities to
    # gradient coefficients in place: the positive in column 0, then the
    # negatives.
    buf = np.empty((*lead, n, queue.shape[-2] + 1))
    (query * key_pos).sum(axis=-1, out=buf[..., 0])
    np.matmul(query, queue.swapaxes(-1, -2), out=buf[..., 1:])
    buf /= temperature
    _softmax_inplace(_batches("scaled similarities", buf))
    loss, live = _nll(buf[..., 0])
    buf[..., 0] -= 1.0
    buf[~live] = 0.0
    grad = (buf[..., :1] * key_pos + buf[..., 1:] @ queue) / (n * temperature)
    return loss, grad
