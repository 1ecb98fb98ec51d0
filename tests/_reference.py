"""Slow, literal reference implementations that the acceptance criteria
and the loss and codec tests check the fast paths against, and the content
digest that pins what a dataset file holds."""

import base64
import hashlib

import numpy as np

from hierssl.data import SPLIT_TAGS, labels_at_level
from hierssl.evaluate import EvalReport
from hierssl.losses import cross_entropy, marginalized_cross_entropy, softmax
from hierssl.taxonomy import MarginalizationMatrix, marginalize


def hier_supervised_loss(
    labeled_logits: np.ndarray,
    labels: np.ndarray,
    coarse_logits: np.ndarray,
    coarse_labels: np.ndarray,
    w: MarginalizationMatrix,
    unsup_weight: float = 1.0,
):
    """Fine CE on the labeled batch plus marginalized CE on the coarse batch.

    Each term is averaged over its own batch; either batch may be empty,
    in which case its term (and gradient) is zero.
    """
    fine_loss, fine_grad = cross_entropy(labeled_logits, labels)
    coarse_loss, coarse_grad = marginalized_cross_entropy(coarse_logits, coarse_labels, w)
    loss = fine_loss + unsup_weight * coarse_loss
    return loss, fine_grad, unsup_weight * coarse_grad


def shape(w: MarginalizationMatrix) -> tuple[int, int]:
    return (len(w.ancestor_map), w.n_coarse)


def dense(w: MarginalizationMatrix) -> np.ndarray:
    """The 0/1 matrix of ``w``, one 1 per row: ``probs @ dense(w)`` marginalizes."""
    out = np.zeros(shape(w))
    out[np.arange(len(w.ancestor_map)), w.ancestor_map] = 1.0
    return out


def coarse_probs(taxonomy, leaf_probs, level: int) -> np.ndarray:
    """Leaf distribution(s) marginalized up to ``level``; at the leaf level
    through the identity matrix."""
    w = MarginalizationMatrix.between(taxonomy, taxonomy.leaf_level, level)
    return marginalize(leaf_probs, w)


def evaluate(model, samples, taxonomy) -> EvalReport:
    """Accuracy at every level, each level's marginals taken over the whole
    probability matrix at once."""
    probs = softmax(model.forward(samples.X))
    rows = []
    for level in range(1, taxonomy.num_levels + 1):
        pred = coarse_probs(taxonomy, probs, level).argmax(axis=-1)
        acc = float((pred == labels_at_level(samples, taxonomy, level)).mean())
        rows.append((level, taxonomy.level_names[level - 1], acc))
    return EvalReport(n_samples=len(samples), top1=rows[-1][2], levels=tuple(rows))


def float64_bytes(texts, count: int) -> bytes | None:
    """The literal float64-field rule, one field at a time: each text is the
    strict base64 of exactly ``8 * count`` bytes whose re-encoding is the
    text. The joined bytes, or None if any text breaks the rule."""
    out = []
    for text in texts:
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII text
            return None
        if len(raw) != 8 * count or base64.b64encode(raw).decode() != text:
            return None
        out.append(raw)
    return b"".join(out)


def content_digest(split) -> str:
    """sha256 over each split's ``X`` as ``<f8`` bytes, then its
    ``label_level``, ``label`` and ``true_species`` as ``<i8`` bytes, in
    ``SPLIT_TAGS`` order: what a dataset file holds, whatever its format."""
    h = hashlib.sha256()
    for tag in SPLIT_TAGS:
        s = getattr(split, tag)
        h.update(np.ascontiguousarray(s.X, "<f8").tobytes())
        for col in (s.label_level, s.label, s.true_species):
            h.update(np.ascontiguousarray(col, "<i8").tobytes())
    return h.hexdigest()
