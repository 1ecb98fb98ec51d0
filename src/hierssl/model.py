"""Classifier architectures with explicit forward/backward passes.

No autodiff: each architecture exposes ``forward_cached`` returning the
activations needed by ``backward``, which maps a gradient with respect to
the logits into gradients with respect to every parameter. The encoder
part (everything below the classifier layer) is additionally exposed via
``rep_forward``/``rep_backward`` so a projection head can be trained on
top of it for contrastive pretraining.

Every pass also takes a leading axis: parameters ``(S, ...)`` and inputs
``(S, n, d)`` run S models (seeds in lockstep), each as it would alone.

Parameters live in an ordered name -> array dict; names whose last
component starts with "b" are biases and are exempt from weight decay.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ArchitectureMismatch,
    ConfigError,
    DataError,
    DimensionMismatch,
    NonFiniteGradient,
    ParseError,
)
from .losses import _batches, _softmax_inplace
from .records import (
    bounded,
    float64_bytes,
    float64_texts,
    parse_lines,
    read_record,
    value_parser,
    write_record,
)

_CKPT_FORMAT = "hierssl-checkpoint"
# rows scored at once, so scoring never holds a whole probability matrix. A
# row's softmax, marginals and argmax are its own, but BLAS may order the
# sums of a product by its shape, so a row's probabilities can differ from
# the whole matrix's in the last bits (up to 5e-15 seen at 810 leaves)
_BLOCK_ROWS = 1024


def _init_weight(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if rows * cols * 8 > np.iinfo(np.intp).max:  # numpy raises ValueError here
        raise MemoryError(f"Unable to allocate a {rows} x {cols} float64 array")
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X W^T + b`` over any leading axes."""
    out = X @ W.swapaxes(-1, -2)
    out += b[..., None, :]
    return out


def _affine_grads(grad_out: np.ndarray, X: np.ndarray) -> tuple:
    """The gradients of ``W`` and ``b`` in ``_affine(X, W, b)``."""
    return grad_out.swapaxes(-1, -2) @ X, grad_out.sum(axis=-2)


def _uses_hidden(cls) -> bool:
    """Whether some parameter of the architecture ``cls`` has a hidden dimension."""
    return any("hidden" in dims for dims in cls.shapes.values())


class _Classifier:
    """Sizes and parameters of every architecture. Its ``shapes`` give each
    parameter's dimensions as the checkpoint header names them, in the order
    drawn: a matrix by ``_init_weight``, a bias as zeros. Without a hidden
    dimension, ``hidden`` is 0 whatever it is given."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 hidden: int = 64):
        if not _uses_hidden(type(self)):
            hidden = 0
        self.dim, self.n_classes, self.hidden = dim, n_classes, hidden
        sizes = {"dim": dim, "hidden": hidden, "classes": n_classes}
        self.params = {name: _init_weight(rng, *(sizes[k] for k in dims))
                       if len(dims) == 2 else np.zeros(sizes[dims[0]])
                       for name, dims in self.shapes.items()}


class LinearModel(_Classifier):
    """Logits = X W^T + b; the representation is the raw input."""

    arch = "linear"
    shapes = {"W": ("classes", "dim"), "b": ("classes",)}

    @property
    def rep_dim(self) -> int:
        return self.dim

    def forward(self, X: np.ndarray) -> np.ndarray:
        return _affine(X, self.params["W"], self.params["b"])

    def forward_cached(self, X: np.ndarray):
        return self.forward(X), X

    def backward(self, cache, grad_logits: np.ndarray) -> dict:
        return dict(zip(("W", "b"), _affine_grads(grad_logits, cache)))

    def rep_forward(self, X: np.ndarray):
        return X, None

    def rep_backward(self, cache, grad_rep: np.ndarray) -> dict:
        return {}

    rep_param_names: tuple[str, ...] = ()


class Mlp1Model(_Classifier):
    """One ReLU hidden layer; the hidden activation is the representation."""

    arch = "mlp1"
    shapes = {"W1": ("hidden", "dim"), "b1": ("hidden",),
              "W2": ("classes", "hidden"), "b2": ("classes",)}

    @property
    def rep_dim(self) -> int:
        return self.hidden

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.forward_cached(X)[0]

    def forward_cached(self, X: np.ndarray):
        act, rep_cache = self.rep_forward(X)
        return _affine(act, self.params["W2"], self.params["b2"]), (rep_cache, act)

    def backward(self, cache, grad_logits: np.ndarray) -> dict:
        rep_cache, act = cache
        grads = self.rep_backward(rep_cache, grad_logits @ self.params["W2"])
        grads["W2"], grads["b2"] = _affine_grads(grad_logits, act)
        return grads

    def rep_forward(self, X: np.ndarray):
        pre = _affine(X, self.params["W1"], self.params["b1"])
        return np.maximum(pre, 0.0), (X, pre)

    def rep_backward(self, cache, grad_rep: np.ndarray) -> dict:
        X, pre = cache
        return dict(zip(("W1", "b1"), _affine_grads(grad_rep * (pre > 0), X)))

    rep_param_names: tuple[str, ...] = ("W1", "b1")


ARCHS = {cls.arch: cls for cls in (LinearModel, Mlp1Model)}


class ProjectionHead:
    """Linear map to the embedding space followed by L2 normalization."""

    def __init__(self, rep_dim: int, emb_dim: int, rng: np.random.Generator):
        self.rep_dim = rep_dim
        self.emb_dim = emb_dim
        self.params = {
            "P": _init_weight(rng, emb_dim, rep_dim),
            "bp": np.zeros(emb_dim),
        }

    def forward_cached(self, rep: np.ndarray):
        v = _affine(rep, self.params["P"], self.params["bp"])
        norm = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-12)
        q = v / norm
        return q, (rep, q, norm)

    def backward(self, cache, grad_q: np.ndarray):
        rep, q, norm = cache
        g_v = (grad_q - q * (q * grad_q).sum(axis=-1, keepdims=True)) / norm
        return dict(zip(("P", "bp"), _affine_grads(g_v, rep))), g_v @ self.params["P"]


class ContrastiveModel:
    """Encoder plus projection head, with a combined parameter namespace.

    Only the encoder's representation parameters take part (a classifier
    layer on top of the representation is not trained contrastively).
    """

    def __init__(self, encoder, head: ProjectionHead):
        self.encoder = encoder
        self.head = head

    @property
    def params(self) -> dict:
        out = {f"enc.{k}": self.encoder.params[k]
               for k in self.encoder.rep_param_names}
        out.update({f"head.{k}": v for k, v in self.head.params.items()})
        return out

    def embed_cached(self, X: np.ndarray):
        rep, enc_cache = self.encoder.rep_forward(X)
        q, head_cache = self.head.forward_cached(rep)
        return q, (enc_cache, head_cache)

    def embed(self, X: np.ndarray) -> np.ndarray:
        return self.embed_cached(X)[0]

    def backward(self, cache, grad_q: np.ndarray) -> dict:
        enc_cache, head_cache = cache
        head_grads, grad_rep = self.head.backward(head_cache, grad_q)
        enc_grads = self.encoder.rep_backward(enc_cache, grad_rep)
        out = {f"enc.{k}": v for k, v in enc_grads.items()}
        out.update({f"head.{k}": v for k, v in head_grads.items()})
        return out


def momentum_update(key_params: dict, query_params: dict, m: float) -> None:
    """key <- m * key + (1 - m) * query, in place, for every parameter."""
    for name, arr in key_params.items():
        arr *= m
        arr += (1.0 - m) * query_params[name]


class SgdMomentum:
    """v <- momentum * v + grad + weight_decay * theta; theta <- theta - lr * v.

    Weight decay is skipped for biases. Raises on non-finite gradients so
    a diverging run fails loudly instead of training on NaNs.
    """

    def __init__(self, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        for name, theta in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient for parameter {name}")
            if self.weight_decay and not name.split(".")[-1].startswith("b"):
                g = g + self.weight_decay * theta
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(theta)
                self.velocity[name] = v
            v *= self.momentum
            v += g
            theta -= self.lr * v


def predict_probs(model, X: np.ndarray, taxonomy) -> np.ndarray:
    """Distribution over ``taxonomy``'s leaves per row of ``X``. A model of
    another class count or feature width is a typed error, not a matmul one,
    and non-finite logits (a diverged model) are a NonFiniteGradient. The
    fresh logits that ``forward`` returns are normalized in place."""
    if model.n_classes != taxonomy.num_leaves:
        raise ArchitectureMismatch(
            f"model predicts {model.n_classes} classes but the taxonomy "
            f"has {taxonomy.num_leaves} leaves"
        )
    if X.shape[-1] != model.dim:
        raise DimensionMismatch(
            f"features have width {X.shape[-1]} but the model expects {model.dim}"
        )
    return _softmax_inplace(_batches("logits", model.forward(X)))


def _prob_blocks(model, X: np.ndarray, taxonomy):
    """``predict_probs`` of each block of ``_BLOCK_ROWS`` rows of ``X``, as
    (row slice, probabilities) pairs. A zero-row ``X`` is one empty block,
    so it still meets the model-fit checks."""
    for start in range(0, max(len(X), 1), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield rows, predict_probs(model, X[rows], taxonomy)


# -- checkpoints -----------------------------------------------------------------


_SIZE = bounded(int, 0)
# the header keys in file order, each with its parser
_HEADER = {key: (key, parse) for key, parse in (
    ("arch", str), ("dim", _SIZE), ("hidden", _SIZE), ("classes", _SIZE),
    ("seed", value_parser(int)), ("step", value_parser(int)))}


def save_checkpoint(model, path, seed: int, step: int,
                    meta: dict[str, str] | None = None) -> None:
    """Textual format, byte-identical across reruns: header fields, then
    each parameter as a shape line plus base64 little-endian float64 data.
    A non-finite parameter value is a DataError before anything is written."""
    for name, arr in model.params.items():
        if not np.isfinite(arr).all():
            raise DataError(f"cannot write parameter {name}: non-finite value")
    header = (model.arch, model.dim, model.hidden, model.n_classes, seed, step)
    lines = [f"{key} {value}" for key, value in zip(_HEADER, header)]
    for key in sorted(meta or {}):
        value = str((meta or {})[key])
        # any line break, not only "\n", would split the line on reading
        if (not key or any(ch.isspace() for ch in key)
                or "".join(value.splitlines()) != value):
            raise ConfigError(f"meta key must be one word, value one line: {key!r}")
        lines.append(f"meta {key} {value}")
    for name, arr in model.params.items():
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"param {name} {shape}")
        lines.append(float64_texts(arr.reshape(1, -1))[0])
    write_record(path, f"{_CKPT_FORMAT} v1", lines)


def load_checkpoint(path):
    """Returns (model, info) where info carries seed, step, and meta.

    Header sizes are checked against every parameter's shape and data
    before the model is built, so a header cannot drive allocation."""
    header: dict[str, str | int] = {}
    at: dict[str, int] = {}
    meta: dict[str, str] = {}
    params: dict[str, np.ndarray] = {}
    with read_record(path, _CKPT_FORMAT, (1,)) as body:
        for key, value in zip(_HEADER, parse_lines(_HEADER, body)):
            header[key], at[key] = value, body.line
        arch, dim, hidden, classes, seed, step = header.values()
        cls = ARCHS.get(arch)
        if cls is None:
            raise ParseError(f"arch: unknown architecture {arch!r}",
                             line=at["arch"])
        fields = cls.shapes
        if (hidden > 0) != _uses_hidden(cls):  # no size is negative here
            raise ParseError(f"hidden: must be {'0' if hidden else '>= 1'} for arch {arch}",
                             line=at["hidden"])
        for _, line in body:
            parts = line.split()
            if parts[0] == "meta" and not params:  # before the params, keys sorted
                k, _, v = line.split(maxsplit=1)[1].partition(" ")
                if meta and k <= max(meta):
                    raise ValueError(f"meta key {k!r} is not after {max(meta)!r}")
                meta[k] = v
                continue
            if parts[0] != "param" or len(parts) < 3:
                raise ValueError(f"expected a param line, got {line!r}")
            name = parts[1]
            shape = tuple(map(value_parser(int), parts[2:]))
            if name not in fields or name in params:
                raise ValueError(f"unknown or repeated parameter {name!r} for arch {arch}")
            if len(shape) != len(fields[name]):
                raise ValueError(f"parameter {name} has shape {shape}, expected "
                                 f"{len(fields[name])} dimensions")
            _, line = next(body, (None, None))
            if line is None:
                raise ValueError(f"missing data for parameter {name}")
            data = np.frombuffer(float64_bytes([line], math.prod(shape)), dtype="<f8")
            if not np.isfinite(data).all():
                raise ValueError(f"parameter {name}: non-finite value")
            for size, key in zip(shape, fields[name]):
                if size != header[key]:
                    raise ParseError(
                        f"{key} {header[key]} does not match parameter {name} "
                        f"of shape {shape}", line=at[key])
            params[name] = data.reshape(shape).copy()
        missing = set(fields) - set(params)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
    model = cls(dim, classes, np.random.default_rng(0), hidden=hidden)
    model.params.update(params)
    return model, {"seed": seed, "step": step, "meta": meta}
