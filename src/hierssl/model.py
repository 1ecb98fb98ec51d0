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

import base64
import math

import numpy as np

from .errors import (
    ArchitectureMismatch,
    ConfigError,
    DimensionMismatch,
    NonFiniteGradient,
    ParseError,
)
from .records import read_record, value_parser, write_record

_CKPT_MAGIC = "hierssl-checkpoint v1"


def _init_weight(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X W^T + b`` over any leading axes."""
    out = X @ W.swapaxes(-1, -2)
    out += b[..., None, :]
    return out


def _affine_grads(grad_out: np.ndarray, X: np.ndarray) -> tuple:
    """The gradients of ``W`` and ``b`` in ``_affine(X, W, b)``."""
    return grad_out.swapaxes(-1, -2) @ X, grad_out.sum(axis=-2)


class LinearModel:
    """Logits = X W^T + b; the representation is the raw input."""

    arch = "linear"

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator):
        self.dim = dim
        self.n_classes = n_classes
        self.hidden = 0
        self.params = {
            "W": _init_weight(rng, n_classes, dim),
            "b": np.zeros(n_classes),
        }

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


class Mlp1Model:
    """One ReLU hidden layer; the hidden activation is the representation."""

    arch = "mlp1"

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 hidden: int = 64):
        if hidden < 1:
            raise ConfigError("hidden: must be >= 1")
        self.dim = dim
        self.n_classes = n_classes
        self.hidden = hidden
        self.params = {
            "W1": _init_weight(rng, hidden, dim),
            "b1": np.zeros(hidden),
            "W2": _init_weight(rng, n_classes, hidden),
            "b2": np.zeros(n_classes),
        }

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


def make_model(arch: str, dim: int, n_classes: int,
               rng: np.random.Generator, hidden: int = 64):
    if arch == "linear":
        return LinearModel(dim, n_classes, rng)
    if arch == "mlp1":
        return Mlp1Model(dim, n_classes, rng, hidden=hidden)
    raise ConfigError(f"arch: unknown architecture {arch!r}")


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


def add_grads(acc: dict, extra: dict) -> dict:
    for name, g in extra.items():
        if name in acc:
            acc[name] += g
        else:
            acc[name] = g
    return acc


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
    and non-finite logits (a diverged model) are a NonFiniteGradient."""
    from .losses import _batches, softmax

    if model.n_classes != taxonomy.num_leaves:
        raise ArchitectureMismatch(
            f"model predicts {model.n_classes} classes but the taxonomy "
            f"has {taxonomy.num_leaves} leaves"
        )
    if X.shape[-1] != model.dim:
        raise DimensionMismatch(
            f"features have width {X.shape[-1]} but the model expects {model.dim}"
        )
    return softmax(_batches("logits", model.forward(X)))


# -- checkpoints -----------------------------------------------------------------


# the header keys in file order, each with its parser
_HEADER = {"arch": str,
           **dict.fromkeys(("dim", "hidden", "classes", "seed", "step"), value_parser(int))}
# each architecture's parameter shapes, in the size fields of the header
_PARAM_SHAPES = {
    "linear": {"W": ("classes", "dim"), "b": ("classes",)},
    "mlp1": {"W1": ("hidden", "dim"), "b1": ("hidden",),
             "W2": ("classes", "hidden"), "b2": ("classes",)},
}


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()


def save_checkpoint(model, path, seed: int, step: int,
                    meta: dict[str, str] | None = None) -> None:
    """Textual format, byte-identical across reruns: header fields, then
    each parameter as a shape line plus base64 little-endian float64 data."""
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
        lines.append(_encode(arr))
    write_record(path, _CKPT_MAGIC, lines)


def load_checkpoint(path):
    """Returns (model, info) where info carries seed, step, and meta.

    Header sizes are checked against every parameter's shape and data
    before the model is built, so a header cannot drive allocation."""
    header: dict[str, str | int] = {}
    at: dict[str, int] = {}
    meta: dict[str, str] = {}
    params: dict[str, np.ndarray] = {}
    with read_record(path, _CKPT_MAGIC) as body:
        lines = iter(body)
        for ln, line in lines:
            if line.startswith("param "):
                break
            key, value = line.split(maxsplit=1)
            if key == "meta":
                k, _, v = value.partition(" ")
                if k in meta:
                    raise ValueError(f"repeated meta key {k!r}")
                meta[k] = v
            elif key not in _HEADER or key in header:
                raise ValueError(
                    f"{'repeated' if key in header else 'unknown'} key {key!r}")
            else:
                header[key] = _HEADER[key](value)
                at[key] = ln
        else:
            line = None
        arch, dim, hidden, classes, seed, step = (header[k] for k in _HEADER)
        for key in ("dim", "hidden", "classes"):
            if header[key] < 0:
                raise ParseError(f"{key}: must be >= 0", line=at[key])
        fields = _PARAM_SHAPES.get(arch)
        if fields is None:
            raise ParseError(f"arch: unknown architecture {arch!r}",
                             line=at["arch"])
        if arch == "mlp1" and hidden < 1:
            raise ParseError("hidden: must be >= 1", line=at["hidden"])
        if arch == "linear" and hidden != 0:
            raise ParseError("hidden: must be 0 for arch linear",
                             line=at["hidden"])
        while line is not None:
            parts = line.split()
            if parts[0] != "param" or len(parts) < 3:
                raise ValueError(f"expected a param line, got {line!r}")
            name = parts[1]
            shape = tuple(map(value_parser(int), parts[2:]))
            if name not in fields or name in params:
                raise ValueError(f"unknown or repeated parameter {name!r} for arch {arch}")
            if len(shape) != len(fields[name]):
                raise ValueError(f"parameter {name} has shape {shape}, expected "
                                 f"{len(fields[name])} dimensions")
            ln, line = next(lines, (ln, None))
            if line is None:
                raise ValueError(f"missing data for parameter {name}")
            data = np.frombuffer(base64.b64decode(line), dtype="<f8")
            if data.size != math.prod(shape):
                raise ValueError(f"parameter {name}: {data.size} values for shape {shape}")
            for size, key in zip(shape, fields[name]):
                if size != header[key]:
                    raise ParseError(
                        f"{key} {header[key]} does not match parameter {name} "
                        f"of shape {shape}", line=at[key])
            params[name] = data.reshape(shape).copy()
            ln, line = next(lines, (ln, None))
        missing = set(fields) - set(params)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
    model = make_model(arch, dim, classes, np.random.default_rng(0), hidden=hidden)
    model.params.update(params)
    return model, {"seed": seed, "step": step, "meta": meta}
