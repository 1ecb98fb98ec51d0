"""Classifier architectures with explicit forward/backward passes.

No autodiff: each architecture exposes ``forward_cached`` returning the
activations needed by ``backward``, which maps a gradient with respect to
the logits into gradients with respect to every parameter. The encoder
part (everything below the classifier layer) is additionally exposed via
``rep_forward``/``rep_backward`` so a projection head can be trained on
top of it for contrastive pretraining.

Parameters live in an ordered name -> array dict; names whose last
component starts with "b" are biases and are exempt from weight decay.
"""

from __future__ import annotations

import base64

import numpy as np

from .errors import (
    ArchitectureMismatch,
    ConfigError,
    NonFiniteGradient,
    ParseError,
)
from .records import read_record, write_record

_CKPT_MAGIC = "hierssl-checkpoint v1"


def _init_weight(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


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
        return X @ self.params["W"].T + self.params["b"]

    def forward_cached(self, X: np.ndarray):
        return self.forward(X), X

    def backward(self, cache, grad_logits: np.ndarray) -> dict:
        X = cache
        return {"W": grad_logits.T @ X, "b": grad_logits.sum(axis=0)}

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
        pre = X @ self.params["W1"].T + self.params["b1"]
        act = np.maximum(pre, 0.0)
        logits = act @ self.params["W2"].T + self.params["b2"]
        return logits, (X, pre, act)

    def backward(self, cache, grad_logits: np.ndarray) -> dict:
        X, pre, act = cache
        g_act = grad_logits @ self.params["W2"]
        g_pre = g_act * (pre > 0)
        return {
            "W1": g_pre.T @ X,
            "b1": g_pre.sum(axis=0),
            "W2": grad_logits.T @ act,
            "b2": grad_logits.sum(axis=0),
        }

    def rep_forward(self, X: np.ndarray):
        pre = X @ self.params["W1"].T + self.params["b1"]
        return np.maximum(pre, 0.0), (X, pre)

    def rep_backward(self, cache, grad_rep: np.ndarray) -> dict:
        X, pre = cache
        g_pre = grad_rep * (pre > 0)
        return {"W1": g_pre.T @ X, "b1": g_pre.sum(axis=0)}

    rep_param_names: tuple[str, ...] = ("W1", "b1")

    def reset_classifier(self, rng: np.random.Generator) -> None:
        """Fresh output layer over the kept representation."""
        self.params["W2"] = _init_weight(rng, self.n_classes, self.hidden)
        self.params["b2"] = np.zeros(self.n_classes)


def make_model(arch: str, dim: int, n_classes: int,
               rng: np.random.Generator, hidden: int = 64):
    if arch == "linear":
        return LinearModel(dim, n_classes, rng)
    if arch == "mlp1":
        return Mlp1Model(dim, n_classes, rng, hidden=hidden)
    raise ConfigError(f"arch: unknown architecture {arch!r}")


def clone_model(model):
    copy = make_model(model.arch, model.dim, model.n_classes,
                      np.random.default_rng(0), hidden=model.hidden)
    copy.params = {k: v.copy() for k, v in model.params.items()}
    return copy


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
        v = rep @ self.params["P"].T + self.params["bp"]
        norm = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-12)
        q = v / norm
        return q, (rep, q, norm)

    def backward(self, cache, grad_q: np.ndarray):
        rep, q, norm = cache
        g_v = (grad_q - q * (q * grad_q).sum(axis=-1, keepdims=True)) / norm
        grads = {"P": g_v.T @ rep, "bp": g_v.sum(axis=0)}
        return grads, g_v @ self.params["P"]


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
            acc[name] = acc[name] + g
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


def predict_probs(model, X: np.ndarray) -> np.ndarray:
    from .losses import softmax

    return softmax(model.forward(X))


def ensure_compatible(model, taxonomy) -> None:
    if model.n_classes != taxonomy.num_leaves:
        raise ArchitectureMismatch(
            f"model predicts {model.n_classes} classes but the taxonomy "
            f"has {taxonomy.num_leaves} leaves"
        )


def grad_check(fn, params: dict, rng: np.random.Generator,
               n_coords: int = 200, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference grads.

    ``fn`` recomputes (loss, grads dict) at the current parameter values;
    coordinates are sampled without replacement across all parameters.
    """
    _, grads = fn()
    flat = [(name, i) for name, arr in params.items() for i in range(arr.size)]
    picks = rng.choice(len(flat), size=min(n_coords, len(flat)), replace=False)
    worst = 0.0
    for ci in picks:
        name, i = flat[int(ci)]
        arr = params[name]
        old = arr.flat[i]
        arr.flat[i] = old + h
        lp = fn()[0]
        arr.flat[i] = old - h
        lm = fn()[0]
        arr.flat[i] = old
        fd = (lp - lm) / (2.0 * h)
        ga = grads[name].flat[i]
        rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


# -- checkpoints -----------------------------------------------------------------


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()


def save_checkpoint(model, path, seed: int, step: int,
                    meta: dict[str, str] | None = None) -> None:
    """Textual format, byte-identical across reruns: header fields, then
    each parameter as a shape line plus base64 little-endian float64 data."""
    lines = [
        f"arch {model.arch}",
        f"dim {model.dim}",
        f"hidden {model.hidden}",
        f"classes {model.n_classes}",
        f"seed {seed}",
        f"step {step}",
    ]
    for key in sorted(meta or {}):
        value = str((meta or {})[key])
        if any(ch.isspace() for ch in key) or "\n" in value:
            raise ConfigError(f"meta key/value must be single-line: {key!r}")
        lines.append(f"meta {key} {value}")
    for name, arr in model.params.items():
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"param {name} {shape}")
        lines.append(_encode(arr))
    write_record(path, _CKPT_MAGIC, lines)


def load_checkpoint(path):
    """Returns (model, info) where info carries seed, step, and meta."""
    header: dict[str, str | int] = {}
    at: dict[str, int] = {}
    meta: dict[str, str] = {}
    with read_record(path, _CKPT_MAGIC) as body:
        lines = iter(body)
        for ln, line in lines:
            if line.startswith("param "):
                break
            key, value = line.split(maxsplit=1)
            if key == "meta":
                k, _, v = value.partition(" ")
                meta[k] = v
            else:
                header[key] = value if key == "arch" else int(value)
                at[key] = ln
        else:
            line = None
        arch, dim, hidden, classes = (
            header[k] for k in ("arch", "dim", "hidden", "classes"))
        seed, step = header["seed"], header["step"]
        for key in ("dim", "hidden", "classes"):
            if header[key] < 0:
                raise ParseError(f"{key}: must be >= 0", line=at[key])
        try:
            model = make_model(arch, dim, classes, np.random.default_rng(0),
                               hidden=hidden)
        except ConfigError as exc:  # an unknown arch, or mlp1 with hidden 0
            raise ParseError(str(exc), line=at[
                "hidden" if arch == "mlp1" else "arch"]) from None
        seen = set()
        while line is not None:
            parts = line.split()
            if parts[0] != "param" or len(parts) < 3:
                raise ParseError(f"expected a param line, got {line!r}", line=ln)
            name = parts[1]
            shape = tuple(int(s) for s in parts[2:])
            if name not in model.params:
                raise ParseError(f"unknown parameter {name!r} for arch {arch}",
                                 line=ln)
            if model.params[name].shape != shape:
                raise ParseError(
                    f"parameter {name} has shape {shape}, expected "
                    f"{model.params[name].shape}", line=ln)
            ln, line = next(lines, (ln, None))
            if line is None:
                raise ParseError(f"missing data for parameter {name}", line=ln)
            data = np.frombuffer(base64.b64decode(line), dtype="<f8")
            if data.size != int(np.prod(shape)):
                raise ParseError(
                    f"parameter {name}: {data.size} values for shape {shape}",
                    line=ln)
            model.params[name] = data.reshape(shape).copy()
            seen.add(name)
            ln, line = next(lines, (ln, None))
        missing = set(model.params) - seen
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
    return model, {"seed": seed, "step": step, "meta": meta}
