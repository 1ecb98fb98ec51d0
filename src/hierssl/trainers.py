"""Training loops for the six methods.

All methods share the same supervised core: fine cross entropy on the
labeled batch plus, when a supervision level is set, marginalized cross
entropy on the coarse batch. A method is its ``PLANS`` row: whether a
contrastive stage pretrains the encoder, the term added on the coarse
batch (confidence-gated self-labeling, weak-to-strong consistency or
teacher distillation), whether the coarse batch trains on a strong view,
and the method's config defaults. Distillation is the one term with a
teacher: a baseline trained first, on the same encoder.

Randomness is split into independent streams per phase: model init,
batch sampling, and augmentation never share a generator, so methods
that differ only in augmentation draw identical batch sequences. Reruns
with the same config are bitwise identical. Every run trains its seeds in
lockstep, a lone seed as a lockstep of one: arrays carry a leading seed
axis, and each seed draws from its own generators, so each result of
``train_seeds`` is bitwise the one ``train`` gives for that seed alone.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import (
    COARSE_SOURCES,
    DataSplit,
    augment_strong,
    augment_weak,
    features_of,
    labels_at_level,
)
from .errors import ConfigError, DataError, EmptySplit, NonFiniteGradient
from .losses import (
    cross_entropy,
    distill_loss,
    fixmatch_loss,
    info_nce_loss,
    marginalized_cross_entropy,
    pseudo_label_loss,
)
from .model import (
    ARCHS,
    ContrastiveModel,
    ProjectionHead,
    SgdMomentum,
    _uses_hidden,
    momentum_update,
)
from .records import field_keys, field_texts, parse_fields, read_record, write_record
from .taxonomy import MarginalizationMatrix, Taxonomy


def _pseudo_label(z, x_weak, model, teacher, cfg: TrainConfig):
    loss, grad, mask = pseudo_label_loss(z, cfg.tau)
    return loss, grad, mask.mean(axis=-1), cfg.consistency_weight


def _fixmatch(z, x_weak, model, teacher, cfg: TrainConfig):
    loss, grad, mask = fixmatch_loss(model.forward(x_weak), z, cfg.tau)
    return loss, grad, mask.mean(axis=-1), cfg.consistency_weight


def _distill(z, x_weak, model, teacher, cfg: TrainConfig):
    loss, grad, _ = distill_loss(z, teacher.forward(x_weak), cfg.distill_temperature)
    return loss, grad, np.zeros(np.shape(loss)), cfg.distill_weight


class Plan(NamedTuple):
    pretrain: bool  # contrastive pretraining initializes the encoder
    # coarse-batch term(z, x_weak, model, teacher, cfg) -> (loss, gradient wrt z, gate
    # rate shaped as the loss, weight); it calls its loss by the global name a tracer rebinds
    term: object | None
    strong: bool  # the coarse batch trains on a strong view; the term reads the weak one
    defaults: dict  # the method's config defaults


PLANS = {
    "baseline": Plan(False, None, False, {}),
    "pseudo_label": Plan(False, _pseudo_label, False, {}),
    "fixmatch": Plan(False, _fixmatch, True, dict(batch_labeled=32, batch_coarse=160)),
    "self_training": Plan(False, _distill, False, {}),
    "moco": Plan(True, None, False, dict(arch="mlp1")),
    "moco_self_training": Plan(True, _distill, False, dict(arch="mlp1")),
}

METHODS = tuple(PLANS)

_PHASES = {"main": 0, "pretrain": 1, "teacher": 2}

_METRICS_FORMAT = "hierssl-metrics"


@dataclass
class TrainConfig:
    method: str = "baseline"
    # taxonomy level at which coarse supervision is applied; None disables
    # the coarse term entirely
    supervision_level: int | None = 2
    coarse_source: str = "coarse_in"
    steps: int = 400
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_labeled: int = 30
    batch_coarse: int = 30
    unsup_weight: float = 1.0
    tau: float = 0.8
    consistency_weight: float = 1.0
    distill_weight: float = 1.0
    distill_temperature: float = 2.0
    nce_temperature: float = 0.07
    queue_size: int = 2048
    key_momentum: float = 0.999
    pretrain_steps: int = 300
    batch_pretrain: int = 64
    emb_dim: int = 32
    arch: str = "linear"
    hidden: int = 64
    # weak and strong view strengths for consistency training
    sigma_weak: float = 0.1
    sigma_strong: float = 0.6
    p_drop: float = 0.1
    jitter: tuple[float, float] = (0.9, 1.1)
    # apply weak noise to the supervised inputs (a plan with a strong view
    # always does, and ignores this)
    augment_inputs: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.method not in PLANS:
            raise ConfigError(f"method: unknown method {self.method!r}")
        if self.coarse_source not in COARSE_SOURCES:
            raise ConfigError(
                f"coarse_source: must be one of {COARSE_SOURCES}, "
                f"got {self.coarse_source!r}"
            )
        if self.supervision_level is not None and self.supervision_level < 1:
            raise ConfigError("supervision_level: must be >= 1 or None")
        if self.lr <= 0:
            raise ConfigError("lr: must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum: must be in [0, 1)")
        for name in ("steps", "batch_labeled", "batch_coarse", "batch_pretrain",
                     "pretrain_steps", "emb_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        for name in ("weight_decay", "unsup_weight", "consistency_weight",
                     "distill_weight", "queue_size", "hidden", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        if self.tau <= 0:
            raise ConfigError("tau: must be > 0")
        if self.distill_temperature <= 0 or self.nce_temperature <= 0:
            raise ConfigError("temperatures must be > 0")
        if not 0 <= self.key_momentum < 1:
            raise ConfigError("key_momentum: must be in [0, 1)")
        if self.arch not in ARCHS:
            raise ConfigError(f"arch: unknown architecture {self.arch!r}")
        if self.hidden < 1 and _uses_hidden(ARCHS[self.arch]):
            raise ConfigError(f"hidden: must be >= 1 for arch {self.arch}")
        if PLANS[self.method].pretrain:
            if not ARCHS[self.arch].rep_param_names:
                raise ConfigError(
                    f"moco methods pretrain the encoder; arch={self.arch} has no "
                    "encoder parameters, use arch=mlp1"
                )
            if self.queue_size < 1:
                raise ConfigError("queue_size: must be >= 1 for moco methods")
        if self.sigma_weak < 0:
            raise ConfigError("sigma_weak: must be >= 0")
        if self.sigma_strong < self.sigma_weak:
            raise ConfigError("sigma_strong: must be >= sigma_weak")
        if not 0 <= self.p_drop < 1:
            raise ConfigError("p_drop: must be in [0, 1)")
        lo, hi = self.jitter
        if not 0 < lo <= hi:
            raise ConfigError("jitter: need 0 < lo <= hi")


def default_train_config(method: str = "baseline", **overrides) -> TrainConfig:
    """The method's ``PLANS`` defaults, then ``overrides``."""
    # an unknown method gets the baseline defaults; validate() rejects it
    plan = PLANS.get(method, PLANS["baseline"])
    return TrainConfig(method=method, **{**plan.defaults, **overrides})


@dataclass
class StepStats:
    step: int
    total: float
    fine: float
    coarse: float
    extra: float
    mask_rate: float


@dataclass
class PretrainStats:
    step: int
    loss: float
    queue_len: int


@dataclass
class TrainResult:
    model: object
    trace: list[StepStats]
    teacher: object | None = None
    pretrain_trace: list[PretrainStats] | None = None


_STEP_KEYS = field_keys(StepStats)
_PRETRAIN_KEYS = field_keys(PretrainStats, step="pretrain", queue_len="queue")


def write_metrics(trace: list[StepStats], path,
                  pretrain_trace: list[PretrainStats] | None = None) -> None:
    """One ``key value ...`` line per step, pretraining steps first."""
    write_record(path, f"{_METRICS_FORMAT} v1", [
        " ".join(f"{key} {text}" for key, text in field_texts(keys, s).items())
        for keys, stats in ((_PRETRAIN_KEYS, pretrain_trace or ()), (_STEP_KEYS, trace))
        for s in stats
    ])


def read_metrics(path):
    """Returns (trace, pretrain_trace); both round-trip exactly."""
    trace, pretrain = [], []
    kinds = {"step": (StepStats, _STEP_KEYS, trace),
             "pretrain": (PretrainStats, _PRETRAIN_KEYS, pretrain)}
    with read_record(path, _METRICS_FORMAT, (1,)) as body:
        for _, line in body:
            tokens = line.split()
            if tokens[0] not in kinds:
                raise ValueError(f"unknown line kind {tokens[0]!r}")
            cls, keys, out = kinds[tokens[0]]
            out.append(cls(*parse_fields(keys, tokens)))
    return trace, pretrain or None


class NegativeQueue:
    """Fixed-capacity FIFO of key embeddings; oldest entries drop first.

    Starts empty: the first contrastive steps see only the positive, and
    the loss ramps up as negatives accumulate. With ``lead`` axes it
    holds one queue per leading index (seed).
    """

    def __init__(self, capacity: int, emb_dim: int, lead: tuple[int, ...] = ()):
        self.capacity = capacity
        self._buf = np.zeros((*lead, 0, emb_dim))

    def push(self, keys: np.ndarray) -> None:
        self._buf = np.concatenate([self._buf, keys], axis=-2)[..., -self.capacity:, :]

    @property
    def array(self) -> np.ndarray:
        return self._buf

    def __len__(self) -> int:
        return self._buf.shape[-2]


def _phase_rngs(seed: int, phase: str):
    """Independent (init, batch, augment) generators for one phase."""
    root = np.random.SeedSequence([seed, _PHASES[phase]])
    return tuple(np.random.default_rng(ss) for ss in root.spawn(3))


def _stacked(models: list):
    """Per-seed models as one model with stacked parameters."""
    models[0].params = {k: np.array([m.params[k] for m in models]) for k in models[0].params}
    return models[0]


def _unstacked(model, n_seeds: int) -> list:
    """Each seed's model, with contiguous parameters of its own."""
    if model is None:
        return [None] * n_seeds
    out = [copy.copy(model) for _ in range(n_seeds)]
    for i, one in enumerate(out):
        one.params = {k: v[i].copy() for k, v in model.params.items()}
    return out


def _per_seed(fn, X: np.ndarray, rngs: tuple, *args) -> np.ndarray:
    """``fn(x, *args, rng)`` on each seed's slice of ``X`` with its generator."""
    return np.array([fn(x, *args, rng) for x, rng in zip(X, rngs)])


def _by_seed(rows: list) -> list:
    """Per-step values, each one per seed, as per-seed lists."""
    return np.moveaxis(np.array(rows), -1, 0).tolist()


def _pack(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig,
          need_pool: bool):
    """(Xl, yl, Xu, yu, w): labeled features and species, pool features, and
    the pool's labels and marginalization at the supervision level, or None."""
    if not split.labeled:
        raise EmptySplit("labeled split is empty")
    coarse = split.labeled.label_level != taxonomy.leaf_level
    if coarse.any():
        raise DataError(f"labeled split: a row is labeled at level "
                        f"{split.labeled.label_level[coarse.argmax()]}, not at the "
                        f"leaf level {taxonomy.leaf_level} ({taxonomy.level_names[-1]})")
    Xl = features_of(split.labeled)
    yl = split.labeled.label
    level = cfg.supervision_level
    if level is not None and level > taxonomy.num_levels:
        raise ConfigError(
            f"supervision_level: {level} exceeds the {taxonomy.num_levels}-level taxonomy"
        )
    pool = split.coarse(cfg.coarse_source)
    if (level is not None or need_pool) and not pool:
        raise EmptySplit(
            f"coarse pool {cfg.coarse_source!r} is empty but the method needs it"
        )
    Xu = features_of(pool)
    yu = w = None
    if level is not None:
        yu = labels_at_level(pool, taxonomy, level)
        w = MarginalizationMatrix.between(taxonomy, taxonomy.leaf_level, level)
    return Xl, yl, Xu, yu, w


def check_seeds(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig, seeds):
    """``train_seeds``' packed inputs: checks the seed list, each seed's config
    and the inputs, so every fault in them raises before any training."""
    if not seeds:
        raise ConfigError("seeds: need at least one seed")
    for seed in seeds:
        replace(cfg, seed=seed).validate()
    return _pack(split, taxonomy, cfg, need_pool=PLANS[cfg.method].term is not None)


def train(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig) -> TrainResult:
    """Runs the method's stages in order: pretraining, teacher, classifier;
    ``cfg.seed`` trains as a lockstep of one."""
    return train_seeds(split, taxonomy, cfg, (cfg.seed,))[0]


def train_seeds(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig,
                seeds) -> list[TrainResult]:
    """``train`` of ``replace(cfg, seed=s)`` for each seed, in one lockstep loop
    for any seed count; entry i is bitwise ``seeds[i]`` trained alone. The inputs
    are checked by ``check_seeds`` before any stage runs; a non-finite value
    fails all seeds."""
    seeds = tuple(seeds)
    packed = check_seeds(split, taxonomy, cfg, seeds)
    plan = PLANS[cfg.method]
    encoder = pretraces = teacher = None
    if plan.pretrain:
        encoder, pretraces = _pretrain_contrastive(packed, taxonomy, cfg, seeds)
    if plan.term is _distill:
        teacher, _ = _train_classifier(packed, taxonomy, cfg, seeds, "teacher",
                                       PLANS["baseline"], encoder, None)
    model, traces = _train_classifier(packed, taxonomy, cfg, seeds, "main",
                                      plan, encoder, teacher)
    n = len(seeds)
    return [TrainResult(*r) for r in zip(_unstacked(model, n), traces,
                                         _unstacked(teacher, n), pretraces or [None] * n)]


def _train_classifier(packed, taxonomy: Taxonomy, cfg: TrainConfig, seeds: tuple,
                      phase: str, plan: Plan, pretrained, teacher):
    """The shared supervised loop, with the plan's extra term if it has one;
    returns the trained (stacked) model and one per-step trace per seed.

    The hierarchical part is computed identically for every method so
    that, with its extra term switched off (tau above 1, zero weight),
    a method follows the baseline trajectory exactly. Each loss enters
    the logged total with the weight its gradient gets.
    """
    Xl, yl, Xu, yu, w = packed
    rng_init, rng_batch, rng_aug = zip(*(_phase_rngs(seed, phase) for seed in seeds))

    model = _stacked([ARCHS[cfg.arch](Xl.shape[1], taxonomy.num_leaves, rng,
                                      hidden=cfg.hidden) for rng in rng_init])
    if pretrained is not None:
        for name in pretrained.rep_param_names:
            model.params[name] = pretrained.params[name].copy()
    opt = SgdMomentum(cfg.lr, cfg.momentum, cfg.weight_decay)

    use_pool = yu is not None or plan.term is not None
    zero = np.zeros(len(seeds))
    rows = []  # per step: total, fine, coarse, extra and mask rate

    for step in range(cfg.steps):
        il = np.array([r.integers(0, len(Xl), size=cfg.batch_labeled) for r in rng_batch])
        Xl_b, yl_b = Xl[il], yl[il]
        if use_pool:
            iu = np.array([r.integers(0, len(Xu), size=cfg.batch_coarse) for r in rng_batch])
            Xu_b = Xu_weak = Xu[iu]

        if plan.strong or cfg.augment_inputs:
            Xl_b = _per_seed(augment_weak, Xl_b, rng_aug, cfg.sigma_weak)
            if use_pool:
                Xu_weak = _per_seed(augment_weak, Xu_b, rng_aug, cfg.sigma_weak)
                Xu_b = (_per_seed(augment_strong, Xu_b, rng_aug, cfg.sigma_strong,
                                  cfg.p_drop, cfg.jitter)
                        if plan.strong else Xu_weak)

        zl, cache_l = model.forward_cached(Xl_b)
        fine, g_fine = cross_entropy(zl, yl_b)
        grads = model.backward(cache_l, g_fine)
        total = fine
        coarse = extra = mask_rate = zero

        if use_pool:
            z_u, cache_u = model.forward_cached(Xu_b)
            g_u = None
            if yu is not None:
                coarse, g_u = marginalized_cross_entropy(z_u, yu[iu], w)
                g_u *= cfg.unsup_weight
                total = total + cfg.unsup_weight * coarse
            if plan.term is not None:
                extra, g_x, mask_rate, weight = plan.term(z_u, Xu_weak, model, teacher, cfg)
                g_x *= weight
                g_u = g_x if g_u is None else g_u + g_x
                total = total + weight * extra
            for name, g in model.backward(cache_u, g_u).items():
                grads[name] += g
        if not np.isfinite(total).all():  # a weighted loss may overflow, its gradient not
            raise NonFiniteGradient(f"non-finite training loss at step {step}")

        opt.step(model.params, grads)
        rows.append((total, fine, coarse, extra, mask_rate))

    return model, [[StepStats(step, *row) for step, row in enumerate(seed_rows)]
                   for seed_rows in _by_seed(rows)]


def _pretrain_contrastive(packed, taxonomy: Taxonomy, cfg: TrainConfig,
                          seeds: tuple):
    """Momentum-contrast pretraining over labeled plus coarse features.

    Two strong views per sample; the key view is encoded by a momentum
    copy, detached, and pushed into the negative queue for later steps.
    Returns the trained (stacked) query encoder and one per-step trace
    per seed.
    """
    Xl, _, Xu, _, _ = packed
    X = np.concatenate([Xl, Xu])
    rng_init, rng_batch, rng_aug = zip(*(_phase_rngs(seed, "pretrain") for seed in seeds))

    # each seed's rng_init draws its encoder, then its head
    encoders = [ARCHS[cfg.arch](X.shape[1], taxonomy.num_leaves, rng, hidden=cfg.hidden)
                for rng in rng_init]
    heads = [ProjectionHead(e.rep_dim, cfg.emb_dim, r) for e, r in zip(encoders, rng_init)]
    encoder = _stacked(encoders)
    query = ContrastiveModel(encoder, _stacked(heads))
    key = copy.deepcopy(query)

    # one queue per seed, on the seed axis that every array carries
    queue = NegativeQueue(cfg.queue_size, cfg.emb_dim, (len(seeds),))
    opt = SgdMomentum(cfg.lr, cfg.momentum, cfg.weight_decay)
    losses, sizes = [], []  # per step: loss (one per seed) and queue size

    for step in range(cfg.pretrain_steps):
        Xb = X[np.array([r.integers(0, len(X), size=cfg.batch_pretrain) for r in rng_batch])]
        v_q = _per_seed(augment_strong, Xb, rng_aug, cfg.sigma_strong, cfg.p_drop, cfg.jitter)
        v_k = _per_seed(augment_strong, Xb, rng_aug, cfg.sigma_strong, cfg.p_drop, cfg.jitter)
        q, cache = query.embed_cached(v_q)
        k = key.embed(v_k)
        # one call per seed, on its own queue: the benchmark's tracer counts
        # InfoNCE flops from a 2-D query
        nce = [info_nce_loss(*qkm, cfg.nce_temperature) for qkm in zip(q, k, queue.array)]
        loss, g_q = (np.array(a) for a in zip(*nce))
        grads = query.backward(cache, g_q)
        opt.step(query.params, grads)
        momentum_update(key.params, query.params, cfg.key_momentum)
        queue.push(k)
        losses.append(loss)
        sizes.append(len(queue))

    return encoder, [[PretrainStats(step, *row) for step, row in enumerate(zip(own, sizes))]
                     for own in _by_seed(losses)]
