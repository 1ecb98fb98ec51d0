"""Training loops for the six methods.

All methods share the same supervised core: fine cross entropy on the
labeled batch plus, when a supervision level is set, marginalized cross
entropy on the coarse batch. The semi-supervised methods add one term on
top (confidence-gated self-labeling, weak-to-strong consistency, teacher
distillation) or prepend a contrastive pretraining stage.

Randomness is split into independent streams per phase: model init,
batch sampling, and augmentation never share a generator, so methods
that differ only in augmentation draw identical batch sequences. Reruns
with the same config are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    AugmentParams,
    DataSplit,
    augment_strong,
    augment_weak,
    features_of,
    labels_at_level,
)
from .errors import ConfigError, EmptyQueue, EmptySplit
from .losses import (
    cross_entropy,
    distill_loss,
    fixmatch_loss,
    info_nce_loss,
    marginalized_cross_entropy,
    pseudo_label_loss,
)
from .model import (
    ContrastiveModel,
    ProjectionHead,
    SgdMomentum,
    add_grads,
    clone_model,
    make_model,
    momentum_update,
)
from .records import read_record, write_record
from .taxonomy import MarginalizationMatrix, Taxonomy

METHODS = (
    "baseline",
    "pseudo_label",
    "fixmatch",
    "self_training",
    "moco",
    "moco_self_training",
)

COARSE_SOURCES = ("coarse_in", "union")

_PHASES = {"main": 0, "pretrain": 1, "teacher": 2}

_METRICS_MAGIC = "hierssl-metrics v1"


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
    augment: AugmentParams = field(default_factory=AugmentParams)
    # apply weak noise to the supervised inputs of non-fixmatch methods
    # (fixmatch has its own weak/strong scheme and ignores this)
    augment_inputs: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}")
        if self.coarse_source not in COARSE_SOURCES:
            raise ConfigError(
                f"coarse_source: must be one of {COARSE_SOURCES}, "
                f"got {self.coarse_source!r}"
            )
        if self.supervision_level is not None and self.supervision_level < 1:
            raise ConfigError("supervision_level: must be >= 1 or None")
        if self.steps < 1:
            raise ConfigError("steps: must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr: must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum: must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay: must be >= 0")
        for name in ("batch_labeled", "batch_coarse", "batch_pretrain"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.tau <= 0:
            raise ConfigError("tau: must be > 0")
        for name in ("unsup_weight", "consistency_weight", "distill_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        if self.distill_temperature <= 0 or self.nce_temperature <= 0:
            raise ConfigError("temperatures must be > 0")
        if not 0 <= self.key_momentum < 1:
            raise ConfigError("key_momentum: must be in [0, 1)")
        if self.queue_size < 0:
            raise ConfigError("queue_size: must be >= 0")
        if self.pretrain_steps < 1:
            raise ConfigError("pretrain_steps: must be >= 1")
        if self.emb_dim < 1:
            raise ConfigError("emb_dim: must be >= 1")
        if self.arch not in ("linear", "mlp1"):
            raise ConfigError(f"arch: unknown architecture {self.arch!r}")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.method in ("moco", "moco_self_training"):
            if self.arch != "mlp1":
                raise ConfigError(
                    "moco methods pretrain the encoder; arch=linear has no "
                    "encoder parameters, use arch=mlp1"
                )
            if self.queue_size < 1:
                raise ConfigError("queue_size: must be >= 1 for moco methods")
        self.augment.validate()


def default_train_config(method: str = "baseline", **overrides) -> TrainConfig:
    """Per-method batch-size and architecture defaults."""
    cfg = TrainConfig(method=method)
    if method == "fixmatch":
        cfg = replace(cfg, batch_labeled=32, batch_coarse=160)
    if method in ("moco", "moco_self_training"):
        cfg = replace(cfg, arch="mlp1")
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


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


def write_metrics(trace: list[StepStats], path,
                  pretrain_trace: list[PretrainStats] | None = None) -> None:
    """Per-step losses as text, floats in shortest-exact form."""
    lines = [
        f"pretrain {p.step} loss {repr(float(p.loss))} queue {p.queue_len}"
        for p in pretrain_trace or ()
    ]
    for s in trace:
        lines.append(
            f"step {s.step} total {repr(float(s.total))} fine {repr(float(s.fine))} "
            f"coarse {repr(float(s.coarse))} extra {repr(float(s.extra))} "
            f"mask_rate {repr(float(s.mask_rate))}"
        )
    write_record(path, _METRICS_MAGIC, lines)


def read_metrics(path):
    """Returns (trace, pretrain_trace); both round-trip exactly."""
    trace: list[StepStats] = []
    pretrain: list[PretrainStats] = []
    with read_record(path, _METRICS_MAGIC) as body:
        for _, line in body:
            parts = line.split()
            if parts[0] == "pretrain" and len(parts) == 6:
                pretrain.append(PretrainStats(int(parts[1]), float(parts[3]),
                                              int(parts[5])))
            elif parts[0] == "step" and len(parts) == 12:
                trace.append(StepStats(int(parts[1]), float(parts[3]),
                                       float(parts[5]), float(parts[7]),
                                       float(parts[9]), float(parts[11])))
            else:
                raise ValueError(f"malformed line {line!r}")
    return trace, pretrain or None


class NegativeQueue:
    """Fixed-capacity FIFO of key embeddings; oldest entries drop first.

    Starts empty: the first contrastive steps see only the positive, and
    the loss ramps up as negatives accumulate.
    """

    def __init__(self, capacity: int, emb_dim: int):
        if capacity < 1:
            raise EmptyQueue("queue_size must be >= 1 for contrastive training")
        self.capacity = capacity
        self._buf = np.zeros((0, emb_dim))

    def push(self, keys: np.ndarray) -> None:
        self._buf = np.concatenate([self._buf, keys])[-self.capacity:]

    @property
    def array(self) -> np.ndarray:
        return self._buf

    def __len__(self) -> int:
        return self._buf.shape[0]


def _phase_rngs(seed: int, phase: str):
    """Independent (init, batch, augment) generators for one phase."""
    root = np.random.SeedSequence([seed, _PHASES[phase]])
    init_ss, batch_ss, aug_ss = root.spawn(3)
    return (
        np.random.default_rng(init_ss),
        np.random.default_rng(batch_ss),
        np.random.default_rng(aug_ss),
    )


def resolve_coarse_pool(split: DataSplit, source: str):
    if source == "coarse_in":
        return split.coarse_in
    if source == "union":
        return split.coarse_in + split.coarse_out
    raise ConfigError(f"coarse_source: unknown source {source!r}")


def _pack(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig,
          need_unlabeled: bool):
    """(Xl, yl, Xu, yu, w): labeled features and species, pool features, and
    the pool's labels and marginalization at the supervision level, or None."""
    if not split.labeled:
        raise EmptySplit("labeled split is empty")
    Xl = features_of(split.labeled)
    yl = split.labeled.label
    level = cfg.supervision_level
    if level is not None and level > taxonomy.num_levels:
        raise ConfigError(
            f"supervision_level: {level} exceeds the {taxonomy.num_levels}-level taxonomy"
        )
    pool = resolve_coarse_pool(split, cfg.coarse_source)
    if (level is not None or need_unlabeled) and not pool:
        raise EmptySplit(
            f"coarse pool {cfg.coarse_source!r} is empty but the method needs it"
        )
    Xu = features_of(pool)
    yu = None
    w = None
    if level is not None:
        yu = labels_at_level(pool, taxonomy, level)
        leaf = taxonomy.leaf_level
        w = MarginalizationMatrix(
            leaf, level, taxonomy.ancestor_map(leaf, level),
            taxonomy.class_counts[level - 1],
        )
    return Xl, yl, Xu, yu, w


def train(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig) -> TrainResult:
    cfg.validate()
    if cfg.method in ("baseline", "pseudo_label", "fixmatch"):
        return _train_classifier(split, taxonomy, cfg, phase="main")
    if cfg.method == "self_training":
        teacher_cfg = replace(cfg, method="baseline")
        teacher = _train_classifier(split, taxonomy, teacher_cfg, phase="teacher").model
        result = _train_classifier(split, taxonomy, cfg, phase="main", teacher=teacher)
        result.teacher = teacher
        return result
    if cfg.method == "moco":
        encoder, pretrace = _pretrain_contrastive(split, taxonomy, cfg)
        finetune_cfg = replace(cfg, method="baseline")
        result = _train_classifier(split, taxonomy, finetune_cfg, phase="main",
                                   pretrained=encoder)
        result.pretrain_trace = pretrace
        return result
    if cfg.method == "moco_self_training":
        encoder, pretrace = _pretrain_contrastive(split, taxonomy, cfg)
        teacher_cfg = replace(cfg, method="baseline")
        teacher = _train_classifier(split, taxonomy, teacher_cfg, phase="teacher",
                                    pretrained=encoder).model
        student_cfg = replace(cfg, method="self_training")
        result = _train_classifier(split, taxonomy, student_cfg, phase="main",
                                   teacher=teacher, pretrained=encoder)
        result.teacher = teacher
        result.pretrain_trace = pretrace
        return result
    raise ConfigError(f"method: unknown method {cfg.method!r}")


def _train_classifier(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig,
                      phase: str, teacher=None, pretrained=None) -> TrainResult:
    """The shared supervised loop, with one optional extra term per method.

    The hierarchical part is computed identically for every method so
    that, with its extra term switched off (tau above 1, zero weight),
    a method follows the baseline trajectory exactly.
    """
    method = cfg.method
    needs_unlabeled = method in ("pseudo_label", "fixmatch", "self_training")
    Xl, yl, Xu, yu, w = _pack(split, taxonomy, cfg, needs_unlabeled)
    rng_init, rng_batch, rng_aug = _phase_rngs(cfg.seed, phase)

    model = make_model(cfg.arch, Xl.shape[1], taxonomy.num_leaves,
                       rng_init, hidden=cfg.hidden)
    if pretrained is not None:
        for name in pretrained.rep_param_names:
            model.params[name] = pretrained.params[name].copy()
    opt = SgdMomentum(cfg.lr, cfg.momentum, cfg.weight_decay)

    use_coarse = yu is not None
    use_unlabeled = use_coarse or needs_unlabeled
    trace: list[StepStats] = []

    for step in range(cfg.steps):
        il = rng_batch.integers(0, len(Xl), size=cfg.batch_labeled)
        Xl_b, yl_b = Xl[il], yl[il]
        if use_unlabeled:
            iu = rng_batch.integers(0, len(Xu), size=cfg.batch_coarse)
            Xu_b = Xu[iu]
            yu_b = yu[iu] if use_coarse else None

        if method == "fixmatch":
            Xl_b = augment_weak(Xl_b, cfg.augment.sigma_weak, rng_aug)
            Xu_weak = augment_weak(Xu_b, cfg.augment.sigma_weak, rng_aug)
            Xu_strong = augment_strong(Xu_b, cfg.augment, rng_aug)
        elif cfg.augment_inputs:
            Xl_b = augment_weak(Xl_b, cfg.augment.sigma_weak, rng_aug)
            if use_unlabeled:
                Xu_b = augment_weak(Xu_b, cfg.augment.sigma_weak, rng_aug)

        zl, cache_l = model.forward_cached(Xl_b)
        fine, g_fine = cross_entropy(zl, yl_b)
        grads = model.backward(cache_l, g_fine)

        coarse = 0.0
        extra = 0.0
        mask_rate = 0.0

        if method == "fixmatch":
            z_weak = model.forward(Xu_weak)
            z_strong, cache_u = model.forward_cached(Xu_strong)
            g_u = np.zeros_like(z_strong)
            if use_coarse:
                coarse, g_c = marginalized_cross_entropy(z_strong, yu_b, w)
                g_u = g_u + cfg.unsup_weight * g_c
            extra, g_fm, mask = fixmatch_loss(z_weak, z_strong, cfg.tau)
            g_u = g_u + cfg.consistency_weight * g_fm
            mask_rate = float(mask.mean()) if mask.size else 0.0
            grads = add_grads(grads, model.backward(cache_u, g_u))
        elif use_unlabeled:
            z_u, cache_u = model.forward_cached(Xu_b)
            g_u = None
            if use_coarse:
                coarse, g_c = marginalized_cross_entropy(z_u, yu_b, w)
                g_u = cfg.unsup_weight * g_c
            if method == "pseudo_label":
                extra, g_pl, mask = pseudo_label_loss(z_u, cfg.tau)
                g_pl = cfg.consistency_weight * g_pl
                g_u = g_pl if g_u is None else g_u + g_pl
                mask_rate = float(mask.mean()) if mask.size else 0.0
            elif method == "self_training":
                z_t = teacher.forward(Xu_b)
                extra, g_d, _ = distill_loss(z_u, z_t, cfg.distill_temperature)
                g_d = cfg.distill_weight * g_d
                g_u = g_d if g_u is None else g_u + g_d
            grads = add_grads(grads, model.backward(cache_u, g_u))

        weight = {"pseudo_label": cfg.consistency_weight,
                  "fixmatch": cfg.consistency_weight,
                  "self_training": cfg.distill_weight}.get(method, 0.0)
        total = fine + cfg.unsup_weight * coarse + weight * extra
        opt.step(model.params, grads)
        trace.append(StepStats(step, total, fine, coarse, extra, mask_rate))

    return TrainResult(model=model, trace=trace)


def _pretrain_contrastive(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig):
    """Momentum-contrast pretraining over labeled plus coarse features.

    Two strong views per sample; the key view is encoded by a momentum
    copy, detached, and pushed into the negative queue for later steps.
    Returns the trained query encoder.
    """
    pool = split.labeled + resolve_coarse_pool(split, cfg.coarse_source)
    if not pool:
        raise EmptySplit("contrastive pretraining needs labeled or coarse samples")
    X = features_of(pool)
    rng_init, rng_batch, rng_aug = _phase_rngs(cfg.seed, "pretrain")

    encoder = make_model(cfg.arch, X.shape[1], taxonomy.num_leaves, rng_init,
                         hidden=cfg.hidden)
    head = ProjectionHead(encoder.rep_dim, cfg.emb_dim, rng_init)
    query = ContrastiveModel(encoder, head)
    key_encoder = clone_model(encoder)
    key_head = ProjectionHead(encoder.rep_dim, cfg.emb_dim, rng_init)
    key = ContrastiveModel(key_encoder, key_head)
    for name, arr in key.params.items():
        arr[...] = query.params[name]

    queue = NegativeQueue(cfg.queue_size, cfg.emb_dim)
    opt = SgdMomentum(cfg.lr, cfg.momentum, cfg.weight_decay)
    trace: list[PretrainStats] = []

    for step in range(cfg.pretrain_steps):
        idx = rng_batch.integers(0, len(X), size=cfg.batch_pretrain)
        Xb = X[idx]
        v_q = augment_strong(Xb, cfg.augment, rng_aug)
        v_k = augment_strong(Xb, cfg.augment, rng_aug)
        q, cache = query.embed_cached(v_q)
        k = key.embed(v_k)
        loss, g_q = info_nce_loss(q, k, queue.array, cfg.nce_temperature)
        grads = query.backward(cache, g_q)
        opt.step(query.params, grads)
        momentum_update(key.params, query.params, cfg.key_momentum)
        queue.push(k)
        trace.append(PretrainStats(step, loss, len(queue)))

    return encoder, trace
