"""Span tracing of the hierssl layers, done entirely from the benchmark.

A layer is one module of ``hierssl``. The traced run replaces every public
module-level function of each layer, and the public methods listed in
``METHODS``, by a wrapper that records one span per call: function,
start, end, parent span and iteration. Every namespace that binds a
wrapped function is patched, so the ``load_dataset`` bound in
``hierssl.cli`` records as well as the one in ``hierssl.data``. Nothing
under ``src/`` changes, and ``uninstall`` puts every original back.

Spans stay in memory, in flat arrays, until the run writes them out.
A span's self time is its duration minus the durations of its child
spans; the pipeline runs in one thread, so children never overlap and
no layer ever waits on a queue.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "config", "taxonomy", "data", "model", "losses",
          "trainers", "ood", "evaluate")

# Public methods that do work. Taxonomy's name and index accessors are
# left out on purpose: they are O(1) lookups made once per sample while
# datasets are formatted and parsed, and a span each would cost more
# than the lookup itself. Their time stays in the caller's self time.
METHODS = {
    "taxonomy": ("Taxonomy.ancestor_map",),
    "model": tuple(
        f"{cls}.{fn}"
        for cls in ("LinearModel", "Mlp1Model")
        for fn in ("forward", "forward_cached", "backward",
                   "rep_forward", "rep_backward")
    ) + ("ProjectionHead.forward_cached", "ProjectionHead.backward",
         "ContrastiveModel.embed_cached", "ContrastiveModel.embed",
         "ContrastiveModel.backward", "SgdMomentum.step"),
    "trainers": ("NegativeQueue.push",),
}

# Metric groups: each reports the spans of its functions. A group's call
# count counts only spans whose parent is outside the group, so
# Mlp1Model.forward calling Mlp1Model.forward_cached is one forward pass.
GROUPS = {
    "data.load_dataset": ("data.load_dataset",),
    "data.save_dataset": ("data.save_dataset",),
    "data.labels_at_level": ("data.labels_at_level",),
    "data.generate": ("data.generate",),
    "data.features_of": ("data.features_of",),
    "data.augment": ("data.augment_weak", "data.augment_strong"),
    "taxonomy.ancestor_map": ("taxonomy.Taxonomy.ancestor_map",),
    "taxonomy.marginalize": ("taxonomy.marginalize",),
    "taxonomy.build": ("taxonomy.build_taxonomy", "taxonomy.shaped_taxonomy",
                       "taxonomy.semi_inat_taxonomy"),
    "taxonomy.file_io": ("taxonomy.load_taxonomy", "taxonomy.save_taxonomy"),
    "model.forward": tuple(
        f"model.{m}" for m in METHODS["model"]
        if m.split(".")[1] in ("forward", "forward_cached", "rep_forward",
                               "embed", "embed_cached")
    ),
    "model.backward": tuple(
        f"model.{m}" for m in METHODS["model"]
        if m.split(".")[1] in ("backward", "rep_backward")
    ),
    "model.sgd_step": ("model.SgdMomentum.step",),
    "model.momentum_update": ("model.momentum_update",),
    "model.predict_probs": ("model.predict_probs",),
    "model.checkpoint_io": ("model.save_checkpoint", "model.load_checkpoint"),
    **{f"losses.{fn}": (f"losses.{fn}",)
       for fn in ("softmax", "cross_entropy", "marginalized_cross_entropy",
                  "pseudo_label_loss", "fixmatch_loss", "distill_loss",
                  "info_nce_loss")},
    "trainers.train": ("trainers.train",),
    "trainers.write_metrics": ("trainers.write_metrics",),
    "ood.keep_mask": ("ood.keep_mask",),
    "ood.filter_split": ("ood.filter_split",),
    "evaluate.evaluate": ("evaluate.evaluate",),
    "evaluate.report_io": ("evaluate.write_report", "evaluate.write_sweep"),
    "cli.main": ("cli.main", "cli.build_parser"),
}

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    *((f"{layer}.{kind}", unit) for layer in LAYERS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("data.load_dataset.calls", "count"),
    ("data.load_dataset.self_s", "s"),
    ("data.load_dataset.mb_per_s", "MB/s"),
    ("data.loads_per_command", "ratio"),
    ("data.save_dataset.calls", "count"),
    ("data.save_dataset.self_s", "s"),
    ("data.save_dataset.mb_per_s", "MB/s"),
    ("data.labels_at_level.calls", "count"),
    ("data.labels_at_level.self_s", "s"),
    ("data.generate.self_s", "s"),
    ("data.features_of.self_s", "s"),
    ("data.augment.self_s", "s"),
    ("taxonomy.ancestor_map.calls", "count"),
    ("taxonomy.ancestor_map.self_s", "s"),
    ("taxonomy.marginalize.calls", "count"),
    ("taxonomy.marginalize.self_s", "s"),
    ("taxonomy.build.self_s", "s"),
    ("taxonomy.file_io.self_s", "s"),
    ("model.forward.calls", "count"),
    ("model.forward.self_s", "s"),
    ("model.backward.self_s", "s"),
    ("model.sgd_step.calls", "count"),
    ("model.sgd_step.self_s", "s"),
    ("model.momentum_update.self_s", "s"),
    ("model.predict_probs.self_s", "s"),
    ("model.checkpoint_io.self_s", "s"),
    ("losses.softmax.calls", "count"),
    ("losses.softmax.self_s", "s"),
    ("losses.cross_entropy.self_s", "s"),
    ("losses.marginalized_cross_entropy.self_s", "s"),
    ("losses.pseudo_label_loss.self_s", "s"),
    ("losses.fixmatch_loss.self_s", "s"),
    ("losses.distill_loss.self_s", "s"),
    ("losses.info_nce_loss.self_s", "s"),
    ("losses.info_nce_loss.flops", "flop"),
    ("trainers.train.calls", "count"),
    ("trainers.steps", "count"),
    ("trainers.step_s", "s"),
    ("trainers.gate_pass_rate", "fraction"),
    ("trainers.write_metrics.self_s", "s"),
    ("ood.keep_mask.self_s", "s"),
    ("ood.filter_split.self_s", "s"),
    ("ood.kept_fraction", "fraction"),
    ("evaluate.evaluate.calls", "count"),
    ("evaluate.evaluate.self_s", "s"),
    ("evaluate.samples_per_s", "samples/s"),
    ("evaluate.forwards_per_eval", "ratio"),
    ("evaluate.report_io.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Methods whose steps pass through a confidence gate.
GATED_METHODS = ("pseudo_label", "fixmatch")


def _on_load_dataset(c, bound, result):
    c["load_bytes"] += os.path.getsize(bound["path"])


def _on_save_dataset(c, bound, result):
    c["save_bytes"] += os.path.getsize(bound["path"])


def _on_train(c, bound, result):
    c["steps"] += len(result.trace) + len(result.pretrain_trace or ())
    if bound["cfg"].method in GATED_METHODS:
        c["gated_steps"] += len(result.trace)
        c["gate_pass_sum"] += sum(s.mask_rate for s in result.trace)


def _on_evaluate(c, bound, result):
    c["eval_samples"] += len(bound["samples"])


def _on_filter_split(c, bound, result):
    stats = result[1]
    c["filter_kept"] += stats.n_kept
    c["filter_pool"] += stats.n_total


def _on_info_nce(c, bound, result):
    # Computed, not measured: the two matmul-shaped products of n queries
    # of width d against the positive plus m queued keys, forward (the
    # similarities) and backward (the gradient), at 2 flops per
    # multiply-add. Softmax and normalisation terms are O(n m) and left out.
    n, d = bound["query"].shape
    m = bound["queue"].size // d
    c["nce_flops"] += 4 * n * d * (m + 1)


HOOKS = {
    "data.load_dataset": _on_load_dataset,
    "data.save_dataset": _on_save_dataset,
    "trainers.train": _on_train,
    "evaluate.evaluate": _on_evaluate,
    "ood.filter_split": _on_filter_split,
    "losses.info_nce_loss": _on_info_nce,
}


def _targets():
    """(key, owner, attribute, function) for everything the traced run wraps."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"hierssl.{layer}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                out.append((f"{layer}.{name}", module, name, fn))
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            out.append((f"{layer}.{qual}", cls, meth, cls.__dict__[meth]))
    return out


class Tracer:
    """Records spans while ``active``; installed by patching hierssl in place."""

    def __init__(self):
        self.keys: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.active = False
        # iteration id -> (first span, one past last span, hook counters)
        self.iterations: dict[int, tuple[int, int, dict]] = {}
        self._counters: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        idx = len(self.keys)
        self.keys.append(key)
        hook = HOOKS.get(key)
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.name)
            tracer.name.append(idx)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0)
            tracer.stack.append(sid)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer._counters, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        targets = _targets()
        wrapped = {}
        for key, owner, attr, fn in targets:
            wrapped[id(fn)] = (fn, self._wrap(key, fn))
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)][1])
        missing = {k for ks in GROUPS.values() for k in ks} - set(self.keys)
        if missing:
            self.uninstall()
            raise LookupError(f"traced functions not found: {sorted(missing)}")
        # re-bind every other module global that holds a wrapped function
        for module in [importlib.import_module(f"hierssl.{l}") for l in LAYERS]:
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def iteration(self, it: int):
        """Record the spans of one iteration under id ``it``."""
        first = len(self.name)
        self._counters = defaultdict(float)
        self.stack = [-1]
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.iterations[it] = (first, len(self.name), self._counters)

    def analyse(self, it: int) -> tuple[dict, dict]:
        """(times, counts) of one traced iteration.

        Counts are exact and must repeat across iterations; times are
        seconds of self time, or ratios of a count to a time.
        """
        lo, hi, hooks = self.iterations[it]
        key_group = {k: g for g, ks in GROUPS.items() for k in ks}
        group = [key_group.get(k) for k in self.keys]
        layer = [k.split(".", 1)[0] for k in self.keys]
        name, parent, start, end = self.name, self.parent, self.start, self.end

        dur = [end[i] - start[i] for i in range(lo, hi)]
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= 0:
                child[p - lo] += dur[i - lo]

        fn_calls = defaultdict(int)
        layer_calls = defaultdict(int)
        layer_self = defaultdict(int)
        g_calls = defaultdict(int)
        g_self = defaultdict(int)
        g_incl = defaultdict(int)
        # enclosing evaluate.evaluate / trainers.train span, per span
        in_eval = [False] * (hi - lo)
        in_train = [False] * (hi - lo)
        evals_fwd = train_sgd = 0
        for i in range(lo, hi):
            j = i - lo
            n = name[i]
            p = parent[i]
            g = group[n]
            self_ns = dur[j] - child[j]
            fn_calls[self.keys[n]] += 1
            layer_calls[layer[n]] += 1
            layer_self[layer[n]] += self_ns
            if p >= 0:
                pg = group[name[p]]
                in_eval[j] = in_eval[p - lo] or pg == "evaluate.evaluate"
                in_train[j] = in_train[p - lo] or pg == "trainers.train"
            else:
                pg = None
            if g is None:
                continue
            g_self[g] += self_ns
            if pg != g:
                g_calls[g] += 1
                g_incl[g] += dur[j]
                if g == "model.forward" and in_eval[j]:
                    evals_fwd += 1
                if g == "model.sgd_step" and in_train[j]:
                    train_sgd += 1

        def ratio(a, b):
            return a / b if b else 0.0

        counts = {f"{l}.calls": layer_calls[l] for l in LAYERS}
        counts.update({f"{g}.calls": g_calls[g] for g in GROUPS})
        counts.update({
            "data.loads_per_command": ratio(g_calls["data.load_dataset"],
                                            fn_calls["cli.main"]),
            "losses.info_nce_loss.flops": int(hooks["nce_flops"]),
            "trainers.steps": int(hooks["steps"]),
            "trainers.gate_pass_rate": ratio(hooks["gate_pass_sum"],
                                             hooks["gated_steps"]),
            "trainers.gated_steps": int(hooks["gated_steps"]),
            "ood.kept_fraction": ratio(hooks["filter_kept"], hooks["filter_pool"]),
            "evaluate.forwards_per_eval": ratio(evals_fwd,
                                                g_calls["evaluate.evaluate"]),
            "evaluate.samples": int(hooks["eval_samples"]),
            "trace.spans": hi - lo,
            "functions": dict(sorted(fn_calls.items())),
        })

        sec = 1e-9
        times = {f"{l}.self_s": layer_self[l] * sec for l in LAYERS}
        times.update({f"{g}.self_s": g_self[g] * sec for g in GROUPS})
        times.update({
            "data.load_dataset.mb_per_s": ratio(
                hooks["load_bytes"] / 1e6, g_incl["data.load_dataset"] * sec),
            "data.save_dataset.mb_per_s": ratio(
                hooks["save_bytes"] / 1e6, g_incl["data.save_dataset"] * sec),
            "trainers.step_s": ratio(g_incl["trainers.train"] * sec, train_sgd),
            "evaluate.samples_per_s": ratio(
                hooks["eval_samples"], g_incl["evaluate.evaluate"] * sec),
        })
        return times, counts

    def per_layer(self, extra: dict) -> tuple[dict, dict]:
        """Per-layer metrics over all traced iterations, and their exact counts.

        Times are medians over the traced iterations. Raises ValueError if
        the counts of two traced iterations differ.
        """
        analysed = [self.analyse(it) for it in sorted(self.iterations)]
        counts = analysed[0][1]
        for it, (_, other) in zip(sorted(self.iterations), analysed):
            if other != counts:
                diff = sorted(k for k in counts if counts[k] != other.get(k))
                raise ValueError(f"traced iteration {it} counts differ in {diff}")
        values = {**counts, **extra}
        for key in analysed[0][0]:
            values[key] = statistics.median(t[key] for t, _ in analysed)
        return {m: values[m] for m, _ in PER_LAYER}, counts

    def write_spans(self, path) -> None:
        """All spans as gzip TSV: iteration, span, parent, function, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("iteration\tspan\tparent\tfunction\tstart_ns\tend_ns\n")
            for it, (lo, hi, _) in sorted(self.iterations.items()):
                for i in range(lo, hi):
                    fh.write(f"{it}\t{i}\t{self.parent[i]}\t{self.keys[self.name[i]]}"
                             f"\t{self.start[i]}\t{self.end[i]}\n")
