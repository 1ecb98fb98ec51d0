"""The benchmark's span tracer wraps hierssl functions by name: it must
still find every function it traces, and must put every original back."""

import importlib
import importlib.util
from pathlib import Path

from hierssl.data import GenConfig, generate
from hierssl.trainers import default_train_config, train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing) -> dict:
    """Every module global of the traced layers, and every traced method."""
    out = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"hierssl.{layer}")
        out.update({(layer, name): value for name, value in vars(module).items()})
        for qual in tracing.METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            out[(layer, qual)] = getattr(module, cls_name).__dict__[meth]
    return out


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()  # raises LookupError if a traced name is gone
    try:
        during = bindings(tracing)
        assert during[("data", "features_of")] is not before[("data", "features_of")]
        assert during[("cli", "load_dataset")] is not before[("cli", "load_dataset")]
    finally:
        tracer.uninstall()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_sees_every_terms_loss():
    # each extra term calls its loss by the module-global name the tracer
    # rebinds; a loss reached another way would record no span of its own
    gen = generate(GenConfig(level_counts=(1, 2, 8), dim=8, seed=0))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for it, method in enumerate(("pseudo_label", "fixmatch", "self_training")):
            with tracer.iteration(it):
                train(gen.split, gen.in_taxonomy, default_train_config(method, steps=2))
    finally:
        tracer.uninstall()
    seen = {it: {tracer.keys[tracer.name[i]] for i in range(lo, hi)}
            for it, (lo, hi, _) in tracer.iterations.items()}
    assert "losses.pseudo_label_loss" in seen[0]
    assert "losses.fixmatch_loss" in seen[1]
    assert "losses.distill_loss" in seen[2]
