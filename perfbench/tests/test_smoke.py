"""Smoke test of the benchmark: every metric printed, every layer seen.

Runs each workload untraced and traced with ``--seconds 1``, which is one
iteration untraced, or one untraced plus the two traced iterations the
exact-count check needs. It asserts no timing. Takes about two minutes;
run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

ALL = ("sweep", "methods", "inat_scale")
CLI = ("sweep", "inat_scale")  # the workloads that run hierssl.cli commands
METHODS = ("methods",)
INAT = ("inat_scale",)

# Where each per-layer metric must be non-zero. A renamed or unwrapped
# function would otherwise report 0 without any error.
_EXPECTED = {
    ALL: (
        "taxonomy.calls", "taxonomy.self_s", "data.calls", "data.self_s",
        "model.calls", "model.self_s", "losses.calls", "losses.self_s",
        "trainers.calls", "trainers.self_s", "evaluate.calls", "evaluate.self_s",
        "data.labels_at_level.calls", "data.labels_at_level.self_s",
        "data.features_of.self_s",
        "taxonomy.ancestor_map.calls", "taxonomy.ancestor_map.self_s",
        "taxonomy.marginalize.calls", "taxonomy.marginalize.self_s",
        "model.forward.calls", "model.forward.self_s", "model.backward.self_s",
        "model.sgd_step.calls", "model.sgd_step.self_s",
        "model.predict_probs.self_s",
        "losses.softmax.calls", "losses.softmax.self_s",
        "losses.cross_entropy.self_s", "losses.marginalized_cross_entropy.self_s",
        "trainers.train.calls", "trainers.steps", "trainers.step_s",
        "cli.import_s", "trace.spans",
    ),
    CLI: (
        "cli.calls", "cli.self_s", "config.calls", "config.self_s",
        "data.load_dataset.calls", "data.load_dataset.self_s",
        "data.load_dataset.mb_per_s", "data.loads_per_command",
        "taxonomy.build.self_s", "taxonomy.file_io.self_s",
        "evaluate.evaluate.calls", "evaluate.evaluate.self_s",
        "evaluate.samples_per_s", "evaluate.forwards_per_eval",
        "evaluate.report_io.self_s", "cli.main.self_s",
    ),
    METHODS: (
        "data.augment.self_s", "model.momentum_update.self_s",
        "losses.pseudo_label_loss.self_s", "losses.fixmatch_loss.self_s",
        "losses.distill_loss.self_s", "losses.info_nce_loss.self_s",
        "losses.info_nce_loss.flops", "trainers.gate_pass_rate",
    ),
    INAT: (
        "ood.calls", "ood.self_s",
        "data.save_dataset.calls", "data.save_dataset.self_s",
        "data.save_dataset.mb_per_s", "data.generate.self_s",
        "model.checkpoint_io.self_s", "trainers.write_metrics.self_s",
        "ood.keep_mask.self_s", "ood.filter_split.self_s", "ood.kept_fraction",
    ),
    # a difference of two timings: any sign
    (): ("trace.overhead_s",),
}
EXPECTED = {m: ws for ws, ms in _EXPECTED.items() for m in ms}


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def _counts(lines):
    (line,) = [ln for ln in lines if ln.startswith("counts ")]
    return json.loads(line[len("counts "):])


def _assert_metrics(lines, result, spec):
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        value = metrics[m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"metric {m['name']} {value!r} {m['unit']}" in lines


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = _run(workload, 0)
    _assert_metrics(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(ln.startswith("env ") for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(traced, workload):
    _assert_metrics(*traced[workload], SPEC["per_layer"])


def test_every_layer_metric_seen_where_expected(traced):
    assert set(EXPECTED) == {m["name"] for m in SPEC["per_layer"]}
    zero = [(m, w) for m, ws in EXPECTED.items() for w in ws
            if not traced[w][1]["metrics"][m]["value"] > 0]
    assert not zero, f"metrics that read 0 where their layer runs: {zero}"


def test_counts_repeat_across_traced_runs(traced):
    lines, _ = traced["sweep"]
    again, _ = _run("sweep", 1)
    assert _counts(again) == _counts(lines)
