#!/usr/bin/env python3
"""Closed-loop benchmark of the hierssl pipeline.

    python3 perfbench/run.py --workload {sweep,methods,inat_scale,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. One client in one process runs iterations back to back, the
next starting only when the previous one has finished, until ``--seconds``
have passed. Every iteration's outputs are checked. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The exit code is 0 only when every check passed. See perfbench/README.md.
"""

import os

# BLAS is pinned to one thread before numpy loads: with OpenBLAS's default
# of one thread per core, repeat timings on a 2-core machine spread by ~30%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "hierssl" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hierssl sources under {SRC}; "
             "run from the root of a hierssl checkout")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
# Traced runs need two traced iterations for the exact-count check.
MIN_TRACED = 2

END_TO_END = (
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("iter_s_tail", "s"),
    ("runs_per_s", "1/s"),
    ("success_rate", "fraction"),
    ("top1", "fraction"),
    ("peak_rss_mb", "MB"),
)


def _fresh_import_s() -> float:
    """Wall time of a new interpreter that imports hierssl.cli and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hierssl.cli"], env=env,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _blas_threads():
    """Threads OpenBLAS is using, asked of the library numpy loaded."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _git_state():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none (not a git checkout)", None

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                              "--untracked-files=no"))


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = _git_state()
    src = hashlib.sha256()
    for path in sorted((SRC / "hierssl").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile at or above
    the median that has at least ten samples beyond it; the maximum (p100)
    when no percentile qualifies, which is the case below 20 samples."""
    s = sorted(samples)
    k = len(s) - 11
    if k < (len(s) - 1) // 2:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


@dataclass
class Iteration:
    index: int
    seconds: float | None = None  # timed wall time; None if it raised first
    top1: float | None = None
    digest: dict | None = None
    error: str | None = None


def run_iteration(workload, index: int, out: Path, reference,
                  tracer=None) -> Iteration:
    rec = Iteration(index)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # Start every iteration with the garbage of the last one collected, so
    # that a full collection does not land in a random iteration.
    gc.collect()
    try:
        t0 = time.perf_counter()
        if tracer is None:
            produced = workload.iterate(out)
        else:
            with tracer.iteration(index):
                produced = workload.iterate(out)
        rec.seconds = time.perf_counter() - t0
        rec.top1, rec.digest = workload.check(out, produced)
        if reference is not None and rec.digest != reference:
            changed = sorted(k for k in rec.digest if rec.digest[k] != reference.get(k))
            raise workloads.CheckFailed(
                f"artifacts differ from the first iteration's: {changed}")
    except Exception as exc:  # a failed iteration is counted, not fatal
        rec.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    status = "ok" if rec.error is None else f"FAILED {rec.error}"
    seconds = "-" if rec.seconds is None else f"{rec.seconds:.4f} s"
    print(f"iteration {index}: {seconds} {status}", flush=True)
    return rec


def run_loop(workload, seconds: float, out: Path, reference=None, first: int = 0,
             tracer=None, min_iterations: int = 1) -> list[Iteration]:
    """Iterations back to back until ``seconds`` have passed."""
    records = []
    t_end = time.perf_counter() + seconds
    while len(records) < min_iterations or time.perf_counter() < t_end:
        rec = run_iteration(workload, first + len(records), out, reference, tracer)
        if reference is None and rec.digest is not None:
            reference = rec.digest
        records.append(rec)
    return records


def _times(records) -> list[float]:
    """Wall times of the successful iterations; of all, if none succeeded."""
    ok = [r.seconds for r in records if r.error is None]
    return ok or [r.seconds or 0.0 for r in records]


def end_to_end(workload, records, setup_s) -> dict:
    ok = [r for r in records if r.error is None]
    times = _times(records)
    tail_s, pct = tail(times)
    print(f"iter_s_tail is p{pct:g} of {len(times)} iterations")
    timed = sum(r.seconds or 0.0 for r in records)
    tops = [r.top1 for r in ok]
    return {
        "setup_s": setup_s,
        "iter_s_p50": statistics.median(times),
        "iter_s_tail": tail_s,
        "runs_per_s": workload.runs_per_iteration * len(ok) / timed if timed else 0.0,
        "success_rate": len(ok) / len(records),
        "top1": statistics.median(tops) if tops else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = fingerprint(args.workload, args.seed)
    print("env " + json.dumps(env), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    # Set-up is a fresh-interpreter import plus the workload's preparation,
    # repeated; setup_s is the median repetition.
    imports, setups = [], []
    for _ in range(SETUP_REPS):
        imports.append(_fresh_import_s())
        t0 = time.perf_counter()
        workload.prepare()
        setups.append(imports[-1] + time.perf_counter() - t0)
    print(f"setup: {' '.join(f'{s:.4f}' for s in setups)} s", flush=True)

    out = work / "iteration"
    try:
        if args.trace:
            return traced_run(workload, args.seconds, work, out, env,
                              statistics.median(imports))
        records = run_loop(workload, args.seconds, out)
        metrics = end_to_end(workload, records, statistics.median(setups))
        return finish(work, records, metrics, dict(END_TO_END), env)
    finally:
        shutil.rmtree(work / "input", ignore_errors=True)


def traced_run(workload, seconds: float, work: Path, out: Path, env: dict,
               import_s: float) -> int:
    """Untraced iterations for half the time, then traced ones."""
    untraced = run_loop(workload, seconds / 2, out)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, seconds / 2, out, untraced[0].digest,
                          len(untraced), tracer, MIN_TRACED)
    finally:
        tracer.uninstall()
    tracer.write_spans(work / "spans.tsv.gz")
    records = untraced + traced
    extra = {"cli.import_s": import_s,
             "trace.overhead_s": (statistics.median(_times(traced))
                                  - statistics.median(_times(untraced)))}
    try:
        metrics, counts = tracer.per_layer(extra)
    except ValueError as exc:
        print(f"exact-count check FAILED: {exc}")
        return finish(work, records, {}, {}, env, ok=False)
    tops = [r.top1 for r in traced]
    counts["top1"] = tops[0]
    print("counts " + json.dumps(counts, sort_keys=True))
    if len(set(tops)) > 1:
        print(f"exact-count check FAILED: top1 differs across traced iterations: {tops}")
        return finish(work, records, metrics, dict(tracing.PER_LAYER), env, ok=False)
    return finish(work, records, metrics, dict(tracing.PER_LAYER), env)


def finish(work: Path, records, values: dict, units: dict, env: dict,
           ok: bool = True) -> int:
    """Print every metric with its unit, then the result line; the exit code."""
    failed = sum(r.error is not None for r in records)
    correct = ok and failed == 0
    print(f"error_rate {failed / len(records):g} "
          f"({failed} of {len(records)} iterations failed)")
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(
        json.dumps({**result, "env": env}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
