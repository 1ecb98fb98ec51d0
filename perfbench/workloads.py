"""The benchmark's workloads: set-up, one timed iteration, and output checks.

Each workload derives every input from the seed it is given. ``prepare``
is the set-up done before the first timed iteration, ``iterate`` is the
timed work, and ``check`` re-reads what the iteration produced with the
package's own readers. ``check`` returns the iteration's top1 and a
digest of its artifacts; the runner compares the digest with the first
iteration's, because every rerun must reproduce it byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
from pathlib import Path

from hierssl import cli, evaluate, trainers
from hierssl.data import GenConfig, generate, load_dataset
from hierssl.evaluate import read_report, read_sweep, sweep_means
from hierssl.model import load_checkpoint
from hierssl.ood import read_filter_report
from hierssl.taxonomy import load_taxonomy
from hierssl.trainers import read_metrics


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _run_cli(argv: list[str]) -> str:
    """One ``hierssl`` command in this process; returns what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _require(code == 0, f"hierssl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _file_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class Sweep:
    """``hierssl sweep`` over levels none,1,2,7 and three seeds, one process."""

    name = "sweep"
    runs_per_iteration = 12
    levels = (None, 1, 2, 7)

    def __init__(self, seed: int, work: Path):
        self.seeds = (seed, seed + 1, seed + 2)
        self.data = work / "input"

    def prepare(self) -> None:
        _run_cli(["gen-data", "--out", str(self.data)])

    def iterate(self, out: Path) -> str:
        return _run_cli([
            "sweep", "--data", str(self.data), "--levels", "none,1,2,7",
            "--seeds", ",".join(map(str, self.seeds)), "--jobs", "1",
            "--out", str(out),
        ])

    def check(self, out: Path, printed: str) -> tuple[float, dict]:
        rows = read_sweep(out / "sweep.txt")
        _require([(lv, sd) for lv, sd, _ in rows]
                 == [(lv, sd) for lv in self.levels for sd in self.seeds],
                 "sweep.txt does not hold one row per level and seed")
        accs = [acc for _, _, acc in rows]
        _require(all(0.0 <= a <= 1.0 for a in accs), "top1 outside [0, 1]")
        means = sweep_means(rows)
        expect = [f"level {'none' if lv is None else lv} mean top1 {means[lv]}"
                  for lv in self.levels]
        _require(printed.splitlines() == expect,
                 "printed means disagree with sweep.txt")
        return statistics.fmean(accs), _file_digests(out)


class Methods:
    """The L2 column of the method grid: all six methods, one seed, in memory."""

    name = "methods"
    runs_per_iteration = len(trainers.METHODS)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.gen = None

    def prepare(self) -> None:
        self.gen = generate(GenConfig())

    def iterate(self, out: Path) -> list:
        split, taxonomy = self.gen.split, self.gen.in_taxonomy
        results = []
        for method in trainers.METHODS:
            cfg = trainers.default_train_config(
                method, supervision_level=2, seed=self.seed, tau=0.95,
                arch="mlp1", weight_decay=1e-2)
            result = trainers.train(split, taxonomy, cfg)
            results.append((cfg, result,
                            evaluate.top1(result.model, split.test, taxonomy)))
        return results

    def check(self, out: Path, results: list) -> tuple[float, dict]:
        digests = {}
        for cfg, result, acc in results:
            _require(0.0 <= acc <= 1.0, f"{cfg.method}: top1 {acc} outside [0, 1]")
            _require(len(result.trace) == cfg.steps,
                     f"{cfg.method}: {len(result.trace)} steps, expected {cfg.steps}")
            _require(_finite(s.total for s in result.trace),
                     f"{cfg.method}: non-finite training loss")
            pre = result.pretrain_trace or ()
            if cfg.method.startswith("moco"):
                _require(len(pre) == cfg.pretrain_steps and _finite(p.loss for p in pre),
                         f"{cfg.method}: bad pretraining trace")
            h = hashlib.sha256()
            for name in sorted(result.model.params):
                h.update(name.encode())
                h.update(result.model.params[name].tobytes())
            h.update(repr((result.trace, pre, acc)).encode())
            digests[cfg.method] = h.hexdigest()
        return statistics.fmean(acc for _, _, acc in results), digests


class InatScale:
    """gen-data -> train -> eval -> filter at the Semi-iNat level counts."""

    name = "inat_scale"
    runs_per_iteration = 1
    level_counts = (3, 8, 29, 123, 339, 729, 810)
    coarse_per_species = 5
    steps = 100

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def prepare(self) -> None:
        """Nothing: generating the data is part of the timed chain."""

    def iterate(self, out: Path) -> None:
        data, ckpt = out / "data", self._checkpoint(out)
        _run_cli([
            "gen-data", "--out", str(data),
            "--set", "level_counts=" + ",".join(map(str, self.level_counts)),
            "--set", f"coarse_in_per_species={self.coarse_per_species}",
            "--set", f"coarse_out_per_species={self.coarse_per_species}",
            "--set", f"seed={self.seed}",
        ])
        _run_cli(["train", "--data", str(data), "--set", f"steps={self.steps}",
                  "--set", f"seed={self.seed}", "--out", str(out / "runs")])
        _run_cli(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                  "--out", str(out / "eval")])
        _run_cli(["filter", "--data", str(data), "--checkpoint", str(ckpt),
                  "--out", str(out / "filtered")])

    def _checkpoint(self, out: Path) -> Path:
        return out / "runs" / f"seed{self.seed}" / "checkpoint.txt"

    def check(self, out: Path, _) -> tuple[float, dict]:
        leaves = self.level_counts[-1]
        taxonomy = load_taxonomy(out / "data" / "taxonomy.txt")
        _require(taxonomy.class_counts == self.level_counts,
                 f"taxonomy has level counts {taxonomy.class_counts}")
        split = load_dataset(out / "data" / "dataset.txt", taxonomy)
        gen = GenConfig()
        _require((len(split.labeled), len(split.coarse_in), len(split.test))
                 == (leaves * gen.labeled_per_species,
                     leaves * self.coarse_per_species,
                     leaves * gen.test_per_species)
                 and len(split.coarse_out) > 0, "dataset split sizes are wrong")

        model, info = load_checkpoint(self._checkpoint(out))
        _require((model.n_classes, info["seed"], info["step"])
                 == (leaves, self.seed, self.steps), "checkpoint header is wrong")
        trace, _ = read_metrics(self._checkpoint(out).with_name("metrics.txt"))
        _require(len(trace) == self.steps and _finite(s.total for s in trace),
                 "metrics.txt is wrong")
        report = read_report(self._checkpoint(out).with_name("eval.txt"))
        _require(report.n_samples == len(split.test)
                 and len(report.levels) == len(self.level_counts),
                 "train eval.txt is wrong")
        _require(read_report(out / "eval" / "eval.txt") == report,
                 "eval of the saved checkpoint disagrees with train's eval")

        stats, _ = read_filter_report(out / "filtered" / "filter_report.txt")
        kept = load_dataset(out / "filtered" / "dataset.txt",
                            load_taxonomy(out / "filtered" / "taxonomy.txt"))
        _require(stats.n_total == len(split.coarse_in) + len(split.coarse_out)
                 and stats.n_kept == stats.kept_in + stats.kept_out
                 == len(kept.coarse_in) and not kept.coarse_out
                 and len(kept.test) == len(split.test),
                 "filter report disagrees with the filtered dataset")
        return report.top1, _file_digests(out)


WORKLOADS = {w.name: w for w in (Sweep, Methods, InatScale)}
