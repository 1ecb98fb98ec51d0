"""Command line entry points.

Five subcommands cover the pipeline: gen-data writes a dataset plus its
taxonomy, train fits one method over one or more seeds, filter screens
the coarse pool with a trained checkpoint, eval scores a checkpoint on
the test split, and sweep reruns training across supervision levels.

Every artifact is deterministic text: rerunning a command with the same
inputs reproduces the output files byte for byte. Output paths resolve
against the HIERSSL_OUT environment variable when given a relative
--out. Exit codes: 2 for config problems, 3 for data problems and
refused allocations, 4 for training failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .config import PipelineConfig, config_values, read_config, write_config
from .data import DataSplit, generate, load_dataset, save_dataset
from .errors import ConfigError, DataError, EmptySplit, HiersslError, TrainError
from .evaluate import EvalReport, evaluate, sweep_means, write_report, write_sweep
from .model import load_checkpoint, save_checkpoint
from .ood import filter_split, write_filter_report
from .records import value_parser, value_text
from .taxonomy import Taxonomy, load_taxonomy, save_taxonomy
from .trainers import TrainConfig, TrainResult, check_seeds, train_seeds, write_metrics


def _resolve_out(arg: str | None, default_name: str) -> str:
    path = arg or default_name
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("HIERSSL_OUT", "."), path)
    os.makedirs(path, exist_ok=True)
    return path


def _data_paths(args) -> tuple[str, str]:
    if args.data and (args.dataset or args.taxonomy):
        raise ConfigError("--data cannot be combined with --dataset or --taxonomy")
    if args.data:
        return (os.path.join(args.data, "dataset.txt"),
                os.path.join(args.data, "taxonomy.txt"))
    if args.dataset and args.taxonomy:
        return args.dataset, args.taxonomy
    raise ConfigError("need --data DIR or both --dataset and --taxonomy")


def _parse_list(flag: str, text: str, parse) -> list:
    """The comma-joined values of ``flag``; a token that does not parse or
    repeats an earlier value is a ConfigError."""
    values = []
    for tok in text.split(","):
        try:
            value = parse(tok)
        except ValueError:
            raise ConfigError(f"{flag}: cannot parse {tok!r}") from None
        if value in values:
            raise ConfigError(f"{flag}: repeated value {tok!r}")
        values.append(value)
    return values


def _check_jobs(text: str) -> int:
    try:
        jobs = value_parser(int)(text)
    except ValueError:
        raise ConfigError(f"--jobs: cannot parse {text!r}") from None
    if jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {jobs}")
    return jobs


def _chunks(seeds: list[int], jobs: int, cells: int) -> list[list[int]]:
    """A cell's seeds in the fewest lockstep chunks that busy ``jobs`` workers."""
    n = -(-jobs // cells)  # chunks per cell, so that cells * n >= jobs
    return [seeds[i::n] for i in range(min(n, len(seeds)))]


def cmd_gen_data(args, config: PipelineConfig) -> int:
    result = generate(config.gen)
    out = _resolve_out(args.out, "data")
    save_taxonomy(result.in_taxonomy, os.path.join(out, "taxonomy.txt"))
    save_taxonomy(result.taxonomy, os.path.join(out, "taxonomy_full.txt"))
    save_dataset(result.split, result.in_taxonomy, os.path.join(out, "dataset.txt"))
    write_config(config_values(config.gen), os.path.join(out, "config.txt"))
    s = result.split
    print(f"wrote {out}: {result.in_taxonomy.num_leaves} classes, "
          f"{len(s.labeled)} labeled, {len(s.coarse_in)} coarse_in, "
          f"{len(s.coarse_out)} coarse_out, {len(s.test)} test")
    return 0


def _load_inputs(args) -> tuple[DataSplit, Taxonomy]:
    """The split and taxonomy named by --data or --dataset/--taxonomy, read
    once per command; under --jobs the workers receive them pickled."""
    dataset_path, taxonomy_path = _data_paths(args)
    taxonomy = load_taxonomy(taxonomy_path)
    return load_dataset(dataset_path, taxonomy), taxonomy


def _train_cell(split: DataSplit, taxonomy: Taxonomy, cfg: TrainConfig,
                seeds: list[int]) -> list[tuple[int | None, int, TrainResult, EvalReport]]:
    """A cell's seeds in lockstep, each scored on the test split; a worker
    under --jobs."""
    return [(cfg.supervision_level, seed, result, evaluate(result.model, split.test, taxonomy))
            for seed, result in zip(seeds, train_seeds(split, taxonomy, cfg, seeds))]


def _train_cells(args, cells: list[TrainConfig], default_out: str) -> tuple[str, list]:
    """The output directory, and ``_train_cell``'s rows for every cell over
    --seeds, sorted by level (none first), then seed. Every cell's seeds,
    config and inputs are checked before any cell trains. The chunks run in
    --jobs processes; a failure in any chunk fails before any row returns
    and before the output directory is made."""
    seeds = ([cells[0].seed] if args.seeds is None
             else _parse_list("--seeds", args.seeds, value_parser(int)))
    jobs = _check_jobs(args.jobs)
    split, taxonomy = _load_inputs(args)
    if not split.test:
        raise EmptySplit("the test split is empty: no trained model could be scored")
    for cfg in cells:
        check_seeds(split, taxonomy, cfg, seeds)
    tasks = [(split, taxonomy, cfg, chunk)
             for cfg in cells for chunk in _chunks(seeds, jobs, len(cells))]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_train_cell, *zip(*tasks)))
    else:
        chunks = [_train_cell(*task) for task in tasks]
    rows = sorted((row for chunk in chunks for row in chunk),
                  key=lambda r: (-1 if r[0] is None else r[0], r[1]))
    return _resolve_out(args.out, default_out), rows


def cmd_train(args, config: PipelineConfig) -> int:
    base = config.train
    out, rows = _train_cells(args, [base], "runs")
    meta = {"method": base.method, "supervision_level": value_text(base.supervision_level)}
    for _, seed, result, report in rows:
        out_dir = os.path.join(out, f"seed{seed}")
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(result.model, os.path.join(out_dir, "checkpoint.txt"),
                        seed=seed, step=base.steps, meta=meta)
        write_metrics(result.trace, os.path.join(out_dir, "metrics.txt"),
                      pretrain_trace=result.pretrain_trace)
        write_report(report, os.path.join(out_dir, "eval.txt"))
        write_config(config_values(replace(base, seed=seed)),
                     os.path.join(out_dir, "config.txt"))
        print(f"seed {seed} top1 {report.top1}")
    return 0


def cmd_filter(args, config: PipelineConfig) -> int:
    cfg = config.filter
    split, taxonomy = _load_inputs(args)
    model, _ = load_checkpoint(args.checkpoint)
    filtered, stats = filter_split(model, taxonomy, split, cfg)
    out = _resolve_out(args.out, "filtered")
    save_taxonomy(taxonomy, os.path.join(out, "taxonomy.txt"))
    save_dataset(filtered, taxonomy, os.path.join(out, "dataset.txt"))
    write_filter_report(stats, cfg, os.path.join(out, "filter_report.txt"))
    write_config(config_values(cfg), os.path.join(out, "config.txt"))
    print(f"kept {stats.n_kept} of {stats.n_total} coarse samples "
          f"({stats.kept_fraction:.3f}) precision {stats.precision} "
          f"recall {stats.recall}")
    return 0


def cmd_eval(args, config: PipelineConfig) -> int:
    split, taxonomy = _load_inputs(args)
    model, _ = load_checkpoint(args.checkpoint)
    report = evaluate(model, split.test, taxonomy)
    out = _resolve_out(args.out, "eval")
    write_report(report, os.path.join(out, "eval.txt"))
    for level, name, acc in report.levels:
        print(f"level {level} {name} accuracy {acc}")
    print(f"top1 {report.top1}")
    return 0


def cmd_sweep(args, config: PipelineConfig) -> int:
    base = config.train
    levels = _parse_list("--levels", args.levels, value_parser(int | None))
    out, rows = _train_cells(
        args, [replace(base, supervision_level=level) for level in levels], "sweep")
    scores = [(level, seed, report.top1) for level, seed, _, report in rows]
    write_sweep(scores, os.path.join(out, "sweep.txt"))
    for level, mean in sweep_means(scores).items():  # in the rows' level order
        print(f"level {value_text(level)} mean top1 {mean}")
    return 0


def _add_common(p: argparse.ArgumentParser, data: bool = True, cells: bool = False) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", help="output directory (relative paths resolve "
                   "against HIERSSL_OUT)")
    if data:
        p.add_argument("--data", help="directory holding dataset.txt and taxonomy.txt")
        p.add_argument("--dataset", help="dataset file path")
        p.add_argument("--taxonomy", help="taxonomy file path")
    if cells:
        p.add_argument("--seeds", help="comma-joined seed list, e.g. 0,1,2")
        p.add_argument("--jobs", default="1", help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierssl",
        description="taxonomy-aware semi-supervised learning on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p, data=False)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one method over one or more seeds")
    _add_common(p, cells=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("filter", help="screen the coarse pool with a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train across supervision levels")
    _add_common(p, cells=True)
    p.add_argument("--levels", required=True,
                   help="comma-joined levels, e.g. none,1,2,7")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one config drives the pipeline: every command reads and checks
        # all of it, eval too, though eval uses no key
        return args.func(args, read_config(args.config, args.set))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainError as exc:
        print(f"train error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except HiersslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
