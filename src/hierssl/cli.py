"""Command line entry points.

Five subcommands cover the pipeline: gen-data writes a dataset plus its
taxonomy, train fits one method over one or more seeds, filter screens
the coarse pool with a trained checkpoint, eval scores a checkpoint on
the test split, and sweep reruns training across supervision levels.

Every artifact is deterministic text: rerunning a command with the same
inputs reproduces the output files byte for byte. Output paths resolve
against the HIERSSL_OUT environment variable when given a relative
--out. Exit codes: 2 for config problems, 3 for data problems, 4 for
training failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .config import (
    filter_config_from,
    filter_config_values,
    gen_config_from,
    gen_config_values,
    load_config,
    parse_overrides,
    train_config_from,
    train_config_values,
    validate_keys,
    write_config,
)
from .data import DataSplit, generate, load_dataset, save_dataset
from .errors import ConfigError, DataError, HiersslError, TrainError
from .evaluate import evaluate, sweep_means, top1, write_report, write_sweep
from .model import load_checkpoint, save_checkpoint
from .ood import filter_split, write_filter_report
from .taxonomy import Taxonomy, load_taxonomy, save_taxonomy
from .trainers import train, write_metrics


def _resolve_out(arg: str | None, default_name: str) -> str:
    path = arg or default_name
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("HIERSSL_OUT", "."), path)
    os.makedirs(path, exist_ok=True)
    return path


def _merged_values(args) -> dict[str, str]:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    values.update(parse_overrides(getattr(args, "set", None)))
    validate_keys(values)
    return values


def _data_paths(args) -> tuple[str, str]:
    if getattr(args, "data", None):
        return (os.path.join(args.data, "dataset.txt"),
                os.path.join(args.data, "taxonomy.txt"))
    if getattr(args, "dataset", None) and getattr(args, "taxonomy", None):
        return args.dataset, args.taxonomy
    raise ConfigError("need --data DIR or both --dataset and --taxonomy")


def _parse_seeds(text: str | None, fallback: int) -> list[int]:
    if not text:
        return [fallback]
    try:
        seeds = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: cannot parse {text!r}") from None
    if not seeds:
        raise ConfigError("--seeds: empty list")
    return seeds


def _parse_levels(text: str) -> list[int | None]:
    levels: list[int | None] = []
    for tok in text.split(","):
        if tok == "none":
            levels.append(None)
        else:
            try:
                levels.append(int(tok))
            except ValueError:
                raise ConfigError(f"--levels: cannot parse {tok!r}") from None
    if not levels:
        raise ConfigError("--levels: empty list")
    return levels


def cmd_gen_data(args) -> int:
    values = _merged_values(args)
    cfg = gen_config_from(values)
    result = generate(cfg)
    out = _resolve_out(args.out, "data")
    save_taxonomy(result.in_taxonomy, os.path.join(out, "taxonomy.txt"))
    save_taxonomy(result.taxonomy, os.path.join(out, "taxonomy_full.txt"))
    save_dataset(result.split, result.in_taxonomy, os.path.join(out, "dataset.txt"))
    write_config(gen_config_values(cfg), os.path.join(out, "config.txt"))
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


def _run_tasks(fn, tasks: list[tuple], jobs: int) -> list:
    """``fn`` over the argument tuples, in worker processes when jobs > 1."""
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]


def _train_one(split: DataSplit, taxonomy: Taxonomy, values: dict[str, str],
               seed: int, out_dir: str) -> tuple[int, float]:
    """One seed end to end; runs in a worker process under --jobs."""
    cfg = replace(train_config_from(values), seed=seed)
    result = train(split, taxonomy, cfg)
    os.makedirs(out_dir, exist_ok=True)
    meta = {"method": cfg.method,
            "supervision_level": "none" if cfg.supervision_level is None
            else str(cfg.supervision_level)}
    save_checkpoint(result.model, os.path.join(out_dir, "checkpoint.txt"),
                    seed=seed, step=cfg.steps, meta=meta)
    write_metrics(result.trace, os.path.join(out_dir, "metrics.txt"),
                  pretrain_trace=result.pretrain_trace)
    report = evaluate(result.model, split.test, taxonomy)
    write_report(report, os.path.join(out_dir, "eval.txt"))
    write_config(train_config_values(cfg), os.path.join(out_dir, "config.txt"))
    return seed, report.top1


def cmd_train(args) -> int:
    values = _merged_values(args)
    base = train_config_from(values)
    seeds = _parse_seeds(args.seeds, base.seed)
    split, taxonomy = _load_inputs(args)
    out = _resolve_out(args.out, "runs")
    tasks = [(split, taxonomy, values, seed, os.path.join(out, f"seed{seed}"))
             for seed in seeds]
    for seed, top in sorted(_run_tasks(_train_one, tasks, args.jobs)):
        print(f"seed {seed} top1 {top}")
    return 0


def cmd_filter(args) -> int:
    cfg = filter_config_from(_merged_values(args))
    split, taxonomy = _load_inputs(args)
    model, _ = load_checkpoint(args.checkpoint)
    filtered, stats = filter_split(model, taxonomy, split, cfg)
    out = _resolve_out(args.out, "filtered")
    save_taxonomy(taxonomy, os.path.join(out, "taxonomy.txt"))
    save_dataset(filtered, taxonomy, os.path.join(out, "dataset.txt"))
    write_filter_report(stats, cfg, os.path.join(out, "filter_report.txt"))
    write_config(filter_config_values(cfg), os.path.join(out, "config.txt"))
    print(f"kept {stats.n_kept} of {stats.n_total} coarse samples "
          f"({stats.kept_fraction:.3f})")
    return 0


def cmd_eval(args) -> int:
    split, taxonomy = _load_inputs(args)
    model, _ = load_checkpoint(args.checkpoint)
    report = evaluate(model, split.test, taxonomy)
    out = _resolve_out(args.out, "eval")
    write_report(report, os.path.join(out, "eval.txt"))
    for level, name, acc in report.levels:
        print(f"level {level} {name} accuracy {acc}")
    print(f"top1 {report.top1}")
    return 0


def _sweep_one(split: DataSplit, taxonomy: Taxonomy, values: dict[str, str],
               level: int | None, seed: int) -> tuple[int | None, int, float]:
    cfg = replace(train_config_from(values), supervision_level=level, seed=seed)
    result = train(split, taxonomy, cfg)
    return level, seed, top1(result.model, split.test, taxonomy)


def cmd_sweep(args) -> int:
    values = _merged_values(args)
    base = train_config_from(values)
    levels = _parse_levels(args.levels)
    seeds = _parse_seeds(args.seeds, base.seed)
    split, taxonomy = _load_inputs(args)
    tasks = [(split, taxonomy, values, level, seed)
             for level in levels for seed in seeds]
    rows = _run_tasks(_sweep_one, tasks, args.jobs)
    rows.sort(key=lambda r: (-1 if r[0] is None else r[0], r[1]))
    out = _resolve_out(args.out, "sweep")
    write_sweep(rows, os.path.join(out, "sweep.txt"))
    for level, mean in sorted(sweep_means(rows).items(),
                              key=lambda kv: -1 if kv[0] is None else kv[0]):
        tag = "none" if level is None else str(level)
        print(f"level {tag} mean top1 {mean}")
    return 0


def _add_common(p: argparse.ArgumentParser, data: bool = True) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", help="output directory (relative paths resolve "
                   "against HIERSSL_OUT)")
    if data:
        p.add_argument("--data", help="directory holding dataset.txt and taxonomy.txt")
        p.add_argument("--dataset", help="dataset file path")
        p.add_argument("--taxonomy", help="taxonomy file path")


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
    _add_common(p)
    p.add_argument("--seeds", help="comma-joined seed list, e.g. 0,1,2")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
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
    _add_common(p)
    p.add_argument("--levels", required=True,
                   help="comma-joined levels, e.g. none,1,2,7")
    p.add_argument("--seeds", help="comma-joined seed list")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel worker processes (default: core count)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainError as exc:
        print(f"train error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except HiersslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
