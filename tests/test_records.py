"""The shared record layer: every artifact format survives truncation and
byte corruption with a typed error, writes are atomic, and no other
module opens files."""

import ast
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

import hierssl
from hierssl import records
from hierssl.cli import main
from hierssl.config import load_config, read_config, write_config
from hierssl.data import GenConfig, generate, load_dataset, save_dataset
from hierssl.errors import ConfigError, DataError, HiersslError, ParseError
from hierssl.evaluate import (
    EvalReport,
    read_report,
    read_sweep,
    write_report,
    write_sweep,
)
from hierssl.model import load_checkpoint, make_model, save_checkpoint
from hierssl.ood import (
    FilterConfig,
    FilterStats,
    read_filter_report,
    write_filter_report,
)
from hierssl.records import write_record
from hierssl.taxonomy import load_taxonomy, save_taxonomy
from hierssl.trainers import PretrainStats, StepStats, read_metrics, write_metrics

TINY = GenConfig(level_counts=(1, 2, 4), dim=3, labeled_per_species=1,
                 coarse_in_per_species=1, coarse_out_per_species=1,
                 test_per_species=1, seed=0)
CONFIG = {"level_counts": "1,2,4", "dim": "3", "labeled_per_species": "1",
          "coarse_in_per_species": "1", "coarse_out_per_species": "1",
          "test_per_species": "1", "seed": "0"}


@pytest.fixture(scope="module")
def tiny():
    return generate(TINY)


def _model(tiny):
    return make_model("mlp1", TINY.dim, tiny.in_taxonomy.num_leaves,
                      np.random.default_rng(0), hidden=2)


def _formats(tiny):
    """(name, writer, reader) for each of the eight artifact formats."""
    tax = tiny.in_taxonomy
    trace = [StepStats(0, 1.5, 1.0, 0.25, 0.25, 0.5), StepStats(1, 1.25, 0.75,
                                                                0.5, 0.0, 1.0)]
    report = EvalReport(n_samples=4, top1=0.25,
                        levels=((1, "L1", 1.0), (2, "L2", 0.5), (3, "L3", 0.25)))
    return [
        ("taxonomy", lambda p: save_taxonomy(tax, p), load_taxonomy),
        ("dataset", lambda p: save_dataset(tiny.split, tax, p),
         lambda p: load_dataset(p, tax)),
        ("checkpoint", lambda p: save_checkpoint(_model(tiny), p, seed=0, step=3,
                                                 meta={"method": "baseline"}),
         load_checkpoint),
        ("metrics", lambda p: write_metrics(trace, p, [PretrainStats(0, 2.5, 4)]),
         read_metrics),
        ("eval", lambda p: write_report(report, p), read_report),
        ("sweep", lambda p: write_sweep([(None, 0, 0.5), (2, 0, 0.75)], p),
         read_sweep),
        ("filter", lambda p: write_filter_report(
            FilterStats(10, 5, 6, 4, 4, 1), FilterConfig(), p), read_filter_report),
        ("config", lambda p: write_config(CONFIG, p), load_config),
    ]


def _corruptions(data: bytes, seed: int):
    """Every line-boundary truncation, then a fixed set of seeded byte flips."""
    for end in (i + 1 for i, b in enumerate(data) if b == ord("\n")):
        yield data[:end]
    yield b""
    rng = random.Random(seed)
    for _ in range(40):
        pos = rng.randrange(len(data))
        byte = rng.choice([0xFF, 0x80, 0xC3, ord("\n"), ord(" "), ord(","),
                           ord("="), ord("-"), ord("x"), ord("9"),
                           data[pos] ^ (1 << rng.randrange(8))])
        yield data[:pos] + bytes([byte]) + data[pos + 1:]


def test_every_reader_fails_typed_on_truncation_and_corruption(tiny, tmp_path):
    for seed, (name, write, read) in enumerate(_formats(tiny)):
        good = tmp_path / f"{name}.txt"
        write(good)
        read(good)
        bad = tmp_path / f"{name}.bad"
        for data in _corruptions(good.read_bytes(), seed):
            bad.write_bytes(data)
            try:
                read(bad)
            except HiersslError:
                pass
            except Exception as exc:  # any other type is the defect under test
                pytest.fail(f"{name}: {type(exc).__name__}: {exc} on {data!r}")


def test_invalid_utf8_reports_its_line(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_bytes(b"hierssl-config v1\nsteps=5\nseed=\xff\n")
    with pytest.raises(HiersslError) as e:
        load_config(p)
    assert e.value.line == 3


@pytest.fixture(scope="module")
def inputs(tiny, tmp_path_factory):
    """A data directory, a checkpoint that fits it and a config file."""
    d = tmp_path_factory.mktemp("inputs")
    save_taxonomy(tiny.in_taxonomy, d / "taxonomy.txt")
    save_dataset(tiny.split, tiny.in_taxonomy, d / "dataset.txt")
    save_checkpoint(_model(tiny), d / "checkpoint.txt", seed=0, step=0)
    write_config(CONFIG, d / "config.txt")
    return d


def _corrupt(data: bytes, how: str) -> bytes:
    if how == "utf8":
        at = data.index(b"\n") + 1
        return data[:at] + b"\xff" + data[at + 1:]
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[1]
    return data[:len(data) - 1 - len(last) // 2]


@pytest.mark.parametrize("how", ["utf8", "cut"])
@pytest.mark.parametrize("name", ["taxonomy.txt", "dataset.txt",
                                  "checkpoint.txt", "config.txt"])
def test_cli_exits_3_on_corrupted_input(inputs, tmp_path, capsys, name, how):
    for f in inputs.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    target = tmp_path / name
    target.write_bytes(_corrupt(target.read_bytes(), how))
    if name == "config.txt":
        argv = ["gen-data", "--config", str(target)]
    else:
        argv = ["eval", "--data", str(tmp_path),
                "--checkpoint", str(tmp_path / "checkpoint.txt")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert "data error" in capsys.readouterr().err


def _strict_writers(tiny):
    """A writer per format whose output has its body lines at known numbers."""
    report = EvalReport(n_samples=4, top1=0.25,
                        levels=((1, "L1", 1.0), (2, "L2", 0.25)))
    return {
        # 2 pretrain, 3 step
        "metrics": lambda p: write_metrics(
            [StepStats(0, 1.5, 1.0, 0.25, 0.25, 0.5)], p, [PretrainStats(0, 2.5, 4)]),
        # 2 n_samples, 3 top1, 4-5 level rows
        "eval": lambda p: write_report(report, p),
        # 2 level none, 3 level 2
        "sweep": lambda p: write_sweep([(None, 0, 0.5), (2, 0, 0.75)], p),
        # 2 tau, 3 match_level, 4-9 counts
        "filter": lambda p: write_filter_report(
            FilterStats(10, 5, 6, 4, 4, 1), FilterConfig(), p),
        # 2-7 arch dim hidden classes seed step, 8 meta, 9 on params
        "checkpoint": lambda p: save_checkpoint(
            _model(tiny), p, seed=0, step=3, meta={"method": "baseline"}),
    }


_READERS = {"metrics": read_metrics, "eval": read_report, "sweep": read_sweep,
            "filter": read_filter_report, "checkpoint": load_checkpoint}

# (format, line number, that line's new text, whether it is inserted there
# instead of replacing the line)
STRICT_CASES = {
    "metrics-step-unknown":
        ("metrics", 3, "step 0 foo 1.0 bar 2.0 coarse 0.25 extra 0.25 mask_rate 0.5", False),
    "metrics-step-repeated":
        ("metrics", 3, "step 0 total 1.5 total 1.0 coarse 0.25 extra 0.25 mask_rate 0.5",
         False),
    "metrics-step-nonfinite":
        ("metrics", 3, "step 0 total nan fine inf coarse 0.25 extra 0.25 mask_rate 0.5",
         False),
    "metrics-pretrain-unknown": ("metrics", 2, "pretrain 0 loss 2.5 bogus 4", False),
    "metrics-pretrain-repeated": ("metrics", 2, "pretrain 0 loss 2.5 loss 2.5", False),
    "metrics-pretrain-nonfinite": ("metrics", 2, "pretrain 0 loss inf queue 4", False),
    "eval-unknown": ("eval", 6, "bogus 9", True),
    "eval-repeated": ("eval", 4, "top1 0.5", True),
    "eval-nonfinite": ("eval", 3, "top1 nan", False),
    "eval-level-nonfinite": ("eval", 5, "level 2 L2 inf", False),
    "eval-level-repeated": ("eval", 5, "level 1 L1 1.0", True),
    "sweep-unknown": ("sweep", 2, "level none seed 0 acc 0.5", False),
    "sweep-repeated": ("sweep", 3, "level 2 seed 0 seed 1 top1 0.75", False),
    "sweep-nan": ("sweep", 2, "level none seed 0 top1 nan", False),
    "sweep-inf": ("sweep", 3, "level 2 seed 0 top1 inf", False),
    "filter-unknown": ("filter", 10, "bogus 9", True),
    "filter-repeated": ("filter", 10, "kept_out 3", True),
    "filter-nonfinite": ("filter", 2, "tau inf", False),
    "checkpoint-unknown": ("checkpoint", 7, "bogus 12", True),
    "checkpoint-repeated": ("checkpoint", 7, "seed 7", True),
    "checkpoint-meta-repeated": ("checkpoint", 9, "meta method other", True),
}


def _edit(path, line: int, text: str, insert: bool) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1:line - 1 + (not insert)] = [text]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_unknown_repeated_or_nonfinite_fields_fail_at_their_line(tiny, tmp_path,
                                                                 case):
    fmt, line, text, insert = STRICT_CASES[case]
    p = tmp_path / f"{fmt}.txt"
    _strict_writers(tiny)[fmt](p)
    _READERS[fmt](p)
    _edit(p, line, text, insert)
    with pytest.raises(ParseError) as e:
        _READERS[fmt](p)
    assert e.value.line == line


@pytest.mark.parametrize("text", ["bogus 12", "seed 7"])
def test_cli_exits_3_on_unknown_or_repeated_checkpoint_key(inputs, tmp_path,
                                                           capsys, text):
    ckpt = tmp_path / "checkpoint.txt"
    ckpt.write_bytes((inputs / "checkpoint.txt").read_bytes())
    _edit(ckpt, 7, text, insert=True)
    assert main(["eval", "--data", str(inputs), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "out")]) == 3
    assert "line 7" in capsys.readouterr().err


# (where, the config key or the line number, the spelling no writer
# produces): a train or gen config value, a line of an artifact, or --seeds
NONCANONICAL = {
    "train-int-underscore": ("train", "steps", "1_000"),
    "train-int-arabic-indic": ("train", "seed", "\u0663"),
    "train-int-plus": ("train", "seed", "+7"),
    "train-int-space": ("train", "seed", " 7"),
    "train-int-leading-zero": ("train", "steps", "007"),
    "train-float-underscore": ("train", "lr", "0.0_1"),
    "train-float-arabic-indic": ("train", "lr", "\u0660.5"),
    "train-float-space": ("train", "lr", "0.5 "),
    "gen-tuple-item-space": ("gen", "level_counts", "1,2, 4"),
    "dataset-dim": ("dataset", 2, "d \u0663"),
    "checkpoint-header": ("checkpoint", 6, "seed +0"),
    "checkpoint-shape": ("checkpoint", 9, "param W1 2 03"),
    "eval-level": ("eval", 4, "level +1 L1 1.0"),
    "seeds": ("seeds", None, "0,+1"),
}


@pytest.mark.parametrize("case", sorted(NONCANONICAL))
def test_only_canonical_spellings_parse(tiny, inputs, tmp_path, capsys, case):
    where, at, text = NONCANONICAL[case]
    if where in ("train", "gen"):
        with pytest.raises(ConfigError, match=at):
            read_config(overrides=[f"{at}={text}"])
    elif where == "seeds":
        assert main(["train", "--data", str(inputs), "--seeds", text,
                     "--out", str(tmp_path / "out")]) == 2
        assert "--seeds: cannot parse '+1'" in capsys.readouterr().err
    else:
        writers = {**_strict_writers(tiny), "dataset": lambda p: save_dataset(
            tiny.split, tiny.in_taxonomy, p)}
        readers = {**_READERS, "dataset": lambda p: load_dataset(p, tiny.in_taxonomy)}
        p = tmp_path / f"{where}.txt"
        writers[where](p)
        readers[where](p)
        _edit(p, at, text, insert=False)
        with pytest.raises(ParseError) as e:
            readers[where](p)
        assert e.value.line == at


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fmt", ["eval", "sweep"])
def test_writers_refuse_nonfinite_floats(tmp_path, fmt, value):
    p = tmp_path / f"{fmt}.txt"
    with pytest.raises(DataError, match="non-finite"):
        if fmt == "eval":
            write_report(EvalReport(1, value, ((1, "A", value),)), p)
        else:
            write_sweep([(None, 0, value)], p)
    assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_success_leaves_only_the_target(self, tmp_path):
        p = tmp_path / "r.txt"
        write_record(p, "hierssl-test v1", ["a 1", "b 2"])
        write_record(p, "hierssl-test v1", [])
        assert os.listdir(tmp_path) == ["r.txt"]
        assert p.read_bytes() == b"hierssl-test v1\n"

    def test_failed_rename_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        p = tmp_path / "r.txt"
        write_record(p, "hierssl-test v1", ["old"])

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(records.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            write_record(p, "hierssl-test v1", ["new"])
        assert p.read_bytes() == b"hierssl-test v1\nold\n"
        assert os.listdir(tmp_path) == ["r.txt"]

    def test_failing_lines_keep_the_old_bytes(self, tmp_path):
        p = tmp_path / "r.txt"
        write_record(p, "hierssl-test v1", ["old"])

        def lines():
            yield "new"
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            write_record(p, "hierssl-test v1", lines())
        assert p.read_bytes() == b"hierssl-test v1\nold\n"
        assert os.listdir(tmp_path) == ["r.txt"]


def test_only_records_opens_files_or_checks_magic():
    package = Path(hierssl.__file__).parent
    for source in sorted(package.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        if source.name == "records.py":
            assert text.count("expected header") == 1
            continue
        assert not re.search(r"\bopen\(", text), source.name
        assert "expected header" not in text, source.name


def _spells_typed_values(node) -> bool:
    """A "none" constant, or a call repr(float(...))."""
    if isinstance(node, ast.Constant):
        return node.value == "none"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "repr" and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "float")


def test_only_records_spells_typed_values():
    package = Path(hierssl.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        spelled = [node for node in ast.walk(tree) if _spells_typed_values(node)]
        if source.name == "records.py":
            assert spelled, "the codec moved out of records.py"
        else:
            assert spelled == [], source.name


def test_one_cli_function_trains():
    # train and sweep share one lockstep worker; a second one would let the
    # two commands drift apart
    tree = ast.parse((Path(hierssl.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id == "train_seeds" for node in ast.walk(fn))]
    assert callers == ["_train_cell"]
