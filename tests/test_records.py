"""The shared record layer: every artifact format survives truncation and
byte corruption with a typed error, writes are atomic, and no other
module opens files."""

import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

import hierssl
from hierssl import records
from hierssl.cli import main
from hierssl.config import load_config, write_config
from hierssl.data import GenConfig, generate, load_dataset, save_dataset
from hierssl.errors import HiersslError
from hierssl.evaluate import (
    EvalReport,
    read_confusion,
    read_report,
    read_sweep,
    write_confusion,
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
    """(name, writer, reader) for each of the nine artifact formats."""
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
        ("confusion", lambda p: write_confusion(
            np.arange(4).reshape(2, 2), tax, 2, p), read_confusion),
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
