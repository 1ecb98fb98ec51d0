"""The shared record layer: every artifact format survives truncation and
byte corruption with a typed error, writes are atomic, and no other
module opens files."""

import ast
import base64
import io
import itertools
import os
import random
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from hierssl.model import ARCHS, load_checkpoint, save_checkpoint
from hierssl.ood import (
    FilterConfig,
    FilterStats,
    read_filter_report,
    write_filter_report,
)
from hierssl.records import write_record
from hierssl.taxonomy import load_taxonomy, save_taxonomy
from hierssl.trainers import PretrainStats, StepStats, read_metrics, write_metrics

import _reference

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
    return ARCHS["mlp1"](TINY.dim, tiny.in_taxonomy.num_leaves,
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
    comments = b"".join(b"# %097d\n" % i for i in range(1000))  # 100 kB
    for data, line in [(b"hierssl-config v1\nsteps=5\nseed=\xff\n", 3),
                       (b"hierssl-config v1\nsteps=5\n" + comments + b"seed=1\xff\n",
                        1003)]:
        p.write_bytes(data)
        with pytest.raises(HiersslError) as e:
            load_config(p)
        assert e.value.line == line


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


# the W1 data line (hidden 2 x dim 3) of the strict writers' checkpoint, with a NaN
NAN_W1 = base64.b64encode(np.array([np.nan] + [0.0] * 5, "<f8").tobytes()).decode()
# the strict writers' W1 data line with "!!*" inserted: characters outside the
# base64 alphabet, which a lax decoder skips to return the original values
W1 = base64.b64encode(ARCHS["mlp1"](TINY.dim, TINY.level_counts[-1],
                                    np.random.default_rng(0), hidden=2).params["W1"]
                      .astype("<f8").tobytes()).decode()
SPLICED_W1 = W1[:8] + "!!*" + W1[8:]

_READERS = {"metrics": read_metrics, "eval": read_report, "sweep": read_sweep,
            "filter": read_filter_report, "checkpoint": load_checkpoint}

# (format, line number, that line's new text, whether it is inserted there
# instead of replacing the line); a text of n lines replaces n lines
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
    "sweep-repeated-row": ("sweep", 3, "level none seed 0 top1 0.25", True),
    "filter-unknown": ("filter", 10, "bogus 9", True),
    "filter-repeated": ("filter", 10, "kept_out 3", True),
    "filter-nonfinite": ("filter", 2, "tau inf", False),
    "checkpoint-unknown": ("checkpoint", 7, "bogus 12", True),
    "checkpoint-repeated": ("checkpoint", 7, "seed 7", True),
    "checkpoint-meta-repeated": ("checkpoint", 9, "meta method other", True),
    "checkpoint-param-nonfinite": ("checkpoint", 10, NAN_W1, False),
    "checkpoint-param-not-base64": ("checkpoint", 10, SPLICED_W1, False),
    # the writer's lines out of its order
    "metrics-step-keys-swapped":
        ("metrics", 3, "step 0 fine 1.0 total 1.5 coarse 0.25 extra 0.25 mask_rate 0.5", False),
    "eval-header-swapped": ("eval", 2, "top1 0.25\nn_samples 4", False),
    "filter-counts-swapped": ("filter", 6, "n_out 4\nn_in 6", False),
    "checkpoint-sizes-swapped": ("checkpoint", 3, "hidden 2\ndim 3", False),
    "checkpoint-meta-unsorted": ("checkpoint", 9, "meta a x", True),
    # values that no writer writes
    "metrics-step-misnumbered":
        ("metrics", 3, "step 5 total 1.5 fine 1.0 coarse 0.25 extra 0.25 mask_rate 0.5", False),
    "metrics-pretrain-misnumbered": ("metrics", 2, "pretrain 1 loss 2.5 queue 4", False),
    "metrics-pretrain-after-step": ("metrics", 4, "pretrain 1 loss 2.5 queue 4", True),
    "metrics-mask-rate-above-1":
        ("metrics", 3, "step 0 total 1.5 fine 1.0 coarse 0.25 extra 0.25 mask_rate 1.5", False),
    "eval-n-samples-0": ("eval", 2, "n_samples 0", False),
    "eval-top1-negative": ("eval", 3, "top1 -0.25", False),
    "eval-level-above-1": ("eval", 4, "level 1 L1 1.5", False),
    "eval-top1-not-leaf": ("eval", 5, "level 2 L2 0.5", False),
    "sweep-top1-above-1": ("sweep", 2, "level none seed 0 top1 1.5", False),
    "sweep-level-0": ("sweep", 3, "level 0 seed 0 top1 0.75", False),
    "sweep-seed-negative": ("sweep", 3, "level 2 seed -1 top1 0.75", False),
    "filter-config-invalid": ("filter", 3, "match_level 0", False),
    "filter-count-negative": ("filter", 4, "n_total -1", False),
    "filter-in-out-not-total": ("filter", 7, "n_out 5", False),
    "filter-kept-above-pool": ("filter", 8, "kept_in 9", False),
    "filter-kept-not-n-kept": ("filter", 9, "kept_out 2", False),
}


def _edit(path, line: int, text: str, insert: bool) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    new = text.split("\n")
    lines[line - 1:line - 1 + (0 if insert else len(new))] = new
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
    "taxonomy-padded-name": ("taxonomy", 3, "L1_00 , L2_00 , L3_00"),
    "taxonomy-padded-level": ("taxonomy", 2, "L1, L2, L3"),
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
            tiny.split, tiny.in_taxonomy, p),
            "taxonomy": lambda p: save_taxonomy(tiny.in_taxonomy, p)}
        readers = {**_READERS, "dataset": lambda p: load_dataset(p, tiny.in_taxonomy),
                   "taxonomy": load_taxonomy}
        p = tmp_path / f"{where}.txt"
        writers[where](p)
        readers[where](p)
        _edit(p, at, text, insert=False)
        with pytest.raises(ParseError) as e:
            readers[where](p)
        assert e.value.line == at


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fmt", ["eval", "sweep", "checkpoint"])
def test_writers_refuse_nonfinite_floats(tmp_path, fmt, value):
    p = tmp_path / f"{fmt}.txt"
    with pytest.raises(DataError, match="non-finite"):
        if fmt == "eval":
            write_report(EvalReport(1, value, ((1, "A", value),)), p)
        elif fmt == "sweep":
            write_sweep([(None, 0, value)], p)
        else:
            model = ARCHS["mlp1"](3, 2, np.random.default_rng(0), hidden=2)
            model.params["W2"][1, 0] = value
            save_checkpoint(model, p, seed=0, step=0)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([-0.0, 5e-324, -1e-310, 1.7976931348623157e308, -1.7976931348623157e308])
def test_float64_codec_round_trips_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    [text] = records.float64_texts(x.reshape(1, -1))
    raw = records.float64_bytes([text], len(x))
    assert raw == x.astype("<f8").tobytes()
    assert records.float64_texts(np.frombuffer(raw, "<f8").reshape(1, -1)) == [text]


BASE64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
NOT_BASE64 = [c for c in map(chr, range(128)) if c not in BASE64 + "="]
# the start of each fault's message: a wrong width, a character outside the
# alphabet, '=' other than the padding, set pad bits
FIELD_FAULT = (r"^(expected \d+ base64 characters for \d+ float64 values, got \d+$"
               r"|.+ is not a base64 character$|'=' must be exactly|the pad bits)")


@st.composite
def corrupted_float64_fields(draw):
    """The field of a random row with one corruption: a character replaced
    by, or one inserted that is, an ASCII character outside the base64
    alphabet, or a padding bit set. Returns it with the row length."""
    count = draw(st.integers(1, 40))
    values = draw(st.lists(st.floats(), min_size=count, max_size=count))
    [text] = records.float64_texts([values])
    pad = text.count("=")  # 2 padding bits per "="
    how = draw(st.sampled_from(["replace", "insert", "padding"][:3 if pad else 2]))
    if how == "padding":
        at = len(text) - pad - 1
        bit = 1 << draw(st.integers(0, 2 * pad - 1))
        char = BASE64[BASE64.index(text[at]) | bit]
        return text[:at] + char + text[at + 1:], count
    at = draw(st.integers(0, len(text) - (how == "replace")))
    char = draw(st.sampled_from(NOT_BASE64))
    return text[:at] + char + text[at + (how == "replace"):], count


@settings(max_examples=300, deadline=None)
@given(corrupted_float64_fields())
def test_float64_codec_refuses_a_corrupted_field(case):
    text, count = case
    with pytest.raises(ValueError, match=FIELD_FAULT):
        records.float64_bytes([text], count)


WIDTHS = [0, 1, 2, 3, 8, 32]  # 8 * d % 3 is 0, 2, 1, 0, 1 and 1


@st.composite
def float64_blocks(draw):
    """A row width and the fields of a few rows of it, each but the first
    perhaps with one corruption, so a block is often all valid."""
    count = draw(st.sampled_from(WIDTHS))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.floats(), min_size=count, max_size=count),
                         min_size=n, max_size=n))
    texts = records.float64_texts(np.reshape(rows, (n, count)))
    for i in range(1, n):
        text = texts[i]
        how = draw(st.sampled_from(["none", "stray", "insert", "move-pad", "non-ascii",
                                    "space", "fill-pad", "pad-bit", "short", "extra"]))
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        if how == "stray" and text:
            text = text[:at] + draw(st.sampled_from(NOT_BASE64 + list(BASE64))) + text[at + 1:]
        elif how == "insert":
            text = text[:at] + draw(st.sampled_from(NOT_BASE64 + ["="])) + text[at:]
        elif how == "move-pad" and "=" in text:
            body = text.rstrip("=")
            text = body[:at] + "=" + body[at:] + "=" * (len(text) - len(body) - 1)
        elif how == "non-ascii" and text:
            text = text[:at] + draw(st.sampled_from("é\u0663\udcff")) + text[at + 1:]
        elif how == "space" and text:
            text = text[:at] + draw(st.sampled_from(" \t\x0b\x0c")) + text[at + 1:]
        elif how == "fill-pad" and "=" in text:
            text = text[:-1] + draw(st.sampled_from(BASE64))
        elif how == "pad-bit" and "=" in text:
            pad = text.count("=")
            digit = len(text) - pad - 1
            bit = 1 << draw(st.integers(0, 2 * pad - 1))
            text = text[:digit] + BASE64[BASE64.index(text[digit]) | bit] + text[digit + 1:]
        elif how == "short" and text:
            text = text[:at]
        elif how == "extra":
            text = text + records.float64_texts([[1.0]])[0]
        texts[i] = text
    return texts, count


@settings(max_examples=400, deadline=None)
@given(float64_blocks())
def test_block_decoder_accepts_what_the_row_decoder_accepts(case):
    # the row decoder is the literal rule of tests/_reference.py
    texts, count = case
    try:
        joined = records.float64_bytes(texts, count)
    except ValueError as exc:
        assert re.match(FIELD_FAULT, str(exc)), exc
        joined = None
    assert joined == _reference.float64_bytes(texts, count)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WIDTHS).flatmap(lambda d: st.lists(
    st.lists(st.floats(), min_size=d, max_size=d), max_size=5).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), d))))
def test_block_encoder_is_base64_row_by_row(rows):
    assert records.float64_texts(rows) == [base64.b64encode(row.astype("<f8").tobytes()).decode()
                                           for row in rows]


# fault -> (an edit that puts it in a field of 8 values, 88 characters
# ending in '==', and the message that names it)
FIELD_FAULTS = {
    "short": (lambda f: f[:-4],
              "expected 88 base64 characters for 8 float64 values, got 84"),
    "long": (lambda f: f + "AAAA",
             "expected 88 base64 characters for 8 float64 values, got 92"),
    "stray-ascii": (lambda f: f[:5] + "*" + f[6:], "'*' is not a base64 character"),
    "non-ascii": (lambda f: f[:5] + "\u00e9" + f[6:], "'\u00e9' is not a base64 character"),
    "moved-pad": (lambda f: f[:5] + "=" + f[5:-1], "'=' must be exactly the field's padding"),
    "pad-bit": (lambda f: f[:-3] + BASE64[BASE64.index(f[-3]) ^ 1] + f[-2:],
                "the pad bits of the field's last digit are set"),
}


@pytest.mark.parametrize("fault", sorted(FIELD_FAULTS))
@pytest.mark.parametrize("fmt", ["dataset", "checkpoint"])
def test_a_bad_float64_field_fails_at_its_line_naming_its_fault(tiny, tmp_path, fmt, fault):
    edit, message = FIELD_FAULTS[fault]
    p = tmp_path / f"{fmt}.txt"
    if fmt == "dataset":  # the second row, 8 features wide
        wide = generate(GenConfig(level_counts=(1, 2, 4), dim=8, seed=0))
        save_dataset(wide.split, wide.in_taxonomy, p)
        read, line = (lambda p: load_dataset(p, wide.in_taxonomy)), 5
    else:  # the data of W2, 4 classes x 2 hidden
        _strict_writers(tiny)["checkpoint"](p)
        read, line = load_checkpoint, 14
    parts = p.read_text(encoding="utf-8").splitlines()[line - 1].split(" ")
    parts[-1] = edit(parts[-1])
    _edit(p, line, " ".join(parts), insert=False)
    with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$"):
        read(p)


def _per_line_reader(data: bytes):
    """The reader that decodes one line per readline, as a reference: every
    (line number, text), then the (line, message) of a UTF-8 fault or None."""
    out, line = [], 0
    for raw in io.BytesIO(data):
        try:
            texts = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            return out, (line + 1, f"line {line + 1}: not UTF-8: {exc.reason}")
        for line, text in enumerate(texts, start=line + 1):
            out.append((line, text))
    return out, None


def _chunked_reader(data: bytes, how: str):
    """``_Body``'s lines of ``data`` as ``_per_line_reader`` returns them: all
    of them, line by line or a few lines and then the rest by ``pieces``, or
    only the non-blank pairs that iterating the body gives."""
    body = records._Body(io.BytesIO(data))
    out = []
    try:
        if how == "non-blank":
            out.extend(body)
        else:
            for text in itertools.islice(body.lines, None if how == "all" else 3):
                out.append((body.line, text))
            for piece in body.pieces(7):  # nothing left after "all"
                out.extend(piece)
    except ParseError as exc:
        return out, (exc.line, str(exc))
    return out, None


# every str.splitlines boundary, characters that are not one, and bytes that
# are not UTF-8
LINE_PIECES = [b"a", b"bc", b" ", b"\t", b"\x1f", "\u00e9".encode(), "\u20ac".encode(),
               "\U0001f600".encode(), b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c",
               b"\x1d", b"\x1e", "\x85".encode(), "\u2028".encode(), "\u2029".encode(),
               b"\n\n", b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES) | st.sampled_from([b"x" * 5000, b"y" * 4095]),
                max_size=40).map(b"".join),
       st.sampled_from([1, 2, 3, 5, 8, records._Body.chunk]))
@example(b"x" * 4095 + "\u20ac".encode() + b"\n\xff\n", records._Body.chunk)
@example(b"a\n" + b"x" * 4093 + b"\xe2\x82\n", records._Body.chunk)
@example(b"a\nb\nc\nd\n\xff\ne\n", records._Body.chunk)  # a fault read ahead of pieces
def test_chunked_reader_matches_a_per_line_reader(data, chunk):
    lines, fault = _per_line_reader(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records._Body, "chunk", chunk)
        assert _chunked_reader(data, "all") == (lines, fault)
        assert _chunked_reader(data, "pieces") == (lines, fault)
        assert _chunked_reader(data, "non-blank") == (
            [(n, text) for n, text in lines if text.strip()], fault)


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


def test_only_records_imports_a_base64_codec():
    # the float64 codec has one home: a second decoder could accept what
    # the writer never writes
    package = Path(hierssl.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        codecs = modules & {"base64", "binascii"}
        if source.name == "records.py":
            assert codecs, "the codec moved out of records.py"
        else:
            assert codecs == set(), source.name


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
