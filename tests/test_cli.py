"""End-to-end command line flows: artifact layout, byte-identical reruns,
parallel equivalence, exit codes, and output-path resolution."""

from pathlib import Path

import pytest

from hierssl.cli import main
from hierssl.data import load_dataset
from hierssl.evaluate import read_report, read_sweep
from hierssl.model import load_checkpoint
from hierssl.ood import read_filter_report
from hierssl.taxonomy import load_taxonomy
from hierssl.trainers import read_metrics

GEN_ARGS = ["--set", "level_counts=1,2,8", "--set", "dim=8", "--set", "seed=0"]


def gen_into(path: Path) -> None:
    assert main(["gen-data", *GEN_ARGS, "--out", str(path)]) == 0


def train_into(data: Path, out: Path, *extra: str) -> None:
    assert main(["train", "--data", str(data), "--set", "steps=8",
                 "--out", str(out), *extra]) == 0


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {
        str(f.relative_to(path)): f.read_bytes()
        for f in sorted(path.rglob("*")) if f.is_file()
    }


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("data")
    gen_into(d)
    return d


class TestGenData:
    def test_writes_the_four_artifacts(self, data_dir):
        names = {f.name for f in data_dir.iterdir()}
        assert names == {"taxonomy.txt", "taxonomy_full.txt", "dataset.txt",
                         "config.txt"}

    def test_artifacts_are_loadable_and_consistent(self, data_dir):
        tax = load_taxonomy(data_dir / "taxonomy.txt")
        full = load_taxonomy(data_dir / "taxonomy_full.txt")
        split = load_dataset(data_dir / "dataset.txt", tax)
        assert tax.class_counts == (1, 2, 8)
        assert full.num_leaves == 8 + 16
        assert len(split.labeled) == 24
        assert len(split.coarse_out) == 16 * 25

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        gen_into(tmp_path / "again")
        assert dir_bytes(tmp_path / "again") == dir_bytes(data_dir)

    def test_summary_line(self, tmp_path, capsys):
        gen_into(tmp_path / "d")
        out = capsys.readouterr().out
        assert "8 classes" in out and "24 labeled" in out


class TestTrain:
    def test_writes_per_seed_artifacts(self, data_dir, tmp_path, capsys):
        train_into(data_dir, tmp_path / "run")
        files = {f.name for f in (tmp_path / "run" / "seed0").iterdir()}
        assert files == {"checkpoint.txt", "metrics.txt", "eval.txt", "config.txt"}
        assert "seed 0 top1" in capsys.readouterr().out
        model, info = load_checkpoint(tmp_path / "run" / "seed0" / "checkpoint.txt")
        assert info["step"] == 8
        assert info["meta"]["method"] == "baseline"
        trace, _ = read_metrics(tmp_path / "run" / "seed0" / "metrics.txt")
        assert len(trace) == 8
        read_report(tmp_path / "run" / "seed0" / "eval.txt")

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        train_into(data_dir, tmp_path / "a")
        train_into(data_dir, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_parallel_jobs_reproduce_the_sequential_run(self, data_dir, tmp_path):
        train_into(data_dir, tmp_path / "seq", "--seeds", "0,1")
        train_into(data_dir, tmp_path / "par", "--seeds", "0,1", "--jobs", "2")
        assert dir_bytes(tmp_path / "seq") == dir_bytes(tmp_path / "par")

    def test_multiple_seeds_differ_from_each_other(self, data_dir, tmp_path):
        train_into(data_dir, tmp_path / "r", "--seeds", "0,1")
        a = (tmp_path / "r" / "seed0" / "checkpoint.txt").read_bytes()
        b = (tmp_path / "r" / "seed1" / "checkpoint.txt").read_bytes()
        assert a != b

    def test_config_file_with_set_override(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hierssl-config v1\nsteps=5\nmethod=baseline\n")
        assert main(["train", "--data", str(data_dir), "--config", str(cfg),
                     "--set", "steps=7", "--out", str(tmp_path / "run")]) == 0
        trace, _ = read_metrics(tmp_path / "run" / "seed0" / "metrics.txt")
        assert len(trace) == 7  # override wins over the file

    def test_separate_dataset_and_taxonomy_flags(self, data_dir, tmp_path):
        assert main(["train", "--dataset", str(data_dir / "dataset.txt"),
                     "--taxonomy", str(data_dir / "taxonomy.txt"),
                     "--set", "steps=3", "--out", str(tmp_path / "run")]) == 0


class TestExitCodes:
    def test_unknown_config_key_is_2(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir), "--set", "warp=9",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_set_is_2(self, data_dir, tmp_path):
        assert main(["train", "--data", str(data_dir), "--set", "nokey",
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_data_arguments_is_2(self, tmp_path):
        assert main(["train", "--set", "steps=3",
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_dataset_file_is_3(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "absent"),
                     "--set", "steps=3", "--out", str(tmp_path / "x")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_corrupt_dataset_is_3(self, data_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "taxonomy.txt").write_bytes((data_dir / "taxonomy.txt").read_bytes())
        (bad / "dataset.txt").write_text("garbage\n")
        assert main(["train", "--data", str(bad), "--set", "steps=3",
                     "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_is_4(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir),
                     "--set", "steps=5", "--set", "lr=1e160",
                     "--set", "weight_decay=1e160",
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "train error" in capsys.readouterr().err

    def test_invalid_config_value_is_2(self, data_dir, tmp_path):
        assert main(["train", "--data", str(data_dir), "--set", "steps=none",
                     "--out", str(tmp_path / "x")]) == 2

    def test_malformed_checkpoint_shape_is_3(self, data_dir, trained, tmp_path,
                                             capsys):
        bad = tmp_path / "bad.ckpt"
        text = trained.read_text()
        line = next(l for l in text.splitlines() if l.startswith("param W"))
        bad.write_text(text.replace(line, line.rsplit(" ", 1)[0] + " x"))
        assert main(["eval", "--data", str(data_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")]) == 3
        assert "data error: line" in capsys.readouterr().err

    @pytest.mark.parametrize("edits,line", [
        ({"arch": "foo"}, 2),
        ({"dim": "-1"}, 3),
        ({"dim": "x"}, 3),
        ({"arch": "mlp1", "hidden": "0"}, 4),
        ({"hidden": "-1"}, 4),
        ({"classes": "-1"}, 5),
    ], ids=["arch-foo", "dim-neg", "dim-x", "mlp1-hidden-0", "hidden-neg",
            "classes-neg"])
    def test_bad_checkpoint_header_is_3(self, data_dir, trained, tmp_path,
                                        capsys, edits, line):
        lines = trained.read_text().splitlines()
        for i, text in enumerate(lines):
            key = text.split(" ", 1)[0]
            if key in edits:
                lines[i] = f"{key} {edits[key]}"
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--data", str(data_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")]) == 3
        assert f"data error: line {line}:" in capsys.readouterr().err

    def test_unknown_species_in_dataset_is_3(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "taxonomy.txt").write_bytes((data_dir / "taxonomy.txt").read_bytes())
        lines = (data_dir / "dataset.txt").read_text().splitlines()
        parts = lines[3].split()
        parts[3] = "NoSuchSpecies"
        lines[3] = " ".join(parts)
        (bad / "dataset.txt").write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(bad), "--set", "steps=3",
                     "--out", str(tmp_path / "x")]) == 3
        assert "line 4: no species named" in capsys.readouterr().err


class TestReadsDatasetOnce:
    @pytest.fixture
    def loads(self, monkeypatch):
        import hierssl.cli as cli

        calls = []
        real = cli.load_dataset

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counted)
        return calls

    def test_sweep_loads_the_dataset_once(self, data_dir, tmp_path, loads):
        assert main(["sweep", "--data", str(data_dir), "--set", "steps=4",
                     "--levels", "none,2", "--seeds", "0,1", "--jobs", "1",
                     "--out", str(tmp_path / "sw")]) == 0
        assert len(loads) == 1

    def test_multi_seed_train_loads_the_dataset_once(self, data_dir, tmp_path,
                                                     loads):
        train_into(data_dir, tmp_path / "run", "--seeds", "0,1", "--jobs", "1")
        assert len(loads) == 1


class TestOutResolution:
    def test_relative_out_resolves_against_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HIERSSL_OUT", str(tmp_path))
        assert main(["gen-data", *GEN_ARGS, "--out", "nested/data"]) == 0
        assert (tmp_path / "nested" / "data" / "dataset.txt").exists()

    def test_absolute_out_ignores_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HIERSSL_OUT", str(tmp_path / "elsewhere"))
        gen_into(tmp_path / "direct")
        assert (tmp_path / "direct" / "dataset.txt").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_default_name_under_env_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HIERSSL_OUT", str(tmp_path))
        assert main(["gen-data", *GEN_ARGS]) == 0
        assert (tmp_path / "data" / "dataset.txt").exists()


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    train_into(data_dir, out)
    return out / "seed0" / "checkpoint.txt"


class TestFilterCommand:
    def test_filter_writes_screened_dataset(self, data_dir, trained, tmp_path,
                                            capsys):
        out = tmp_path / "filtered"
        assert main(["filter", "--data", str(data_dir),
                     "--checkpoint", str(trained),
                     "--set", "filter_tau=0.3", "--set", "match_level=2",
                     "--out", str(out)]) == 0
        assert "kept" in capsys.readouterr().out
        stats, cfg = read_filter_report(out / "filter_report.txt")
        assert cfg.tau == 0.3
        assert stats.n_total == 200 + 400
        tax = load_taxonomy(out / "taxonomy.txt")
        screened = load_dataset(out / "dataset.txt", tax)
        assert len(screened.coarse_in) == stats.n_kept
        assert screened.coarse_out == ()
        assert len(screened.labeled) == 24  # passes through untouched

    def test_filter_rerun_is_byte_identical(self, data_dir, trained, tmp_path):
        for name in ("a", "b"):
            assert main(["filter", "--data", str(data_dir),
                         "--checkpoint", str(trained),
                         "--out", str(tmp_path / name)]) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_missing_checkpoint_is_3(self, data_dir, tmp_path):
        assert main(["filter", "--data", str(data_dir),
                     "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path / "x")]) == 3


class TestEvalCommand:
    def test_eval_prints_and_writes_per_level_accuracy(self, data_dir, tmp_path,
                                                       capsys):
        train_into(data_dir, tmp_path / "run")
        ckpt = tmp_path / "run" / "seed0" / "checkpoint.txt"
        assert main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 0
        out = capsys.readouterr().out
        assert "level 1" in out and "top1" in out
        report = read_report(tmp_path / "ev" / "eval.txt")
        assert report.n_samples == 96
        assert len(report.levels) == 3


class TestSweepCommand:
    def test_sweep_rows_and_means(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(data_dir), "--set", "steps=8",
                     "--levels", "none,1,2", "--seeds", "0,1",
                     "--jobs", "1", "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.txt")
        assert len(rows) == 6
        assert [r[0] for r in rows] == [None, None, 1, 1, 2, 2]
        assert [r[1] for r in rows] == [0, 1, 0, 1, 0, 1]
        text = capsys.readouterr().out
        assert "level none mean top1" in text
        assert "level 2 mean top1" in text

    def test_parallel_sweep_matches_sequential(self, data_dir, tmp_path):
        common = ["sweep", "--data", str(data_dir), "--set", "steps=8",
                  "--levels", "none,2", "--seeds", "0"]
        assert main([*common, "--jobs", "1", "--out", str(tmp_path / "seq")]) == 0
        assert main([*common, "--jobs", "2", "--out", str(tmp_path / "par")]) == 0
        assert dir_bytes(tmp_path / "seq") == dir_bytes(tmp_path / "par")

    def test_bad_level_token_is_2(self, data_dir, tmp_path):
        assert main(["sweep", "--data", str(data_dir), "--levels", "one",
                     "--out", str(tmp_path / "x")]) == 2
