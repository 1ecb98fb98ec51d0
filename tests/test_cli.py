"""End-to-end command line flows: artifact layout, byte-identical reruns,
parallel equivalence, exit codes, and output-path resolution."""

import hashlib
from pathlib import Path

import pytest

from hierssl.cli import _chunks, build_parser, main
from hierssl.config import config_values, load_config, write_config
from hierssl.data import GenConfig, load_dataset
from hierssl.evaluate import read_report, read_sweep, top1
from hierssl.model import load_checkpoint
from hierssl.ood import FilterConfig, filter_split, read_filter_report
from hierssl.taxonomy import load_taxonomy
from hierssl.trainers import TrainConfig, default_train_config, read_metrics, train

from _reference import content_digest

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


@pytest.fixture(scope="module")
def default_data_dir(tmp_path_factory) -> Path:
    """The default 7-level dataset."""
    d = tmp_path_factory.mktemp("default_data")
    assert main(["gen-data", "--out", str(d)]) == 0
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

    def test_seed_chunks_reproduce_the_lone_runs(self, data_dir, tmp_path):
        train_into(data_dir, tmp_path / "lock", "--seeds", "0,1,2", "--jobs", "1")
        train_into(data_dir, tmp_path / "chunks", "--seeds", "0,1,2", "--jobs", "2")
        for seed in "012":
            train_into(data_dir, tmp_path / "lone", "--set", f"seed={seed}")
        assert dir_bytes(tmp_path / "lock") == dir_bytes(tmp_path / "lone")
        assert dir_bytes(tmp_path / "chunks") == dir_bytes(tmp_path / "lone")

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

    @pytest.mark.parametrize("argv", [
        ["train", "--set", "steps=3", "--jobs", "0"],
        ["sweep", "--set", "steps=3", "--levels", "none", "--jobs", "-2"],
    ], ids=["train-jobs-0", "sweep-jobs-neg"])
    def test_jobs_below_one_is_2(self, data_dir, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--data", str(data_dir), "--out", str(out)]) == 2
        assert "config error: --jobs: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("token", ["٢", "+2", "02"])
    def test_noncanonical_jobs_is_2(self, data_dir, tmp_path, capsys, command,
                                    token):
        # --jobs also sets how the seeds are chunked, so it parses strictly
        out = tmp_path / "x"
        argv = [command, "--set", "steps=3", "--jobs", token,
                "--data", str(data_dir), "--out", str(out)]
        if command == "sweep":
            argv += ["--levels", "none"]
        assert main(argv) == 2
        assert "config error: --jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
    def test_divergent_chunk_writes_no_seed_directory(self, data_dir, tmp_path,
                                                      capsys, jobs):
        # one lockstep chunk at --jobs 1, one chunk per seed at --jobs 2:
        # either way no seed is written before every chunk has finished
        out = tmp_path / "x"
        code = main(["train", "--data", str(data_dir), "--seeds", "0,1",
                     "--set", "steps=5", "--set", "lr=1e160",
                     "--set", "weight_decay=1e160", "--jobs", jobs,
                     "--out", str(out)])
        assert code == 4
        assert "train error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_on_the_last_step_is_4(self, data_dir, tmp_path, capsys):
        # the one step trains without a non-finite gradient, but the model it
        # leaves has overflowing logits, which scoring it refuses
        out = tmp_path / "x"
        assert main(["train", "--data", str(data_dir), "--set", "steps=1",
                     "--set", "lr=1e308", "--out", str(out)]) == 4
        assert "non-finite values in logits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_contrastive_similarities_are_4(self, data_dir, tmp_path,
                                                        capsys):
        # a temperature this small scales a similarity to infinity, which the
        # InfoNCE softmax would turn into a NaN loss and a zero gradient
        out = tmp_path / "x"
        assert main(["train", "--data", str(data_dir), "--set", "method=moco",
                     "--set", "pretrain_steps=3", "--set", "steps=3",
                     "--set", "nce_temperature=1e-320", "--out", str(out)]) == 4
        assert "non-finite values in scaled similarities" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_loss_weight_is_4(self, data_dir, tmp_path, capsys):
        # the weighted consistency loss overflows in the logged total while
        # every gradient stays finite; the run fails before anything is written
        out = tmp_path / "x"
        assert main(["train", "--data", str(data_dir), "--set", "method=fixmatch",
                     "--set", "consistency_weight=1e308", "--set", "steps=20",
                     "--out", str(out)]) == 4
        assert "non-finite training loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sets, message", [
        (["long_tail_exponent=-1000"], "long_tail_exponent: must be >= 0"),
        (["branching=2,3,3"], "unknown config keys: branching"),
        (["seed=1", "seed=2"], "override: duplicate key 'seed'"),
    ], ids=["negative-long-tail", "branching", "repeated-set"])
    def test_gen_data_bad_input_is_2(self, tmp_path, capsys, sets, message):
        out = tmp_path / "x"
        argv = [arg for pair in sets for arg in ("--set", pair)]
        assert main(["gen-data", *argv, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_branching_is_2(self, tmp_path, capsys):
        # a gen-data config.txt written while `branching` was a key
        config = tmp_path / "config.txt"
        write_config({**config_values(GenConfig()), "branching": "none"}, config)
        out = tmp_path / "x"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
        assert "config error: unknown config keys: branching" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_features_are_3(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen-data", *GEN_ARGS, "--set", "sigma_x=1e308",
                     "--out", str(out)]) == 3
        assert "non-finite feature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--set", "steps=3", "--seeds="],
        ["sweep", "--set", "steps=3", "--levels", "2", "--seeds="],
    ], ids=["train", "sweep"])
    def test_empty_seeds_is_2(self, data_dir, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--data", str(data_dir), "--out", str(out)]) == 2
        assert "config error: --seeds: cannot parse ''" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "filter"])
    def test_feature_width_mismatch_is_3(self, trained, tmp_path, capsys,
                                         command):
        wide = tmp_path / "wide"
        assert main(["gen-data", "--set", "level_counts=1,2,8", "--set",
                     "dim=16", "--out", str(wide)]) == 0
        assert main([command, "--data", str(wide), "--checkpoint", str(trained),
                     "--out", str(tmp_path / "x")]) == 3
        assert "features have width 16 but the model expects 8" in \
            capsys.readouterr().err

    def test_filter_of_dataset_without_samples_is_3(self, data_dir, trained,
                                                    tmp_path, capsys):
        from hierssl.data import DataSplit, save_dataset

        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "taxonomy.txt").write_bytes((data_dir / "taxonomy.txt").read_bytes())
        tax = load_taxonomy(empty / "taxonomy.txt")
        none = load_dataset(data_dir / "dataset.txt", tax).test.take([])
        save_dataset(DataSplit(none, none, none, none), tax, empty / "dataset.txt")
        assert main(["filter", "--data", str(empty), "--checkpoint", str(trained),
                     "--out", str(tmp_path / "x")]) == 3
        assert "features have width 0 but the model expects 8" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("gen-data", "sigma_x", "nan"),
        ("train", "tau", "nan"),
        ("filter", "filter_tau", "nan"),
        ("train", "lr", "inf"),
    ], ids=["gen-sigma_x-nan", "train-tau-nan", "filter-tau-nan", "train-lr-inf"])
    def test_non_finite_config_float_is_2(self, data_dir, trained, tmp_path,
                                          capsys, command, key, value):
        argv = [command, "--set", f"{key}={value}"]
        if command == "train":
            argv += ["--set", "method=pseudo_label", "--set", "steps=3"]
        if command != "gen-data":
            argv += ["--data", str(data_dir)]
        if command == "filter":
            argv += ["--checkpoint", str(trained)]
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"config error: {key}: cannot parse value '{value}'" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dataset", "--taxonomy"])
    def test_data_with_dataset_or_taxonomy_is_2(self, data_dir, trained,
                                                tmp_path, capsys, flag):
        assert main(["eval", "--data", str(data_dir), flag,
                     str(tmp_path / "absent.txt"), "--checkpoint", str(trained),
                     "--out", str(tmp_path / "x")]) == 2
        assert "--data cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--seeds", "0,0"],
        ["sweep", "--levels", "2,2"],
        ["sweep", "--levels", "none,none"],
    ], ids=["train-seeds", "sweep-levels", "sweep-levels-none"])
    def test_repeated_seed_or_level_is_2(self, data_dir, tmp_path, capsys,
                                         argv):
        out = tmp_path / "x"
        assert main([*argv, "--set", "steps=3", "--data", str(data_dir),
                     "--out", str(out)]) == 2
        assert "repeated value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names", ["a b,c,d", "a,,d", "a,b", "a,a,b"],
                             ids=["space", "empty", "wrong-count", "repeated"])
    def test_bad_level_names_are_2(self, tmp_path, capsys, names):
        out = tmp_path / "x"
        assert main(["gen-data", *GEN_ARGS, "--set", f"level_names={names}",
                     "--out", str(out)]) == 2
        assert "config error: level_names" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_value_is_2(self, data_dir, tmp_path):
        assert main(["train", "--data", str(data_dir), "--set", "steps=none",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_level_beyond_the_taxonomy_is_2(self, data_dir, tmp_path, capsys,
                                            command):
        # the config passes; the 3-level taxonomy it trains on does not
        out = tmp_path / "x"
        argv = [command, "--set", "supervision_level=9", "--set", "steps=3",
                "--data", str(data_dir), "--out", str(out)]
        if command == "sweep":
            argv += ["--levels", "9"]
        assert main(argv) == 2
        assert "supervision_level: 9 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--set", "steps=none"],
        ["train", "--set", "level_counts=8,4"],
        ["filter", "--set", "method=gan"],
        ["eval", "--set", "filter_tau=0"],
    ], ids=["gen-data", "train", "filter", "eval"])
    def test_another_commands_bad_value_is_2(self, data_dir, trained, tmp_path,
                                             capsys, argv):
        # one config drives the pipeline, so each command checks all of it
        if argv[0] != "gen-data":
            argv = [*argv, "--data", str(data_dir)]
        if argv[0] in ("filter", "eval"):
            argv = [*argv, "--checkpoint", str(trained)]
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_hidden_0_is_valid_only_without_a_hidden_layer(self, data_dir, tmp_path,
                                                           capsys):
        # linear has no hidden dimension and ignores the value; mlp1 needs one
        out = tmp_path / "linear"
        assert main(["train", "--data", str(data_dir), "--set", "steps=3",
                     "--set", "hidden=0", "--out", str(out)]) == 0
        assert "hidden 0" in (out / "seed0" / "checkpoint.txt").read_text()
        assert main(["train", "--data", str(data_dir), "--set", "steps=3",
                     "--set", "hidden=0", "--set", "arch=mlp1",
                     "--out", str(tmp_path / "mlp1")]) == 2
        assert "config error: hidden: must be >= 1 for arch mlp1" in \
            capsys.readouterr().err
        assert not (tmp_path / "mlp1").exists()

    def test_refused_allocation_is_3(self, data_dir, tmp_path, capsys):
        # a 10**16 x 8 float64 weight is 568 PiB, more than any 64-bit
        # user address space (64 PiB with 5-level paging), so the
        # allocation fails at once and nothing is touched; past 2**63
        # bytes numpy refuses the size itself, and that is out of memory too
        for i, sizes in enumerate([["arch=mlp1", f"hidden={10**16}"],
                                   ["arch=mlp1", f"hidden={10**18}"],
                                   ["method=moco", f"emb_dim={10**17}"]]):
            out = tmp_path / f"x{i}"
            assert main(["train", "--data", str(data_dir), "--set", "steps=1",
                         *(arg for size in sizes for arg in ("--set", size)),
                         "--out", str(out)]) == 3, sizes
            assert "error: out of memory: Unable to allocate" in \
                capsys.readouterr().err, sizes
            assert not out.exists(), sizes

    @pytest.mark.parametrize("command", ["eval", "filter"])
    def test_bad_filter_tau_names_its_key(self, data_dir, trained, tmp_path,
                                          capsys, command):
        # tau is the train key; the filter's threshold is filter_tau
        assert main([command, "--set", "filter_tau=0", "--data", str(data_dir),
                     "--checkpoint", str(trained),
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error: filter_tau: must be > 0" in capsys.readouterr().err

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
        ({"hidden": "7"}, 4),
        ({"classes": "-1"}, 5),
    ], ids=["arch-foo", "dim-neg", "dim-x", "mlp1-hidden-0", "hidden-neg",
            "linear-hidden-7", "classes-neg"])
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

    @pytest.mark.parametrize("arch,key,line", [
        ("linear", "dim", 3),
        ("linear", "classes", 5),
        ("mlp1", "hidden", 4),
    ])
    def test_oversized_checkpoint_header_is_3(self, data_dir, trained, tmp_path,
                                              capsys, arch, key, line):
        """A header size must match the parameters before anything of that
        size is allocated: 10**12 is a parse error, not a MemoryError."""
        if arch == "mlp1":
            train_into(data_dir, tmp_path / "mlp1", "--set", "arch=mlp1")
            trained = tmp_path / "mlp1" / "seed0" / "checkpoint.txt"
        lines = trained.read_text().splitlines()
        assert lines[line - 1].startswith(f"{key} ")
        lines[line - 1] = f"{key} {10**12}"
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--data", str(data_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")]) == 3
        assert f"data error: line {line}:" in capsys.readouterr().err

    def test_coarsely_labeled_labeled_split_is_3(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "taxonomy.txt").write_bytes((data_dir / "taxonomy.txt").read_bytes())
        tax = load_taxonomy(data_dir / "taxonomy.txt")
        lines = (data_dir / "dataset.txt").read_text().splitlines()
        for i, line in enumerate(lines):
            parts = line.split()
            if parts[0] == "labeled":  # relabel the species at its level-2 ancestor
                leaf = tax.class_index(3, parts[2])
                parts[1:3] = [tax.level_names[1],
                              tax.class_name(2, tax.ancestor_map(3, 2)[leaf])]
                lines[i] = " ".join(parts)
        (bad / "dataset.txt").write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(bad), "--set", "steps=3",
                     "--out", str(tmp_path / "x")]) == 3
        assert "labeled at level 2, not at the leaf level 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("extra,code,err", [
        (["--levels", "none,1,2,0"], 2,
         "config error: supervision_level: must be >= 1 or None\n"),
        (["--levels", "none,1,2,9"], 2,
         "config error: supervision_level: 9 exceeds the 7-level taxonomy\n"),
        (["--levels", "none,1,2,7", "--set", "coarse_source=union"], 3,
         "data error: sample labeled at level 2 cannot be relabeled at finer "
         "level 7 without its ground-truth species\n"),
    ], ids=["level-0", "level-9", "union-level-7"])
    def test_a_bad_late_cell_fails_before_any_cell_trains(self, default_data_dir,
                                                          tmp_path, capsys, monkeypatch,
                                                          extra, code, err):
        import hierssl.cli as cli

        calls = []
        monkeypatch.setattr(cli, "_train_cell", lambda *task: calls.append(task))
        out = tmp_path / "x"
        assert main(["sweep", "--data", str(default_data_dir), *extra, "--seeds", "0,1,2",
                     "--jobs", "1", "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_empty_test_split_is_3_before_training(self, tmp_path, capsys,
                                                   monkeypatch, command):
        import hierssl.cli as cli

        def train_seeds(*args):
            raise AssertionError("a cell was trained before the test split was checked")

        monkeypatch.setattr(cli, "train_seeds", train_seeds)
        data, out = tmp_path / "data", tmp_path / "x"
        assert main(["gen-data", *GEN_ARGS, "--set", "test_per_species=0",
                     "--out", str(data)]) == 0
        levels = ["--levels", "2"] if command == "sweep" else []
        assert main([command, "--data", str(data), *levels, "--out", str(out)]) == 3
        assert "data error: the test split is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels,why", [("L1,L1,L3", "are not distinct"),
                                            ("L1,L 2,L3", "holds whitespace")],
                             ids=["repeated", "space"])
    def test_bad_level_names_in_a_taxonomy_file_are_3(self, data_dir, tmp_path,
                                                      capsys, levels, why):
        bad = tmp_path / "bad"
        bad.mkdir()
        lines = (data_dir / "taxonomy.txt").read_text().splitlines()
        lines[1] = levels
        (bad / "taxonomy.txt").write_text("\n".join(lines) + "\n")
        (bad / "dataset.txt").write_bytes((data_dir / "dataset.txt").read_bytes())
        assert main(["train", "--data", str(bad), "--set", "steps=3",
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and why in err


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
        assert len(screened.coarse_out) == 0
        assert len(screened.labeled) == 24  # passes through untouched

    def test_summary_line_reports_precision_and_recall(self, data_dir, trained,
                                                       tmp_path, capsys):
        out = tmp_path / "filtered"
        assert main(["filter", "--data", str(data_dir),
                     "--checkpoint", str(trained), "--out", str(out)]) == 0
        words = capsys.readouterr().out.split()
        stats, _ = read_filter_report(out / "filter_report.txt")
        assert float(words[words.index("precision") + 1]) == stats.precision
        assert float(words[words.index("recall") + 1]) == stats.recall

    def test_filter_rerun_is_byte_identical(self, data_dir, trained, tmp_path):
        for name in ("a", "b"):
            assert main(["filter", "--data", str(data_dir),
                         "--checkpoint", str(trained),
                         "--out", str(tmp_path / name)]) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_refilter_reports_origin_from_species(self, data_dir, trained, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        for src, out in ((data_dir, once), (once, twice)):
            assert main(["filter", "--data", str(src), "--checkpoint", str(trained),
                         "--set", "filter_tau=0.3", "--out", str(out)]) == 0
        first, _ = read_filter_report(once / "filter_report.txt")
        assert first.kept_in > 0 and first.kept_out > 0  # both origins kept
        kept = load_dataset(once / "dataset.txt", load_taxonomy(once / "taxonomy.txt"))
        n_in = int((kept.coarse_in.true_species >= 0).sum())
        second, _ = read_filter_report(twice / "filter_report.txt")
        assert (second.n_in, second.n_out) == (n_in, len(kept.coarse_in) - n_in)
        assert (second.n_in, second.n_out) == (first.kept_in, first.kept_out)

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

    @pytest.mark.parametrize("flag, value, code", [
        ("--set", "warp=9", 2),
        ("--config", "absent.txt", 3),
        ("--set", "steps=3", 0),
    ], ids=["unknown-key", "missing-config", "known-key"])
    def test_config_flags_are_read(self, data_dir, trained, tmp_path, flag,
                                   value, code):
        # one config drives the whole pipeline, so eval accepts every known key
        if flag == "--config":
            value = str(tmp_path / value)
        out = tmp_path / "x"
        assert main(["eval", "--data", str(data_dir), "--checkpoint", str(trained),
                     flag, value, "--out", str(out)]) == code
        assert out.exists() == (code == 0)


class TestOneConfigFile:
    SECTIONS = {
        "gen": {"level_counts": "1,2,8", "dim": "8", "seed": "0"},
        "train": {"steps": "8", "method": "pseudo_label", "tau": "0.9"},
        "filter": {"filter_tau": "0.5", "match_level": "2"},
    }

    def test_one_file_drives_every_command(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.txt"
        write_config({k: v for keys in self.SECTIONS.values()
                      for k, v in keys.items()}, cfg)
        data, runs = tmp_path / "data", tmp_path / "runs"
        ckpt = str(runs / "seed0" / "checkpoint.txt")
        for argv, out in [
            (["gen-data"], data),
            (["train", "--data", str(data)], runs),
            (["sweep", "--data", str(data), "--levels", "none,1"], tmp_path / "sweep"),
            (["filter", "--data", str(data), "--checkpoint", ckpt], tmp_path / "filtered"),
            (["eval", "--data", str(data), "--checkpoint", ckpt], tmp_path / "eval"),
        ]:
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0, \
                capsys.readouterr().err
        # each config.txt holds exactly its own section's keys
        for name, section, written in [
            ("gen", GenConfig(), data),
            ("train", TrainConfig(), runs / "seed0"),
            ("filter", FilterConfig(), tmp_path / "filtered"),
        ]:
            values = load_config(written / "config.txt")
            assert set(values) == set(config_values(section))
            assert {k: values[k] for k in self.SECTIONS[name]} == self.SECTIONS[name]


class TestSweepCommand:
    @pytest.mark.parametrize("argv", [["train"], ["sweep", "--levels", "2"]],
                             ids=["train", "sweep"])
    def test_jobs_default_to_one(self, argv):
        # each worker starts its own BLAS threads, so more is opt-in
        assert build_parser().parse_args(argv).jobs == "1"

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

    @pytest.mark.parametrize("jobs, cells, chunks", [
        (1, 1, [[0, 1, 2]]),
        (2, 1, [[0, 2], [1]]),
        (8, 1, [[0], [1], [2]]),
        (2, 4, [[0, 1, 2]]),  # four levels already give two workers a task each
        (4, 2, [[0, 2], [1]]),
    ])
    def test_chunks_are_as_few_as_keep_every_worker_busy(self, jobs, cells, chunks):
        assert _chunks([0, 1, 2], jobs, cells) == chunks

    def test_seed_chunks_do_not_change_the_bytes(self, data_dir, tmp_path):
        # --jobs 1 trains the level's three seeds in one lockstep run;
        # with one level, --jobs 2 splits them into the chunks 0,2 and 1
        common = ["sweep", "--data", str(data_dir), "--set", "steps=8",
                  "--levels", "2", "--seeds", "0,1,2"]
        for jobs in ("1", "2"):
            assert main([*common, "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        assert dir_bytes(tmp_path / "1") == dir_bytes(tmp_path / "2")

    def test_train_scores_what_sweep_scores(self, data_dir, tmp_path):
        # one runner: a train run is the sweep cell at its supervision level
        common = ["--data", str(data_dir), "--set", "steps=8", "--seeds", "0,1",
                  "--jobs", "1"]
        assert main(["train", *common, "--set", "supervision_level=2",
                     "--out", str(tmp_path / "train")]) == 0
        assert main(["sweep", *common, "--levels", "2",
                     "--out", str(tmp_path / "sweep")]) == 0
        trained = [(2, seed, read_report(tmp_path / "train" / f"seed{seed}" / "eval.txt").top1)
                   for seed in (0, 1)]
        assert read_sweep(tmp_path / "sweep" / "sweep.txt") == trained

    def test_bad_level_token_is_2(self, data_dir, tmp_path):
        assert main(["sweep", "--data", str(data_dir), "--levels", "one",
                     "--out", str(tmp_path / "x")]) == 2


def test_out_of_class_recipe_matches_the_library(tmp_path):
    """The README's out-of-class experiment through the CLI: a screening
    model on the labeled split, the filter, then fixmatch at level 2 on the
    clean, union and filtered pools. Each sweep row equals the same pipeline
    run in memory."""
    data, screen, filtered = (tmp_path / n for n in ("data", "screen", "filtered"))
    assert main(["gen-data", *GEN_ARGS, "--set", "out_attach_level=2",
                 "--set", "out_offset_scale=2.0", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--set", "supervision_level=none",
                 "--set", "arch=mlp1", "--set", "weight_decay=0.01",
                 "--set", "steps=8", "--seeds", "0", "--out", str(screen)]) == 0
    assert main(["filter", "--data", str(data),
                 "--checkpoint", str(screen / "seed0" / "checkpoint.txt"),
                 "--set", "filter_tau=0.3", "--set", "match_level=2",
                 "--out", str(filtered)]) == 0
    fixmatch = ["--levels", "2", "--seeds", "0", "--set", "method=fixmatch",
                "--set", "arch=mlp1", "--set", "weight_decay=0.01",
                "--set", "tau=0.95", "--set", "steps=8", "--jobs", "1"]
    runs = {"clean": (data, []), "union": (data, ["--set", "coarse_source=union"]),
            "filtered": (filtered, [])}
    for name, (pool, extra) in runs.items():
        assert main(["sweep", "--data", str(pool), *fixmatch, *extra,
                     "--out", str(tmp_path / name)]) == 0

    tax = load_taxonomy(data / "taxonomy.txt")
    split = load_dataset(data / "dataset.txt", tax)
    screen_model = train(split, tax, TrainConfig(
        method="baseline", supervision_level=None, arch="mlp1",
        weight_decay=1e-2, steps=8, seed=0)).model
    kept, _ = filter_split(screen_model, tax, split,
                           FilterConfig(tau=0.3, match_level=2))

    def fixmatch_top1(pool, **kw) -> float:
        cfg = default_train_config("fixmatch", supervision_level=2, arch="mlp1",
                                   weight_decay=1e-2, tau=0.95, steps=8, seed=0,
                                   **kw)
        return top1(train(pool, tax, cfg).model, split.test, tax)

    expected = {"clean": fixmatch_top1(split),
                "union": fixmatch_top1(split, coarse_source="union"),
                "filtered": fixmatch_top1(kept)}
    for name, acc in expected.items():
        assert read_sweep(tmp_path / name / "sweep.txt") == [(2, 0, acc)]


# sha256 of the config.txt each command writes; computed before the config
# keys were derived from the dataclass fields, so they pin that every key and
# every written value survived the derivation (the gen-data ones re-pinned
# when the `branching` key, an alternative to `level_counts`, was deleted)
CONFIG_CASES = {
    "gen-default": ["gen-data"],
    "gen-counts": ["gen-data", "--set", "level_counts=2,4,12", "--set",
                   "level_names=kingdom,genus,species", "--set",
                   "out_attach_level=1", "--set", "coarse_level=1",
                   "--set", "dim=8"],
    "train-fixmatch": ["train", "--set", "method=fixmatch", "--set",
                       "supervision_level=none", "--set", "jitter=0.8,1.25",
                       "--set", "sigma_weak=0.2", "--set", "steps=3"],
    "filter": ["filter", "--set", "filter_tau=0.3", "--set", "match_level=1"],
}

GOLDEN_CONFIGS = {
    "gen-default":
        "c02af45f5288e12581caf34ba11cbfa96548417ef7e29c1fcc1b501e41b83793",
    "gen-counts":
        "792243efe4d9cee31b2f23054daf6387d6c797cc6c8435747e44999486f252bf",
    "train-fixmatch":
        "1815faca0e4323d2b92b2757ee5872a92bc73d809fbc77634e085cfef0767968",
    "filter":
        "e3cc551457cab66f0656584287b06849ae148b36f7c4d8b425c0b093253b8af5",
}


def _pinned_run(argv, data_dir, trained, out: Path) -> None:
    """Run one pinned command on the module's data and checkpoint."""
    if argv[0] != "gen-data":
        argv = [*argv, "--data", str(data_dir)]
    if argv[0] in ("filter", "eval"):
        argv = [*argv, "--checkpoint", str(trained)]
    assert main([*argv, "--out", str(out)]) == 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_bytes_are_pinned(data_dir, trained, tmp_path, case):
    argv = CONFIG_CASES[case]
    _pinned_run(argv, data_dir, trained, tmp_path)
    config = tmp_path / ("seed0" if argv[0] == "train" else "") / "config.txt"
    assert _sha256(config) == GOLDEN_CONFIGS[case]


# sha256 of the report each command writes; computed before the report
# formats moved onto the shared typed-field codec in hierssl.records
REPORT_CASES = {
    "eval.txt": ["eval"],
    "filter_report.txt": ["filter", "--set", "filter_tau=0.3"],
    "sweep.txt": ["sweep", "--set", "steps=8", "--levels", "none,1",
                  "--seeds", "0,1", "--jobs", "1"],
}

GOLDEN_REPORTS = {
    "eval.txt":
        "eade5443696fb9ba6918a790002184f2949e131f1ca6668d9457b85d9f2b6a06",
    "filter_report.txt":
        "6c2664925dc19a7075f8f82ca9abd819ee76700f525bf7207e536b3e1906cc13",
    "sweep.txt":
        "676141c550a05c4797a3c9c256cc941c22fba4b661b9e665bae705266e2488ba",
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_bytes_are_pinned(data_dir, trained, tmp_path, name):
    _pinned_run(REPORT_CASES[name], data_dir, trained, tmp_path)
    assert _sha256(tmp_path / name) == GOLDEN_REPORTS[name]


# sha256 of the artifacts of a chain whose test split (3,120 rows) and coarse
# pool (4,200 rows) each span three or more scoring blocks plus a remainder;
# computed while each command still scored its rows as one matrix
BLOCKED_GEN = ["--set", "level_counts=3,12,60", "--set", "dim=8",
               "--set", "test_per_species=52", "--set", "coarse_in_per_species=20"]

GOLDEN_BLOCKED = {
    "eval/eval.txt":
        "da5fd7339a6853675331b625418af893e9f41007889d0d5647ab23b9c3f75326",
    "filtered/filter_report.txt":
        "d3c9da4686e24407e5c522bf87fc06876b5973a55220fcff2c76c59be1cd2d53",
    "filtered/dataset.txt":
        "5c63da2dfae10e5d677f15b0b63dd8e6a3fc7f227a3b1dae8fbacb8960bc717d",
}


@pytest.fixture(scope="module")
def blocked_chain(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("blocked")
    checkpoint = str(d / "run" / "seed0" / "checkpoint.txt")
    for argv in (["gen-data", *BLOCKED_GEN, "--out", str(d / "data")],
                 ["train", "--set", "steps=20", "--out", str(d / "run")],
                 ["eval", "--checkpoint", checkpoint, "--out", str(d / "eval")],
                 ["filter", "--checkpoint", checkpoint, "--set", "filter_tau=0.3",
                  "--out", str(d / "filtered")]):
        if argv[0] != "gen-data":
            argv = [*argv, "--data", str(d / "data")]
        assert main(argv) == 0
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN_BLOCKED))
def test_many_block_chain_bytes_are_pinned(blocked_chain, name):
    assert _sha256(blocked_chain / name) == GOLDEN_BLOCKED[name]


def test_many_block_filtered_content_is_pinned(blocked_chain):
    taxonomy = load_taxonomy(blocked_chain / "data" / "taxonomy.txt")
    split = load_dataset(blocked_chain / "filtered" / "dataset.txt", taxonomy)
    assert content_digest(split) == (
        "e2b53913ffa43443f35eac599ea28f573909e2b6282ebcee99e518813d51e39f")
