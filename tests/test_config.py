"""Flat key=value config files: parsing, typed coercion, canonical
serialization, and overrides."""

from dataclasses import fields, replace

import pytest

from hierssl.config import (
    _KEYS,
    KNOWN_KEYS,
    _parse_overrides,
    config_values,
    load_config,
    read_config,
    write_config,
)
from hierssl.data import GenConfig
from hierssl.errors import ConfigError, ParseError
from hierssl.ood import FilterConfig
from hierssl.trainers import TrainConfig, default_train_config


def read(values: dict[str, str]):
    """The pipeline config that ``--set key=value`` per entry of ``values`` reads."""
    return read_config(overrides=[f"{k}={v}" for k, v in values.items()])


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        values = {"method": "fixmatch", "tau": "0.95", "steps": "10"}
        p = tmp_path / "cfg.txt"
        write_config(values, p)
        assert load_config(p) == values

    def test_write_is_sorted_and_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_config({"zeta": "1", "alpha": "2"}, a)
        write_config({"alpha": "2", "zeta": "1"}, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1] == "alpha=2"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("hierssl-config v1\n\n# a comment\nsteps=5\n")
        assert load_config(p) == {"steps": "5"}

    def test_missing_header(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("steps=5\n")
        with pytest.raises(ParseError) as e:
            load_config(p)
        assert e.value.line == 1

    def test_duplicate_key_reports_line(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("hierssl-config v1\nsteps=5\nsteps=6\n")
        with pytest.raises(ParseError) as e:
            load_config(p)
        assert e.value.line == 3

    def test_line_without_equals(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("hierssl-config v1\nsteps\n")
        with pytest.raises(ParseError) as e:
            load_config(p)
        assert e.value.line == 2

    @pytest.mark.parametrize("line", ["seed = 7", "seed=7 ", " seed=7", "seed= 7"])
    def test_spaces_around_key_or_value_fail_at_their_line(self, tmp_path, line):
        p = tmp_path / "cfg.txt"
        p.write_text(f"hierssl-config v1\nsteps=5\n{line}\n")
        with pytest.raises(ParseError) as e:
            load_config(p)
        assert e.value.line == 3

    def test_values_may_contain_equals(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("hierssl-config v1\nmethod=base=line\n")
        assert load_config(p) == {"method": "base=line"}


class TestOverrides:
    def test_parse_overrides(self):
        assert _parse_overrides(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
        assert _parse_overrides(None) == {}
        assert _parse_overrides(["tau="]) == {"tau": ""}

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            _parse_overrides(["no-equals-here"])
        with pytest.raises(ConfigError):
            _parse_overrides(["=value"])

    @pytest.mark.parametrize("pair", ["seed = 7", "seed=7 ", " seed=7", "seed= 7"])
    def test_spaces_around_key_or_value_rejected(self, pair):
        with pytest.raises(ConfigError):
            _parse_overrides([pair])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as e:
            read({"steps": "5", "warp_speed": "9"})
        assert "warp_speed" in str(e.value)

    def test_known_keys_are_pinned(self):
        assert sorted(KNOWN_KEYS) == [
            "arch", "augment_inputs", "batch_coarse", "batch_labeled",
            "batch_pretrain", "coarse_in_per_species",
            "coarse_level", "coarse_out_per_species", "coarse_source",
            "consistency_weight", "dim", "distill_temperature",
            "distill_weight", "emb_dim", "filter_tau", "hidden", "jitter",
            "key_momentum", "labeled_per_species", "level_counts",
            "level_names", "long_tail_exponent", "lr", "match_level", "method",
            "momentum", "nce_temperature", "out_attach_level", "out_fraction",
            "out_offset_scale", "p_drop", "pretrain_steps", "queue_size",
            "seed", "sigma_levels", "sigma_strong", "sigma_weak", "sigma_x",
            "steps", "supervision_level", "tau", "test_per_species",
            "unsup_weight", "weight_decay",
        ]


class TestTrainCoercion:
    def test_typed_fields(self):
        cfg = read({
            "method": "fixmatch", "steps": "7", "lr": "0.125",
            "supervision_level": "none", "tau": "0.9",
            "augment_inputs": "true", "arch": "mlp1",
        }).train
        assert cfg.method == "fixmatch"
        assert cfg.steps == 7
        assert cfg.lr == 0.125
        assert cfg.supervision_level is None
        assert cfg.augment_inputs is True
        # fixmatch defaults still applied underneath
        assert (cfg.batch_labeled, cfg.batch_coarse) == (32, 160)

    def test_bool_values_are_strict(self):
        assert read({"augment_inputs": "false"}).train.augment_inputs is False
        with pytest.raises(ConfigError) as e:
            read({"augment_inputs": "True"})
        assert "augment_inputs" in str(e.value)
        with pytest.raises(ConfigError):
            read({"augment_inputs": "1"})

    def test_augment_keys_reach_their_train_fields(self):
        cfg = read({"sigma_weak": "0.25", "jitter": "0.8,1.2"}).train
        assert cfg.sigma_weak == 0.25
        assert cfg.jitter == (0.8, 1.2)

    def test_jitter_needs_exactly_two_values(self):
        with pytest.raises(ConfigError):
            read({"jitter": "0.9"})
        with pytest.raises(ConfigError):
            read({"jitter": "0.8,1.0,1.2"})

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError) as e:
            read({"steps": "ten"})
        assert "steps" in str(e.value)

    def test_validation_still_runs(self):
        with pytest.raises(ConfigError):
            read({"steps": "0"})
        with pytest.raises(ConfigError):
            read({"method": "gan"})

    def test_round_trip_through_strings(self):
        cfg = default_train_config("fixmatch", tau=0.95, lr=1.0 / 3.0,
                                   supervision_level=None, augment_inputs=True)
        values = config_values(cfg)
        assert values["supervision_level"] == "none"
        assert values["augment_inputs"] == "true"
        assert values["lr"] == repr(1.0 / 3.0)
        back = read(values).train
        assert back == cfg


class TestGenCoercion:
    def test_typed_fields(self):
        cfg = read({
            "level_counts": "1,2,8", "dim": "8", "sigma_x": "0.5",
            "out_attach_level": "none", "level_names": "none",
        }).gen
        assert cfg.level_counts == (1, 2, 8)
        assert cfg.dim == 8
        assert cfg.out_attach_level is None

    def test_round_trip_through_strings(self):
        cfg = GenConfig(level_counts=(1, 2, 8), dim=8, sigma_x=0.75, seed=3)
        back = read(config_values(cfg)).gen
        assert back == cfg

    def test_level_counts_is_required(self):
        with pytest.raises(ConfigError, match="level_counts: cannot parse value 'none'"):
            read({"level_counts": "none"})

    def test_validation_still_runs(self):
        with pytest.raises(ConfigError):
            read({"level_counts": "8,4"})

    @pytest.mark.parametrize("key, value", [
        ("sigma_x", "-inf"), ("out_fraction", "1e999"),
        ("sigma_levels", "2.0,nan,1.0"),
    ])
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: cannot parse value"):
            read({key: value})


class TestFilterCoercion:
    def test_namespaced_tau(self):
        cfg = read({"filter_tau": "0.3", "match_level": "1"}).filter
        assert cfg == FilterConfig(tau=0.3, match_level=1)

    def test_defaults_when_absent(self):
        assert read({}).filter == FilterConfig()

    def test_round_trip(self):
        cfg = FilterConfig(tau=0.35, match_level=2)
        assert read(config_values(cfg)).filter == cfg

    def test_filter_tau_does_not_collide_with_train_tau(self):
        values = {"tau": "0.95", "filter_tau": "0.3"}
        assert read(values).train.tau == 0.95
        assert read(values).filter.tau == 0.3

    def test_validation_still_runs(self):
        with pytest.raises(ConfigError):
            read({"filter_tau": "0"})


class TestFullConfigSharing:
    def test_one_file_drives_every_consumer(self, tmp_path):
        values = {
            "level_counts": "1,2,8", "dim": "8", "seed": "1",
            "method": "fixmatch", "steps": "5", "tau": "0.9",
            "filter_tau": "0.4", "match_level": "2",
        }
        p = tmp_path / "cfg.txt"
        write_config(values, p)
        config = read_config(p)
        gen, tr, fl = config.gen, config.train, config.filter
        assert gen.seed == 1 and tr.seed == 1
        assert tr.tau == 0.9 and fl.tau == 0.4
        assert gen.level_counts == (1, 2, 8)


class TestEveryKeyIsOneField:
    """A key names one field of one flat section, so setting the key is
    ``dataclasses.replace`` of that field."""

    SECTIONS = {GenConfig: "gen", TrainConfig: "train", FilterConfig: "filter"}

    def test_keys_name_exactly_the_fields(self):
        for cls in self.SECTIONS:
            assert sorted(name for name, _ in _KEYS[cls].values()) == \
                sorted(f.name for f in fields(cls)), cls.__name__
        assert set().union(*(_KEYS[cls] for cls in self.SECTIONS)) == KNOWN_KEYS

    def test_setting_a_key_replaces_its_field(self):
        config = read({})
        for cls, attr in self.SECTIONS.items():
            default = getattr(config, attr)
            for key, text in config_values(default).items():
                name = _KEYS[cls][key][0]
                assert getattr(read({key: text}), attr) == \
                    replace(default, **{name: getattr(default, name)}), key
