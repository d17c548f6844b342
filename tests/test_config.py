"""Run configuration parsing, overrides, and serialisation."""

import re
from pathlib import Path

import pytest

from sssm.config import RunConfig, format_run_config, load_run_config, parse_run_config


class TestDefaults:
    def test_default_preset(self):
        cfg = RunConfig.default()
        assert cfg.net.feature_layers == 18
        assert cfg.net.feature_dim == 64
        assert cfg.net.disparity_range == 160
        assert cfg.train.learning_rate == pytest.approx(1e-3)
        assert cfg.train.dropped_learning_rate == pytest.approx(1e-4)
        assert cfg.loss.w_photo == 1.0
        assert cfg.loss.w_mdh == pytest.approx(0.001)
        assert cfg.border_margin is None

    def test_toy_preset(self):
        cfg = RunConfig.toy()
        assert cfg.net.feature_layers == 6
        assert cfg.net.disparity_range == 16
        assert (cfg.train.crop_height, cfg.train.crop_width) == (64, 128)


class TestParse:
    def test_overrides_touch_only_named_keys(self):
        cfg = parse_run_config("feature_dim = 8\nlearning_rate = 0.01\n")
        assert cfg.net.feature_dim == 8
        assert cfg.train.learning_rate == pytest.approx(0.01)
        # Everything else keeps its default.
        assert cfg.net.feature_layers == 18
        assert cfg.train.max_iterations == RunConfig.default().train.max_iterations

    def test_layers_on_base(self):
        base = RunConfig.toy()
        cfg = parse_run_config("seed = 7\n", base=base)
        assert cfg.train.seed == 7
        assert cfg.net.disparity_range == 16

    def test_comments_and_blank_lines(self):
        text = "# full line comment\n\nfeature_dim = 8  # trailing comment\n   \n"
        assert parse_run_config(text).net.feature_dim == 8

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown config key 'feature_dims'"):
            parse_run_config("feature_dims = 8\n")

    @pytest.mark.parametrize("line", ["kernel = 3", "skip_every = 3"])
    def test_tower_shape_keys_of_older_run_configs_are_unknown(self, line):
        # the tower is 3x3 convs with a skip every three layers, not a setting
        with pytest.raises(ValueError, match=f"unknown config key '{line.split()[0]}'"):
            parse_run_config(f"feature_dim = 8\n{line}\n")

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match="config:2"):
            parse_run_config("feature_dim = 8\nnope = 1\n")

    @pytest.mark.parametrize("key", ["learning_rate", "border_margin"])
    def test_key_given_twice_is_refused_naming_both_lines(self, key):
        text = f"{key} = 5\nseed = 1\n{key} = 1\n"
        with pytest.raises(ValueError, match=f"config:3: '{key}' is already set on line 1"):
            parse_run_config(text)

    def test_bad_value_is_hard_error(self):
        with pytest.raises(ValueError, match="bad value 'eight'"):
            parse_run_config("feature_dim = eight\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_run_config("feature_dim 8\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_run_config("feature_dim =\n")

    def test_border_margin_key(self):
        cfg = parse_run_config("border_margin = 5\n")
        assert cfg.border_margin == 5

    def test_invalid_combination_rejected_at_construction(self):
        # Validation lives in the dataclasses, so a config that parses but
        # violates an invariant still fails loudly.
        with pytest.raises(ValueError):
            parse_run_config("feature_layers = 7\n")

    @pytest.mark.parametrize("line", [
        "learning_rate = nan",
        "learning_rate = inf",
        "dropped_learning_rate = -inf",
        "smooth_scratch = -1",
        "smooth_converged = -1",
        "smooth_converged = nan",
        "checkpoint_every = -5",
        "seed = -1",
        "w_photo = nan",
        "lam_ssim = inf",
        "border_margin = -3",
    ])
    def test_value_that_cannot_run_is_rejected_naming_the_field(self, line):
        field = line.split(" = ")[0]
        with pytest.raises(ValueError, match=field):
            parse_run_config(line + "\n")


class TestFiles:
    def test_load_round_trip(self, tmp_path):
        cfg = parse_run_config("feature_dim = 8\nseed = 3\nw_mdh = 0.5\nborder_margin = 2\n",
                               base=RunConfig.toy())
        path = tmp_path / "run.cfg"
        path.write_text(format_run_config(cfg))
        back = load_run_config(path)
        assert back == cfg

    def test_default_round_trip_without_margin(self, tmp_path):
        cfg = RunConfig.default()
        path = tmp_path / "run.cfg"
        path.write_text(format_run_config(cfg))
        back = load_run_config(path)
        assert back == cfg
        assert "border_margin" not in format_run_config(cfg)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_config(tmp_path / "absent.cfg")

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("feature_dim = 8\nbogus = 1\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2"):
            load_run_config(path)


class TestKeys:
    KEYS = [
        "feature_layers", "feature_dim", "disparity_range", "restdm_scales",
        "learning_rate", "dropped_learning_rate", "lr_drop_iteration", "max_iterations",
        "crop_height", "crop_width", "smooth_scratch", "smooth_converged",
        "smooth_switch_iteration", "seed", "checkpoint_every",
        "w_photo", "w_consistency", "w_mdh", "lam_ssim", "lam_l1", "lam_grad",
    ]

    @staticmethod
    def emitted_keys(cfg):
        return [line.split(" = ")[0] for line in format_run_config(cfg).splitlines()]

    def test_format_pins_key_list_and_order(self):
        # run_config.txt is part of every run directory: a key added,
        # dropped or moved changes its bytes.
        assert self.emitted_keys(RunConfig.default()) == self.KEYS

    def test_readme_documents_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"`(\w+)`", section))
        # exactly the keys a run directory records, plus the optional one
        assert documented == set(self.emitted_keys(RunConfig.default())) | {"border_margin"}
