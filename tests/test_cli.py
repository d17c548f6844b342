"""End-to-end command-line behaviour via subprocess."""

import subprocess
import sys

import numpy as np
import pytest

from sssm import imageio

CLI = [sys.executable, "-m", "sssm.cli"]

# A micro run config so CLI flows finish in seconds.
MICRO_CFG = """
feature_layers = 3
feature_dim = 4
skip_every = 3
disparity_range = 4
restdm_scales = 2
crop_height = 16
crop_width = 32
max_iterations = 2
"""


def run_cli(*argv, **kw):
    return subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=600, **kw)


@pytest.fixture(scope="module")
def micro_env(tmp_path_factory):
    """Synth dataset + micro config + 2-iteration checkpoint, built once."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "micro.cfg"
    cfg.write_text(MICRO_CFG)
    synth = run_cli("synth", "--out", str(root / "data"), "--count", "2",
                    "--height", "24", "--width", "40", "--field", "constant:2",
                    "--seed", "0")
    assert synth.returncode == 0, synth.stderr
    train = run_cli("train", "--manifest", str(root / "data" / "manifest.txt"),
                    "--out", str(root / "run"), "--config", str(cfg), "--seed", "0")
    assert train.returncode == 0, train.stderr
    return root


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_unknown_flag_exits_2(self):
        result = run_cli("synth", "--out", "/tmp/x", "--bogus")
        assert result.returncode == 2
        assert "--bogus" in result.stderr

    def test_missing_required_flag_exits_2(self):
        result = run_cli("infer", "--checkpoint", "w.bin", "--out", "/tmp/x")
        assert result.returncode == 2
        assert "--manifest" in result.stderr

    def test_help_exits_0(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for name in ("train", "adapt", "infer", "eval", "synth", "gradcheck"):
            assert name in result.stdout


class TestRuntimeErrors:
    def test_missing_checkpoint_exits_1_naming_path(self, micro_env):
        result = run_cli("infer", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--checkpoint", str(micro_env / "absent.sssmw"),
                         "--out", str(micro_env / "p"), "--config", str(micro_env / "micro.cfg"))
        assert result.returncode == 1
        assert "absent.sssmw" in result.stderr
        assert result.stderr.startswith("error:")

    def test_missing_manifest_exits_1(self, micro_env):
        result = run_cli("train", "--manifest", str(micro_env / "nope.txt"),
                         "--out", str(micro_env / "r2"), "--config", str(micro_env / "micro.cfg"))
        assert result.returncode == 1
        assert "nope.txt" in result.stderr

    def test_bad_config_key_exits_1(self, micro_env, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(tmp_path / "r"), "--config", str(bad))
        assert result.returncode == 1
        assert "not_a_key" in result.stderr

    def test_bad_field_spec_exits_1(self, tmp_path):
        result = run_cli("synth", "--out", str(tmp_path / "d"), "--field", "wavy:1")
        assert result.returncode == 1
        assert "wavy" in result.stderr


class TestSynth:
    def test_writes_dataset(self, micro_env):
        data = micro_env / "data"
        assert (data / "manifest.txt").is_file()
        names = (data / "manifest.txt").read_text().split()
        assert len(names) == 6
        img = imageio.read_image(data / "0000_left.ppm")
        assert img.shape == (24, 40, 3)
        values, valid = imageio.read_gt_pgm(data / "0000_gt.pgm")
        np.testing.assert_allclose(values[valid], 2.0, atol=1 / 256)


class TestTrainFlow:
    def test_run_directory_contents(self, micro_env):
        run = micro_env / "run"
        assert (run / "weights.sssmw").is_file()
        assert (run / "weights.sssmw.opt").is_file()
        assert (run / "run_config.txt").is_file()
        log = (run / "loss_log.csv").read_text().splitlines()
        assert len(log) == 3  # header + 2 iterations
        assert log[0].startswith("iteration,lr,total")
        assert "feature_layers = 3" in (run / "run_config.txt").read_text()

    def test_train_resumes_from_existing_checkpoint(self, micro_env, tmp_path):
        out2 = tmp_path / "resumed"
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out2), "--config", str(micro_env / "micro.cfg"),
                         "--checkpoint", str(micro_env / "run" / "weights.sssmw"),
                         "--iterations", "4", "--seed", "0")
        assert result.returncode == 0, result.stderr
        assert "iteration 4" in result.stdout

    def test_resume_without_optimizer_state_exits_1_before_writing(self, micro_env, tmp_path):
        ckpt = tmp_path / "weights.sssmw"
        ckpt.write_bytes((micro_env / "run" / "weights.sssmw").read_bytes())
        out = tmp_path / "out"
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                         "--checkpoint", str(ckpt), "--iterations", "4", "--seed", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "weights.sssmw.opt" in result.stderr
        assert not out.exists()
        assert ckpt.read_bytes() == (micro_env / "run" / "weights.sssmw").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.sssmw"]


    def test_resumed_run_equals_uninterrupted_run(self, micro_env, tmp_path):
        def train(out, iterations):
            result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                             "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                             "--iterations", str(iterations), "--seed", "3", "--single-thread")
            assert result.returncode == 0, result.stderr

        train(tmp_path / "full", 5)
        train(tmp_path / "resumed", 3)
        train(tmp_path / "resumed", 5)
        for name in ("loss_log.csv", "weights.sssmw", "weights.sssmw.opt"):
            full, resumed = (tmp_path / run / name for run in ("full", "resumed"))
            assert resumed.read_bytes() == full.read_bytes(), name
        assert len((tmp_path / "full" / "loss_log.csv").read_text().splitlines()) == 6

    def test_optimizer_state_without_counter_exits_1_naming_it(self, micro_env, tmp_path):
        ckpt = tmp_path / "weights.sssmw"
        ckpt.write_bytes((micro_env / "run" / "weights.sssmw").read_bytes())
        (tmp_path / "weights.sssmw.opt").write_bytes(ckpt.read_bytes())
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(tmp_path / "out"), "--config", str(micro_env / "micro.cfg"),
                         "--checkpoint", str(ckpt), "--iterations", "4", "--seed", "0")
        assert result.returncode == 1
        assert "weights.sssmw.opt" in result.stderr and "__iteration__" in result.stderr
        assert ckpt.read_bytes() == (micro_env / "run" / "weights.sssmw").read_bytes()
        assert not (tmp_path / "out" / "loss_log.csv").exists()


class TestInferEvalFlow:
    def test_infer_writes_predictions(self, micro_env):
        result = run_cli("infer", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--checkpoint", str(micro_env / "run" / "weights.sssmw"),
                         "--out", str(micro_env / "pred"), "--config", str(micro_env / "micro.cfg"))
        assert result.returncode == 0, result.stderr
        for i in range(2):
            for side in ("dl", "dr"):
                d = imageio.read_pfm(micro_env / "pred" / f"{i:04d}_{side}.pfm")
                assert d.shape == (24, 40)
                assert (d >= 0).all() and (d <= 4).all()

    def test_eval_prints_metrics(self, micro_env):
        if not (micro_env / "pred" / "0000_dl.pfm").is_file():
            infer = run_cli("infer", "--manifest", str(micro_env / "data" / "manifest.txt"),
                            "--checkpoint", str(micro_env / "run" / "weights.sssmw"),
                            "--out", str(micro_env / "pred"), "--config", str(micro_env / "micro.cfg"))
            assert infer.returncode == 0, infer.stderr
        result = run_cli("eval", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--pred", str(micro_env / "pred"), "--config", str(micro_env / "micro.cfg"),
                         "--out", str(micro_env / "metrics"))
        assert result.returncode == 0, result.stderr
        for token in ("EPE:", "D1(0.5px):", "D1(1.0px):", "D1(3.0px):", "warping error:"):
            assert token in result.stdout
        csv = (micro_env / "metrics" / "eval.csv").read_text().splitlines()
        assert csv[0].startswith("pairs,")
        assert csv[1].startswith("2,")

    def test_eval_missing_right_map_exits_1_naming_file(self, micro_env, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        for i in range(2):
            imageio.write_pfm(pred / f"{i:04d}_dl.pfm", np.zeros((24, 40), np.float32))
        imageio.write_pfm(pred / "0001_dr.pfm", np.zeros((24, 40), np.float32))
        result = run_cli("eval", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--pred", str(pred), "--config", str(micro_env / "micro.cfg"))
        assert result.returncode == 1
        assert "0000_dr.pfm" in result.stderr
        assert result.stderr.startswith("error:")

    def test_adapt_writes_predictions_and_weights(self, micro_env, tmp_path):
        out = tmp_path / "adapted"
        result = run_cli("adapt", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--checkpoint", str(micro_env / "run" / "weights.sssmw"),
                         "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                         "--iterations", "3")
        assert result.returncode == 0, result.stderr
        assert "3 pairs" in result.stdout
        assert (out / "adapted.sssmw").is_file()
        # 3 steps over a 2-pair manifest: indices cycle 0, 1, 0.
        for i in range(3):
            assert (out / f"{i:04d}_dl.pfm").is_file()
        log = (out / "adapt_log.csv").read_text().splitlines()
        assert len(log) == 4

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_adapt_rejects_fewer_than_one_iteration_before_writing(self, micro_env, tmp_path,
                                                                   iterations):
        out = tmp_path / "adapted"
        result = run_cli("adapt", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--checkpoint", str(micro_env / "run" / "weights.sssmw"),
                         "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                         "--iterations", iterations)
        assert result.returncode == 1
        assert "--iterations" in result.stderr
        assert not out.exists()


class TestGradcheck:
    def test_exits_0_and_reports_all_ops(self):
        result = run_cli("gradcheck", "--seed", "0")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "pipeline" in result.stdout
        assert "FAIL" not in result.stdout
