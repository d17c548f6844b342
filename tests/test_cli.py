"""End-to-end command-line behaviour via subprocess."""

import subprocess
import sys

import numpy as np
import pytest

from sssm import checkpoint, imageio

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

    @pytest.mark.parametrize("argv, name", [
        (["--count", "0"], "count"),
        (["--seed", "-1"], "seed"),
        (["--field", "split:-2,3"], "split:-2,3"),
        (["--field", "planar:0,1,0,-1"], "planar:0,1,0,-1"),
        (["--field", "constant:nan"], "constant:nan"),
    ])
    def test_synth_input_that_cannot_work_exits_1_before_writing(self, tmp_path, argv, name):
        out = tmp_path / "d"
        result = run_cli("synth", "--out", str(out), "--height", "8", "--width", "12", *argv)
        assert result.returncode == 1
        assert name in result.stderr
        assert not out.exists()

    def test_negative_seed_exits_1_naming_it_before_writing(self, micro_env, tmp_path):
        out = tmp_path / "out"
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out), "--config", str(micro_env / "micro.cfg"), "--seed", "-1")
        assert result.returncode == 1
        assert "seed must be >= 0" in result.stderr
        assert not out.exists()


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
        assert sorted(p.name for p in run.iterdir()) == ["loss_log.csv", "run_config.txt",
                                                          "weights.sssmw"]
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

    def test_resumed_run_equals_uninterrupted_run(self, micro_env, tmp_path):
        def train(out, iterations):
            result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                             "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                             "--iterations", str(iterations), "--seed", "3", "--single-thread")
            assert result.returncode == 0, result.stderr

        train(tmp_path / "full", 5)
        train(tmp_path / "resumed", 3)
        train(tmp_path / "resumed", 5)
        for name in ("loss_log.csv", "weights.sssmw"):
            full, resumed = (tmp_path / run / name for run in ("full", "resumed"))
            assert resumed.read_bytes() == full.read_bytes(), name
        assert len((tmp_path / "full" / "loss_log.csv").read_text().splitlines()) == 6

    def test_checkpoint_in_a_missing_directory_is_created(self, micro_env, tmp_path):
        ckpt = tmp_path / "nodir" / "sub" / "w.sssmw"
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(tmp_path / "out"), "--config", str(micro_env / "micro.cfg"),
                         "--checkpoint", str(ckpt), "--seed", "0")
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in ckpt.parent.iterdir()) == ["w.sssmw"]
        assert checkpoint.load_arrays(ckpt)["__iteration__"].tolist() == [2]

    def test_kill_between_checkpoint_writes_resumes_exactly(self, micro_env, tmp_path, monkeypatch):
        # In-process, so that a wrapped save_arrays can stand in for a kill
        # right after the first file of iteration 4's checkpoint is in place.
        from sssm import cli

        cfg = tmp_path / "every2.cfg"
        cfg.write_text(MICRO_CFG + "checkpoint_every = 2\n")

        def train(out):
            return cli.main(["train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                             "--out", str(out), "--config", str(cfg), "--iterations", "6",
                             "--seed", "3"])

        full, killed = tmp_path / "full", tmp_path / "killed"
        assert train(full) == 0
        save = checkpoint.save_arrays

        def save_then_kill_at_4(path, arrays):
            save(path, arrays)
            if len((killed / "loss_log.csv").read_text().splitlines()) == 1 + 4:
                raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint, "save_arrays", save_then_kill_at_4)
        with pytest.raises(KeyboardInterrupt):
            train(killed)
        monkeypatch.undo()
        assert len((killed / "loss_log.csv").read_text().splitlines()) == 1 + 4
        assert train(killed) == 0
        for name in ("loss_log.csv", "weights.sssmw"):
            assert (killed / name).read_bytes() == (full / name).read_bytes(), name

    def test_optimizer_state_without_counter_exits_1_naming_it(self, micro_env, tmp_path):
        arrays = checkpoint.load_arrays(micro_env / "run" / "weights.sssmw")
        del arrays["__iteration__"]
        ckpt = tmp_path / "weights.sssmw"
        checkpoint.save_arrays(ckpt, arrays)
        before = ckpt.read_bytes()
        out = tmp_path / "out"
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                         "--checkpoint", str(ckpt), "--iterations", "4", "--seed", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "weights.sssmw" in result.stderr and "__iteration__" in result.stderr
        assert not out.exists()
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.sssmw"]

    def test_negative_counter_exits_1_before_touching_the_log(self, micro_env, tmp_path):
        # A refused resume leaves the run as it was: log, run config and checkpoint.
        out = tmp_path / "run"
        out.mkdir()
        for name in ("loss_log.csv", "run_config.txt"):
            (out / name).write_bytes((micro_env / "run" / name).read_bytes())
        arrays = checkpoint.load_arrays(micro_env / "run" / "weights.sssmw")
        arrays["__iteration__"] = np.array([-1], dtype=np.int64)
        checkpoint.save_arrays(out / "weights.sssmw", arrays)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out), "--config", str(micro_env / "micro.cfg"),
                         "--iterations", "4", "--seed", "1")
        assert result.returncode == 1
        assert "weights.sssmw" in result.stderr and "__iteration__" in result.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_foreign_log_header_exits_1_before_writing(self, micro_env, tmp_path):
        # The header is checked before run_config.txt is rewritten for the resume.
        out = tmp_path / "run"
        out.mkdir()
        for name in ("loss_log.csv", "run_config.txt", "weights.sssmw"):
            (out / name).write_bytes((micro_env / "run" / name).read_bytes())
        log = (out / "loss_log.csv").read_text()
        (out / "loss_log.csv").write_text(log.replace("warp_error", "warp_err", 1))
        cfg = tmp_path / "lr.cfg"
        cfg.write_text(MICRO_CFG + "learning_rate = 0.5\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out), "--config", str(cfg), "--iterations", "4", "--seed", "0")
        assert result.returncode == 1
        assert "loss_log.csv" in result.stderr and "header" in result.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_negative_border_margin_exits_1_before_writing(self, micro_env, tmp_path):
        cfg = tmp_path / "margin.cfg"
        cfg.write_text(MICRO_CFG + "border_margin = -3\n")
        out = tmp_path / "out"
        result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--out", str(out), "--config", str(cfg), "--seed", "0")
        assert result.returncode == 1
        assert "border_margin" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("crop_width = 30", "crop 16x30 must be divisible by 4"),
        ("disparity_range = 32", "disparity_range 32 must be < crop width 32"),
        ("border_margin = 32", "border_margin 32 must be in [0, 32)"),
    ])
    def test_crop_the_run_cannot_take_exits_1_before_writing(self, micro_env, tmp_path,
                                                             line, message):
        # Refused both into a fresh --out and on a resume into an existing run,
        # whose run_config.txt must keep describing the run that happened.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MICRO_CFG + line + "\n")
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        resumed.mkdir()
        for name in ("loss_log.csv", "run_config.txt", "weights.sssmw"):
            (resumed / name).write_bytes((micro_env / "run" / name).read_bytes())
        before = {p.name: p.read_bytes() for p in resumed.iterdir()}
        for out in (fresh, resumed):
            result = run_cli("train", "--manifest", str(micro_env / "data" / "manifest.txt"),
                             "--out", str(out), "--config", str(cfg), "--iterations", "4",
                             "--seed", "0")
            assert result.returncode == 1
            assert message in result.stderr
        assert not fresh.exists()
        assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


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

    def test_infer_with_a_nan_weight_exits_1_naming_the_record(self, micro_env, tmp_path):
        arrays = checkpoint.load_arrays(micro_env / "run" / "weights.sssmw")
        arrays["feat/l01/w"][0, 0, 0, 0] = np.nan
        checkpoint.save_arrays(tmp_path / "nan.sssmw", arrays)
        result = run_cli("infer", "--manifest", str(micro_env / "data" / "manifest.txt"),
                         "--checkpoint", str(tmp_path / "nan.sssmw"),
                         "--out", str(tmp_path / "pred"), "--config", str(micro_env / "micro.cfg"))
        assert result.returncode == 1
        assert "nan.sssmw" in result.stderr and "feat/l01/w" in result.stderr
        assert not (tmp_path / "pred").exists()

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


def test_import_leaves_numpy_unloaded():
    # --single-thread pins BLAS through the environment after argument
    # parsing, which works only if importing the CLI has not loaded numpy.
    code = "import sys, sssm.cli; print(sorted(m for m in ('numpy', 'sssm.autodiff') if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
