"""Optimiser mechanics, determinism, checkpoint resume, and adaptation."""

import dataclasses

import numpy as np
import pytest

from sssm import synth
from sssm.autodiff import Tensor, no_grad
from sssm.data import StereoPair
from sssm.losses import LossReport, LossWeights, reconstruction_error, total_loss
from sssm.network import NetConfig, forward, init_weights
from sssm.training import (
    LOG_COLUMNS,
    AdaptResult,
    LossLog,
    NonFiniteLossError,
    OptimizerState,
    TrainConfig,
    default_margin,
    infer,
    load_optimizer,
    load_weights,
    online_adapt,
    save_optimizer,
    save_weights,
    train_from_scratch,
    train_step,
)

MICRO = NetConfig(feature_layers=3, feature_dim=4, skip_every=3,
                  disparity_range=4, restdm_scales=2)


def _micro_cfg(**kw) -> TrainConfig:
    kw.setdefault("crop_height", 16)
    kw.setdefault("crop_width", 32)
    kw.setdefault("max_iterations", 3)
    return TrainConfig(**kw)


def _micro_pairs(n=2, h=16, w=32, seed=0):
    return [synth.synth_pair((seed, i), h, w, synth.constant_field(1.5)) for i in range(n)]


class TestTrainConfig:
    def test_schedules(self):
        cfg = TrainConfig(learning_rate=1e-3, dropped_learning_rate=1e-4,
                          lr_drop_iteration=10, smooth_scratch=1e-3,
                          smooth_converged=0.1, smooth_switch_iteration=20)
        assert cfg.lr_at(9) == pytest.approx(1e-3)
        assert cfg.lr_at(10) == pytest.approx(1e-4)
        assert cfg.smooth_at(19) == pytest.approx(1e-3)
        assert cfg.smooth_at(20) == pytest.approx(0.1)

    def test_rejects_strong_scratch_smoothness(self):
        with pytest.raises(ValueError, match="smooth_scratch"):
            TrainConfig(smooth_scratch=0.01)

    def test_rejects_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


class TestOptimizerStep:
    def test_matches_scalar_recurrence(self):
        # Drive a single weight with a fixed gradient sequence and check the
        # accumulator and update against the closed-form recurrence.
        weights = init_weights(MICRO, seed=0)
        name, tensor = next(iter(weights.named().items()))
        opt = OptimizerState.fresh(weights)
        lr = 0.01
        grads = [0.5, -1.25, 2.0, 0.75]

        ref_acc = 0.0
        ref_w = float(tensor.data.flat[0])
        for g in grads:
            for t in weights.named().values():
                t.grad = np.zeros_like(t.data)
            tensor.grad.flat[0] = g
            opt.step(weights, lr)
            ref_acc = 0.9 * ref_acc + 0.1 * g * g
            ref_w -= lr * g / np.sqrt(ref_acc + 1e-8)
            assert opt.acc[name].flat[0] == pytest.approx(ref_acc, rel=1e-6)
            assert float(tensor.data.flat[0]) == pytest.approx(ref_w, rel=1e-6)

    def test_zero_gradient_leaves_weights_unchanged(self):
        weights = init_weights(MICRO, seed=1)
        before = {n: t.data.copy() for n, t in weights.named().items()}
        for t in weights.named().values():
            t.grad = np.zeros_like(t.data)
        OptimizerState.fresh(weights).step(weights, lr=0.1)
        for n, t in weights.named().items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_zero_lr_leaves_weights_unchanged(self):
        weights = init_weights(MICRO, seed=1)
        before = {n: t.data.copy() for n, t in weights.named().items()}
        rng = np.random.default_rng(0)
        for t in weights.named().values():
            t.grad = rng.standard_normal(t.data.shape).astype(np.float32)
        OptimizerState.fresh(weights).step(weights, lr=0.0)
        for n, t in weights.named().items():
            np.testing.assert_array_equal(t.data, before[n])


class TestCheckpointIo:
    def test_weights_round_trip(self, tmp_path):
        weights = init_weights(MICRO, seed=3)
        path = tmp_path / "w.bin"
        save_weights(path, weights)
        other = init_weights(MICRO, seed=9)
        load_weights(path, other)
        for n, t in weights.named().items():
            np.testing.assert_array_equal(other.named()[n].data, t.data)

    def test_load_rejects_wrong_architecture(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, init_weights(MICRO, seed=0))
        bigger = init_weights(NetConfig.toy(), seed=0)
        with pytest.raises(ValueError, match="do not match"):
            load_weights(path, bigger)

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, init_weights(MICRO, seed=0))
        fatter = init_weights(
            NetConfig(feature_layers=3, feature_dim=8, skip_every=3,
                      disparity_range=4, restdm_scales=2), seed=0)
        with pytest.raises(ValueError):
            load_weights(path, fatter)

    def test_optimizer_round_trip(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        rng = np.random.default_rng(5)
        for a in opt.acc.values():
            a += rng.random(a.shape).astype(np.float32)
        opt.iteration = 42
        path = tmp_path / "w.opt"
        save_optimizer(path, opt)
        back = load_optimizer(path, weights)
        assert back.iteration == 42
        for n in opt.acc:
            np.testing.assert_array_equal(back.acc[n], opt.acc[n])

    def test_optimizer_refuses_iteration_float32_cannot_hold(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        opt.iteration = 2 ** 24
        save_optimizer(tmp_path / "last.opt", opt)
        assert load_optimizer(tmp_path / "last.opt", weights).iteration == 2 ** 24
        opt.iteration = 2 ** 24 + 1
        with pytest.raises(ValueError, match=r"2\^24"):
            save_optimizer(tmp_path / "over.opt", opt)
        assert not (tmp_path / "over.opt").exists()

    def test_optimizer_rejects_mismatched_params(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        path = tmp_path / "w.opt"
        save_optimizer(path, OptimizerState.fresh(weights))
        other = init_weights(NetConfig.toy(), seed=0)
        with pytest.raises(ValueError, match="optimizer state"):
            load_optimizer(path, other)

    def test_optimizer_without_iteration_names_the_file(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        path = tmp_path / "w.opt"
        save_weights(path, weights)  # parameter arrays only, no counter
        with pytest.raises(ValueError, match=r"w\.opt: .*__iteration__"):
            load_optimizer(path, weights)

    def test_optimizer_with_other_shapes_names_the_parameter(self, tmp_path):
        # same layer names, another feature_dim: every accumulator is misshapen
        weights = init_weights(MICRO, seed=0)
        path = tmp_path / "w.opt"
        save_optimizer(path, OptimizerState.fresh(weights))
        wider = init_weights(dataclasses.replace(MICRO, feature_dim=8), seed=0)
        assert list(wider.named()) == list(weights.named())
        with pytest.raises(ValueError, match=r"w\.opt: .*feat/l01/w .*\(3, 3, 3, 4\).*\(3, 3, 3, 8\)"):
            load_optimizer(path, wider)

    def test_optimizer_with_an_extra_accumulator_names_it(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        opt.acc["feat/l99/w"] = np.zeros(3, np.float32)
        save_optimizer(tmp_path / "w.opt", opt)
        with pytest.raises(ValueError, match=r"w\.opt: .*feat/l99/w"):
            load_optimizer(tmp_path / "w.opt", weights)


class TestTrainStep:
    def test_advances_iteration_and_returns_predictions(self):
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1)[0]
        opt = OptimizerState.fresh(weights)
        report, d_l, d_r = train_step(weights, pair.left, pair.right,
                                      _micro_cfg(), LossWeights(), opt, margin=4)
        assert opt.iteration == 1
        assert d_l.shape == pair.shape and d_r.shape == pair.shape
        assert np.isfinite(report.total)
        assert (d_l >= 0).all() and (d_l <= MICRO.disparity_range).all()

    def test_weights_change_under_training(self):
        weights = init_weights(MICRO, seed=0)
        before = {n: t.data.copy() for n, t in weights.named().items()}
        pair = _micro_pairs(1)[0]
        train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(),
                   OptimizerState.fresh(weights), margin=4)
        moved = sum(np.abs(t.data - before[n]).max() > 0 for n, t in weights.named().items())
        assert moved > len(before) // 2

    def test_non_finite_loss_raises_before_update(self, monkeypatch):
        # Normal inputs cannot reach this guard (upstream validation rejects
        # NaN images and disparities first), so inject the fault at the loss.
        import sssm.training as training_mod
        from sssm.autodiff import mean_reduce
        from sssm.losses import LossReport

        def poisoned_total_loss(i_l, i_r, d_l, d_r, lw, margin):
            report = LossReport(total=float("nan"), unary_l=float("inf"), unary_r=0.0,
                                smooth_l=0.0, smooth_r=0.0, loop_l=0.0, loop_r=0.0,
                                mdh_l=0.0, mdh_r=0.0)
            return (mean_reduce(d_l) * 0.0, report)

        monkeypatch.setattr(training_mod, "total_loss", poisoned_total_loss)
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1)[0]
        before = {n: t.data.copy() for n, t in weights.named().items()}
        opt = OptimizerState.fresh(weights)
        with pytest.raises(NonFiniteLossError) as exc:
            train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(), opt, margin=4)
        assert exc.value.iteration == 0
        assert "unary_l" in str(exc.value)
        assert not np.isfinite(exc.value.report.total)
        # The failed step must not have touched weights or the step counter.
        assert opt.iteration == 0
        for n, t in weights.named().items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_non_finite_gradient_raises_before_update(self, monkeypatch):
        # A finite loss can still backpropagate a NaN, so poison two
        # gradients after backward and expect the earlier one to be named.
        weights = init_weights(MICRO, seed=0)
        names = list(weights.named())
        backward = weights.tape.backward

        def poisoned_backward(loss):
            backward(loss)
            for name in (names[3], names[5]):
                weights.named()[name].grad.reshape(-1)[0] = np.nan

        monkeypatch.setattr(weights.tape, "backward", poisoned_backward)
        pair = _micro_pairs(1)[0]
        before = {n: t.data.copy() for n, t in weights.named().items()}
        opt = OptimizerState.fresh(weights)
        with pytest.raises(FloatingPointError, match=names[3]):
            train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(), opt, margin=4)
        assert opt.iteration == 0
        for n, t in weights.named().items():
            np.testing.assert_array_equal(t.data, before[n])
            np.testing.assert_array_equal(opt.acc[n], 0.0)


class TestTrainFromScratch:
    def test_log_has_one_row_per_iteration(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        cfg = _micro_cfg(max_iterations=4)
        log_path = tmp_path / "loss.csv"
        opt, logger = train_from_scratch(_micro_pairs(), weights, cfg, log_path=log_path)
        assert opt.iteration == 4
        assert len(logger.rows) == 4
        assert [r["iteration"] for r in logger.rows] == [0, 1, 2, 3]
        lines = log_path.read_text().splitlines()
        assert lines[0] == ",".join(LOG_COLUMNS)
        assert len(lines) == 5

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        logs = []
        finals = []
        for run in ("a", "b"):
            weights = init_weights(MICRO, seed=7)
            cfg = _micro_cfg(max_iterations=3, seed=11)
            path = tmp_path / f"{run}.csv"
            _, logger = train_from_scratch(_micro_pairs(), weights, cfg, log_path=path)
            logs.append(path.read_bytes())
            finals.append({n: t.data.copy() for n, t in weights.named().items()})
        assert logs[0] == logs[1]
        for n in finals[0]:
            np.testing.assert_array_equal(finals[0][n], finals[1][n])

    def test_different_seed_differs(self):
        totals = []
        for seed in (0, 1):
            weights = init_weights(MICRO, seed=7)
            _, logger = train_from_scratch(_micro_pairs(), weights,
                                           _micro_cfg(max_iterations=2, seed=seed))
            totals.append([r["total"] for r in logger.rows])
        assert totals[0] != totals[1]

    def test_resume_matches_uninterrupted(self, tmp_path):
        pairs = _micro_pairs()

        # One uninterrupted 4-iteration run.
        w_full = init_weights(MICRO, seed=2)
        train_from_scratch(pairs, w_full, _micro_cfg(max_iterations=4, seed=5))

        # Two iterations, checkpoint, reload into fresh objects, two more.
        ckpt = tmp_path / "w.bin"
        w_a = init_weights(MICRO, seed=2)
        train_from_scratch(pairs, w_a, _micro_cfg(max_iterations=2, seed=5),
                           checkpoint_path=ckpt)
        w_b = init_weights(MICRO, seed=99)
        load_weights(ckpt, w_b)
        opt_b = load_optimizer(str(ckpt) + ".opt", w_b)
        assert opt_b.iteration == 2
        train_from_scratch(pairs, w_b, _micro_cfg(max_iterations=4, seed=5), opt=opt_b)

        for n, t in w_full.named().items():
            np.testing.assert_array_equal(w_b.named()[n].data, t.data)

    def test_periodic_checkpointing(self, tmp_path):
        ckpt = tmp_path / "w.bin"
        weights = init_weights(MICRO, seed=0)
        train_from_scratch(_micro_pairs(), weights,
                           _micro_cfg(max_iterations=3, checkpoint_every=2),
                           checkpoint_path=ckpt)
        assert ckpt.exists()
        assert (tmp_path / "w.bin.opt").exists()
        assert load_optimizer(str(ckpt) + ".opt", weights).iteration == 3

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_from_scratch([], init_weights(MICRO), _micro_cfg())

    def test_rejects_indivisible_crop(self):
        with pytest.raises(ValueError, match="divisible"):
            train_from_scratch(_micro_pairs(), init_weights(MICRO),
                               _micro_cfg(crop_height=10, crop_width=32))

    def test_rejects_crop_narrower_than_range(self):
        with pytest.raises(ValueError, match="disparity_range"):
            train_from_scratch(_micro_pairs(h=16, w=32), init_weights(MICRO),
                               _micro_cfg(crop_width=4, crop_height=16))


class TestInfer:
    def test_shapes_and_bounds(self):
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1)[0]
        d_l, d_r = infer(weights, pair)
        assert d_l.shape == pair.shape and d_r.shape == pair.shape
        for d in (d_l, d_r):
            assert (d >= 0).all() and (d <= MICRO.disparity_range).all()

    def test_padding_neutral_on_divisible_input(self):
        # 16x32 is already a multiple of the scale factor, so infer must
        # equal a direct forward pass.
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1)[0]
        d_l, d_r = infer(weights, pair)
        ref_l, ref_r = forward(Tensor(pair.left), Tensor(pair.right), weights)
        np.testing.assert_array_equal(d_l, ref_l.data)
        np.testing.assert_array_equal(d_r, ref_r.data)

    def test_handles_indivisible_sizes(self):
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1, h=15, w=31)[0]
        d_l, d_r = infer(weights, pair)
        assert d_l.shape == (15, 31)
        assert d_r.shape == (15, 31)
        # the frame is edge-padded at the bottom and right, and the maps are
        # its top-left corner of the padded forward
        pads = ((0, 1), (0, 1), (0, 0))
        ref_l, ref_r = forward(np.pad(pair.left, pads, mode="edge"),
                               np.pad(pair.right, pads, mode="edge"), weights)
        np.testing.assert_array_equal(d_l, ref_l.data[:15, :31])
        np.testing.assert_array_equal(d_r, ref_r.data[:15, :31])


class TestOnlineAdapt:
    @pytest.mark.parametrize("h, w", [(16, 32), (15, 33)], ids=["16x32", "15x33"])
    def test_zero_lr_stream_equals_plain_inference(self, h, w):
        pairs = _micro_pairs(3, h=h, w=w)
        weights = init_weights(MICRO, seed=4)
        frozen = {n: t.data.copy() for n, t in weights.named().items()}
        cfg = _micro_cfg(learning_rate=0.0, dropped_learning_rate=0.0)

        results = list(online_adapt(weights, pairs, cfg))
        assert [r.index for r in results] == [0, 1, 2]
        for n, t in weights.named().items():
            np.testing.assert_array_equal(t.data, frozen[n])

        ref = init_weights(MICRO, seed=4)
        for pair, result in zip(pairs, results):
            d_l, d_r = infer(ref, pair)
            np.testing.assert_array_equal(result.d_left, d_l)
            np.testing.assert_array_equal(result.d_right, d_r)

    def test_prediction_emitted_before_update(self):
        pairs = _micro_pairs(2)
        weights = init_weights(MICRO, seed=4)
        baseline_first, _ = infer(weights, pairs[0])

        results = list(online_adapt(weights, pairs, _micro_cfg()))
        # First prediction uses the incoming weights even though learning
        # happens on the same pair.
        np.testing.assert_array_equal(results[0].d_left, baseline_first)
        assert isinstance(results[0], AdaptResult)

    def test_adaptation_changes_later_predictions(self):
        pairs = _micro_pairs(2)
        weights = init_weights(MICRO, seed=4)
        frozen_second, _ = infer(weights, pairs[1])
        results = list(online_adapt(weights, pairs, _micro_cfg()))
        assert np.abs(results[1].d_left - frozen_second).max() > 0

    def test_one_forward_per_frame_learns_on_the_whole_frame(self, monkeypatch):
        # 15x33 is not a multiple of the scale factor: the frame is padded
        # for the one forward, and both the emitted maps and the loss cover
        # exactly the frame.
        import sssm.training as training_mod

        calls = []

        def counting_forward(left, right, weights):
            calls.append(left.shape)
            return forward(left, right, weights)

        monkeypatch.setattr(training_mod, "forward", counting_forward)
        pairs = [synth.synth_pair((0, i), 15, 33, synth.constant_field(1.5)) for i in range(3)]
        weights = init_weights(MICRO, seed=0)
        cfg = _micro_cfg(smooth_switch_iteration=1)
        lw = LossWeights()
        margin = default_margin(MICRO)
        for i, (pair, result) in enumerate(zip(pairs, online_adapt(weights, pairs, cfg, lw))):
            assert len(calls) == i + 1
            assert result.d_left.shape == result.d_right.shape == (15, 33)
            with no_grad():
                _, report = total_loss(Tensor(pair.left), Tensor(pair.right), Tensor(result.d_left),
                                       Tensor(result.d_right),
                                       dataclasses.replace(lw, w_smooth=cfg.smooth_at(i)), margin)
            assert result.report == report
        assert calls == [(16, 36, 3)] * 3

    @pytest.mark.parametrize("margin", [None, 2])
    def test_warp_error_scores_the_emitted_frame(self, margin):
        # indivisible frames: the warping error scores the emitted
        # predictions on the full frame
        pairs = [synth.synth_pair((1, i), 15, 33, synth.constant_field(1.5)) for i in range(2)]
        weights = init_weights(MICRO, seed=0)
        m = default_margin(MICRO) if margin is None else margin
        for pair, result in zip(pairs, online_adapt(weights, pairs, _micro_cfg(), margin=margin)):
            assert result.warp_error == reconstruction_error(
                pair.left, pair.right, result.d_left, result.d_right, m)


class TestLossLog:
    def test_rows_round_trip_through_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        log = LossLog(path)
        row = {c: (3 if c == "iteration" else 0.1 + i * 0.3)
               for i, c in enumerate(LOG_COLUMNS)}
        log.append(row)
        log.close()
        header, line = path.read_text().splitlines()
        assert header.split(",") == list(LOG_COLUMNS)
        fields = line.split(",")
        assert int(fields[0]) == 3
        for c, field in zip(LOG_COLUMNS[1:], fields[1:]):
            assert float(field) == row[c]

    def test_record_fills_every_column(self):
        log = LossLog(None)
        report = LossReport(*(0.5 + i for i in range(len(dataclasses.fields(LossReport)))))
        log.record(7, 0.001, report, 0.25)
        assert log.rows == [{"iteration": 7, "lr": 0.001, "total": 0.5, **report.terms(),
                             "warp_error": 0.25}]
        assert list(log.rows[0]) == list(LOG_COLUMNS)

    def test_memory_only_mode(self):
        log = LossLog(None)
        log.append({c: 0.0 for c in LOG_COLUMNS})
        log.close()
        assert len(log.rows) == 1

    @staticmethod
    def _row(iteration):
        return ",".join([str(iteration)] + ["0.5"] * (len(LOG_COLUMNS) - 1)) + "\n"

    def test_resume_keeps_rows_below_the_iteration(self, tmp_path):
        # rows 3 and 4 were written after the checkpoint at 3, and the last
        # row was cut short
        path = tmp_path / "loss.csv"
        header = ",".join(LOG_COLUMNS) + "\n"
        path.write_text(header + "".join(self._row(i) for i in range(5)) + "5,0.")
        log = LossLog(path, resume_at=3)
        log.append({c: (3 if c == "iteration" else 0.25) for c in LOG_COLUMNS})
        log.close()
        lines = path.read_text().splitlines(keepends=True)
        assert lines[:4] == [header] + [self._row(i) for i in range(3)]
        assert lines[4].startswith("3,0.25,") and len(lines) == 5
        assert len(log.rows) == 1

    def test_resume_drops_a_cut_short_row(self, tmp_path):
        path = tmp_path / "loss.csv"
        header = ",".join(LOG_COLUMNS) + "\n"
        path.write_text(header + self._row(0) + "1,0.")
        LossLog(path, resume_at=2).close()
        assert path.read_text() == header + self._row(0)

    def test_resume_refuses_another_header_before_writing(self, tmp_path):
        path = tmp_path / "loss.csv"
        text = "iteration,lr,total\n" + self._row(0)
        path.write_text(text)
        with pytest.raises(ValueError, match="loss.csv: header"):
            LossLog(path, resume_at=1)
        assert path.read_text() == text

    def test_fresh_run_truncates(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("stale\n")
        LossLog(path).close()
        assert path.read_text() == ",".join(LOG_COLUMNS) + "\n"


class TestDefaultMargin:
    def test_equals_search_range(self):
        assert default_margin(MICRO) == 4
        assert default_margin(NetConfig.toy()) == 16
