"""Optimiser mechanics, determinism, checkpoint resume, and adaptation."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from sssm import autodiff, checkpoint, losses, synth
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
    load_checkpoint,
    online_adapt,
    save_checkpoint,
    train_from_scratch,
    train_step,
)

MICRO = NetConfig(feature_layers=3, feature_dim=4, disparity_range=4, restdm_scales=2)


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
        name, tensor = next(iter(weights.params.items()))
        opt = OptimizerState.fresh(weights)
        lr = 0.01
        grads = [0.5, -1.25, 2.0, 0.75]

        ref_acc = 0.0
        ref_w = float(tensor.data.flat[0])
        for g in grads:
            for t in weights.params.values():
                t.grad = np.zeros_like(t.data)
            tensor.grad.flat[0] = g
            opt.step(weights, lr)
            ref_acc = 0.9 * ref_acc + 0.1 * g * g
            ref_w -= lr * g / np.sqrt(ref_acc + 1e-8)
            assert opt.acc[name].flat[0] == pytest.approx(ref_acc, rel=1e-6)
            assert float(tensor.data.flat[0]) == pytest.approx(ref_w, rel=1e-6)

    def test_zero_gradient_leaves_weights_unchanged(self):
        weights = init_weights(MICRO, seed=1)
        before = {n: t.data.copy() for n, t in weights.params.items()}
        for t in weights.params.values():
            t.grad = np.zeros_like(t.data)
        OptimizerState.fresh(weights).step(weights, lr=0.1)
        for n, t in weights.params.items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_zero_lr_leaves_weights_unchanged(self):
        weights = init_weights(MICRO, seed=1)
        before = {n: t.data.copy() for n, t in weights.params.items()}
        rng = np.random.default_rng(0)
        for t in weights.params.values():
            t.grad = rng.standard_normal(t.data.shape).astype(np.float32)
        OptimizerState.fresh(weights).step(weights, lr=0.0)
        for n, t in weights.params.items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_in_place_step_equals_the_formula_and_leaves_gradients_alone(self):
        weights = init_weights(MICRO, seed=2)
        rng = np.random.default_rng(2)
        opt = OptimizerState.fresh(weights)
        for name, t in weights.params.items():
            t.grad = rng.standard_normal(t.data.shape).astype(np.float32)
            opt.acc[name][...] = rng.uniform(0.0, 2.0, t.data.shape)
        lr = np.float32(3e-3)
        grads = {n: t.grad.copy() for n, t in weights.params.items()}
        expected = {}
        for name, t in weights.params.items():
            g, a = grads[name], opt.acc[name] * np.float32(0.9)
            a = a + np.float32(0.1) * g * g
            expected[name] = (a, t.data - lr * g / np.sqrt(a + np.float32(1e-8)))
        opt.step(weights, float(lr))
        for name, t in weights.params.items():
            a, p = expected[name]
            assert opt.acc[name].tobytes() == a.tobytes(), name
            assert t.data.tobytes() == p.tobytes(), name
            assert t.grad.tobytes() == grads[name].tobytes(), name


def _save(path, weights, **records):
    """A checkpoint of ``weights`` and a fresh optimizer, with some records
    replaced (None drops one)."""
    save_checkpoint(path, weights, OptimizerState.fresh(weights))
    arrays = {**checkpoint.load_arrays(path), **records}
    checkpoint.save_arrays(path, {n: a for n, a in arrays.items() if a is not None})


class TestCheckpointIo:
    def test_weights_round_trip(self, tmp_path):
        weights = init_weights(MICRO, seed=3)
        path = tmp_path / "w.bin"
        save_checkpoint(path, weights, OptimizerState.fresh(weights))
        other = init_weights(MICRO, seed=9)
        load_checkpoint(path, other)
        for n, t in weights.params.items():
            np.testing.assert_array_equal(other.params[n].data, t.data)

    def test_load_rejects_wrong_architecture(self, tmp_path):
        path = tmp_path / "w.bin"
        _save(path, init_weights(MICRO, seed=0))
        bigger = init_weights(NetConfig.toy(), seed=0)
        with pytest.raises(ValueError, match=r"w\.bin: records do not match"):
            load_checkpoint(path, bigger)

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "w.bin"
        _save(path, init_weights(MICRO, seed=0))
        fatter = init_weights(
            NetConfig(feature_layers=3, feature_dim=8, disparity_range=4, restdm_scales=2), seed=0)
        with pytest.raises(ValueError):
            load_checkpoint(path, fatter)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_load_rejects_non_finite_weights_before_assigning(self, tmp_path, bad):
        weights = init_weights(MICRO, seed=3)
        value = weights.params["tdm/dc2/b"].data.copy()
        value[0] = bad  # the last weight record: every other one is fine
        _save(tmp_path / "w.bin", weights, **{"tdm/dc2/b": value})
        other = init_weights(MICRO, seed=9)
        before = {n: t.data.copy() for n, t in other.params.items()}
        with pytest.raises(ValueError, match=r"w\.bin: tdm/dc2/b .*non-finite"):
            load_checkpoint(tmp_path / "w.bin", other)
        for n, t in other.params.items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_optimizer_round_trip(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        rng = np.random.default_rng(5)
        for a in opt.acc.values():
            a += rng.random(a.shape).astype(np.float32)
        opt.iteration = 42
        path = tmp_path / "w.bin"
        save_checkpoint(path, weights, opt)
        back = load_checkpoint(path, weights)
        assert back.iteration == 42
        assert list(back.acc) == list(opt.acc)
        for n in opt.acc:
            np.testing.assert_array_equal(back.acc[n], opt.acc[n])

    def test_iteration_past_float32_round_trips(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        opt.iteration = 2 ** 24 + 1  # the first integer float32 cannot hold
        save_checkpoint(tmp_path / "w.bin", weights, opt)
        assert load_checkpoint(tmp_path / "w.bin", weights).iteration == 2 ** 24 + 1

    def test_optimizer_rejects_mismatched_params(self, tmp_path):
        # a weights-only container, as a foreign or partial file would be
        weights = init_weights(MICRO, seed=0)
        path = tmp_path / "w.bin"
        checkpoint.save_arrays(path, {n: t.data for n, t in weights.params.items()})
        with pytest.raises(ValueError, match=r"w\.bin: .*first missing rmsprop/feat/l01/w"):
            load_checkpoint(path, weights)

    def test_optimizer_without_iteration_names_the_file(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        _save(tmp_path / "w.bin", weights, __iteration__=None)
        with pytest.raises(ValueError, match=r"w\.bin: .*__iteration__"):
            load_checkpoint(tmp_path / "w.bin", weights)

    @pytest.mark.parametrize("counter", [np.array([np.nan], np.float32), np.array([-1], np.int64),
                                         np.array([3.5], np.float32),
                                         np.array([np.inf], np.float32), np.array([], np.int64),
                                         np.array([2, 3], np.int64), np.array([2.0], np.float32)],
                             ids=["nan", "negative", "fractional", "inf", "empty", "two", "float32"])
    def test_optimizer_with_a_bad_iteration_names_the_file(self, tmp_path, counter):
        weights = init_weights(MICRO, seed=0)
        _save(tmp_path / "w.bin", weights, __iteration__=counter)
        with pytest.raises(ValueError, match=r"w\.bin: __iteration__ .*not one non-negative integer"):
            load_checkpoint(tmp_path / "w.bin", weights)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_optimizer_with_an_impossible_accumulator_names_it(self, tmp_path, bad):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        opt.acc["tdm/dc1/b"][0] = bad
        save_checkpoint(tmp_path / "w.bin", weights, opt)
        with pytest.raises(ValueError, match=r"w\.bin: rmsprop/tdm/dc1/b .*finite and >= 0"):
            load_checkpoint(tmp_path / "w.bin", weights)

    def test_optimizer_with_other_shapes_names_the_parameter(self, tmp_path):
        # same layer names, another feature_dim: every record is misshapen
        weights = init_weights(MICRO, seed=0)
        _save(tmp_path / "w.bin", weights)
        wider = init_weights(dataclasses.replace(MICRO, feature_dim=8), seed=0)
        assert list(wider.params) == list(weights.params)
        with pytest.raises(ValueError, match=r"w\.bin: feat/l01/w .*\(3, 3, 3, 4\).*\(3, 3, 3, 8\)"):
            load_checkpoint(tmp_path / "w.bin", wider)
        # right weights, one misshapen accumulator
        _save(tmp_path / "w.bin", weights, **{"rmsprop/feat/l01/b": np.zeros(3, np.float32)})
        with pytest.raises(ValueError, match=r"w\.bin: rmsprop/feat/l01/b .*\(3,\).*\(4,\)"):
            load_checkpoint(tmp_path / "w.bin", weights)

    def test_weight_of_another_dtype_is_refused(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        value = weights.params["feat/l01/b"].data.astype(np.int64)
        _save(tmp_path / "w.bin", weights, **{"feat/l01/b": value})
        with pytest.raises(ValueError, match=r"w\.bin: feat/l01/b .*int64.*float32"):
            load_checkpoint(tmp_path / "w.bin", weights)

    def test_optimizer_with_an_extra_accumulator_names_it(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        opt.acc["feat/l99/w"] = np.zeros(3, np.float32)
        save_checkpoint(tmp_path / "w.bin", weights, opt)
        with pytest.raises(ValueError, match=r"w\.bin: .*first unexpected rmsprop/feat/l99/w"):
            load_checkpoint(tmp_path / "w.bin", weights)

    def test_truncation_anywhere_is_refused_before_assigning(self, tmp_path):
        weights = init_weights(MICRO, seed=3)
        opt = OptimizerState.fresh(weights)
        opt.iteration = 7
        save_checkpoint(tmp_path / "w.bin", weights, opt)
        data = (tmp_path / "w.bin").read_bytes()
        # Record boundaries are the sizes of containers holding the first k records.
        records = checkpoint.load_arrays(tmp_path / "w.bin")
        bounds = []
        for k in range(len(records) + 1):
            checkpoint.save_arrays(tmp_path / "prefix.bin", dict(list(records.items())[:k]))
            bounds.append((tmp_path / "prefix.bin").stat().st_size)
        assert bounds[-1] == len(data)
        cuts = set(bounds[:-1])
        for a, b in zip(bounds, bounds[1:]):
            cuts.update((a + 1, a + 4, a + 5, (a + b) // 2, b - 1))
        other = init_weights(MICRO, seed=9)
        before = {n: t.data.copy() for n, t in other.params.items()}
        for cut in sorted(cuts):
            (tmp_path / "cut.bin").write_bytes(data[:cut])
            with pytest.raises(ValueError, match=r"cut\.bin: "):
                load_checkpoint(tmp_path / "cut.bin", other)
        for n, t in other.params.items():
            np.testing.assert_array_equal(t.data, before[n])


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
        before = {n: t.data.copy() for n, t in weights.params.items()}
        pair = _micro_pairs(1)[0]
        train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(),
                   OptimizerState.fresh(weights), margin=4)
        moved = sum(np.abs(t.data - before[n]).max() > 0 for n, t in weights.params.items())
        assert moved > len(before) // 2

    def test_non_finite_loss_raises_before_update(self, monkeypatch):
        # Normal inputs cannot reach this guard (upstream validation rejects
        # NaN images and disparities first), so inject the fault at the loss.
        import sssm.training as training_mod
        from sssm.autodiff import mean_reduce, scale
        from sssm.losses import LossReport

        def poisoned_total_loss(i_l, i_r, d_l, d_r, lw, margin):
            report = LossReport(total=float("nan"), unary_l=float("inf"), unary_r=0.0,
                                smooth_l=0.0, smooth_r=0.0, loop_l=0.0, loop_r=0.0,
                                mdh_l=0.0, mdh_r=0.0, warp_error=0.0)
            return (scale(mean_reduce(d_l), 0.0), report)

        monkeypatch.setattr(training_mod, "total_loss", poisoned_total_loss)
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1)[0]
        before = {n: t.data.copy() for n, t in weights.params.items()}
        opt = OptimizerState.fresh(weights)
        with pytest.raises(NonFiniteLossError) as exc:
            train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(), opt, margin=4)
        assert exc.value.iteration == 0
        assert "unary_l" in str(exc.value)
        assert not np.isfinite(exc.value.report.total)
        # The failed step must not have touched weights or the step counter.
        assert opt.iteration == 0
        for n, t in weights.params.items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_non_finite_gradient_raises_before_update(self, monkeypatch):
        # A finite loss can still backpropagate a NaN, so poison two
        # gradients after backward and expect the earlier one to be named.
        # Patching the module attribute also pins the call path: train_step
        # must look backward up on ``sssm.autodiff``, where perfbench times it.
        weights = init_weights(MICRO, seed=0)
        names = list(weights.params)
        backward = autodiff.backward

        def poisoned_backward(loss):
            backward(loss)
            for name in (names[3], names[5]):
                weights.params[name].grad.reshape(-1)[0] = np.nan

        monkeypatch.setattr(autodiff, "backward", poisoned_backward)
        pair = _micro_pairs(1)[0]
        before = {n: t.data.copy() for n, t in weights.params.items()}
        opt = OptimizerState.fresh(weights)
        with pytest.raises(FloatingPointError, match=names[3]):
            train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(), opt, margin=4)
        assert opt.iteration == 0
        for n, t in weights.params.items():
            np.testing.assert_array_equal(t.data, before[n])
            np.testing.assert_array_equal(opt.acc[n], 0.0)

    def test_unreached_parameter_is_refused_before_update(self):
        # Every weight must get a gradient from the warping losses; one that
        # forward never reads is a bug to report, not a zero to apply.
        weights = init_weights(MICRO, seed=0)
        weights.params["extra/w"] = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        pair = _micro_pairs(1)[0]
        before = {n: t.data.copy() for n, t in weights.params.items()}
        opt = OptimizerState.fresh(weights)
        with pytest.raises(RuntimeError, match="no gradient reached extra/w"):
            train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(), opt, margin=4)
        assert opt.iteration == 0
        for n, t in weights.params.items():
            np.testing.assert_array_equal(t.data, before[n])
            np.testing.assert_array_equal(opt.acc[n], 0.0)


class TestWarpsPerStep:
    """Each view is warped once per step: the loop terms and the logged
    warping error reuse the loss's two reconstructions."""

    @pytest.fixture
    def count_gathers(self, monkeypatch):
        # synthesising the pairs resamples too, so counting starts when asked
        calls = []
        gather = losses._bilinear_gather

        def counting(*args):
            calls.append(args[0].shape)
            return gather(*args)

        def start():
            monkeypatch.setattr(losses, "_bilinear_gather", counting)
            return calls

        return start

    def test_train_step_warps_four_times(self, count_gathers):
        weights = init_weights(MICRO, seed=0)
        pair = _micro_pairs(1)[0]
        gathers = count_gathers()
        train_step(weights, pair.left, pair.right, _micro_cfg(), LossWeights(),
                   OptimizerState.fresh(weights), margin=4)
        assert len(gathers) == 4

    def test_logged_training_iteration_warps_four_times(self, count_gathers, tmp_path):
        pairs = _micro_pairs()
        gathers = count_gathers()
        train_from_scratch(pairs, init_weights(MICRO, seed=0), _micro_cfg(max_iterations=3),
                           log_path=tmp_path / "loss.csv")
        assert len(gathers) == 4 * 3

    def test_adapt_step_warps_four_times(self, count_gathers):
        pairs = _micro_pairs(3)
        gathers = count_gathers()
        for i, _ in enumerate(online_adapt(init_weights(MICRO, seed=0), pairs, _micro_cfg())):
            assert len(gathers) == 4 * (i + 1)


class TestNoSubnormalGradients:
    """Subnormal float32 operands slow the backward's GEMMs several times
    over; at 18 layers and a wide tower, training must not make any."""

    def test_wide_config_three_steps(self, monkeypatch):
        cfg = NetConfig(feature_layers=18, feature_dim=32, disparity_range=16, restdm_scales=4)
        field = synth.parse_field_spec("constant:3..8")
        pairs = [synth.synth_pair((1, i), 32, 64, field) for i in range(3)]
        weights = init_weights(cfg, seed=0)
        opt = OptimizerState.fresh(weights)
        tiny = np.finfo(np.float32).tiny
        counts = {"elements": 0, "subnormal": 0}
        accumulate = autodiff.accumulate

        def checking(node, g):
            if node is not None:
                a = np.abs(g)
                counts["elements"] += a.size
                counts["subnormal"] += int(np.count_nonzero((a > 0) & (a < tiny)))
            accumulate(node, g)

        # every module that took the name, so the conv kernels' gradients count
        for module in list(sys.modules.values()):
            if module.__name__.startswith("sssm") and getattr(module, "accumulate", None) is accumulate:
                monkeypatch.setattr(module, "accumulate", checking)
        per_step = []
        for pair in pairs:
            counts["subnormal"] = 0
            train_step(weights, pair.left, pair.right, _micro_cfg(crop_height=32, crop_width=64),
                       LossWeights(), opt, default_margin(cfg))
            per_step.append(counts["subnormal"])
        assert counts["elements"] > 0
        assert per_step == [0, 0, 0]


class TestTrainFromScratch:
    def test_log_has_one_row_per_iteration(self, tmp_path):
        weights = init_weights(MICRO, seed=0)
        cfg = _micro_cfg(max_iterations=4)
        log_path = tmp_path / "loss.csv"
        opt, _ = train_from_scratch(_micro_pairs(), weights, cfg, log_path=log_path)
        assert opt.iteration == 4
        lines = log_path.read_text().splitlines()
        assert lines[0] == ",".join(LOG_COLUMNS)
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        logs = []
        finals = []
        for run in ("a", "b"):
            weights = init_weights(MICRO, seed=7)
            cfg = _micro_cfg(max_iterations=3, seed=11)
            path = tmp_path / f"{run}.csv"
            _, logger = train_from_scratch(_micro_pairs(), weights, cfg, log_path=path)
            logs.append(path.read_bytes())
            finals.append({n: t.data.copy() for n, t in weights.params.items()})
        assert logs[0] == logs[1]
        for n in finals[0]:
            np.testing.assert_array_equal(finals[0][n], finals[1][n])

    def test_different_seed_differs(self, tmp_path):
        totals = []
        for seed in (0, 1):
            weights = init_weights(MICRO, seed=7)
            path = tmp_path / f"{seed}.csv"
            train_from_scratch(_micro_pairs(), weights, _micro_cfg(max_iterations=2, seed=seed),
                               log_path=path)
            totals.append([line.split(",")[2] for line in path.read_text().splitlines()[1:]])
        assert len(totals[0]) == 2
        assert totals[0] != totals[1]

    def test_resume_matches_uninterrupted(self, tmp_path):
        pairs = _micro_pairs()

        # One uninterrupted 4-iteration run.
        w_full = init_weights(MICRO, seed=2)
        opt_full, _ = train_from_scratch(pairs, w_full, _micro_cfg(max_iterations=4, seed=5))

        # Two iterations, checkpoint, reload into fresh objects, two more.
        ckpt = tmp_path / "w.bin"
        w_a = init_weights(MICRO, seed=2)
        train_from_scratch(pairs, w_a, _micro_cfg(max_iterations=2, seed=5),
                           checkpoint_path=ckpt)
        w_b = init_weights(MICRO, seed=99)
        opt_b = load_checkpoint(ckpt, w_b)
        assert opt_b.iteration == 2
        train_from_scratch(pairs, w_b, _micro_cfg(max_iterations=4, seed=5), opt=opt_b,
                           checkpoint_path=ckpt)

        save_checkpoint(tmp_path / "full.bin", w_full, opt_full)
        assert ckpt.read_bytes() == (tmp_path / "full.bin").read_bytes()

    def test_periodic_checkpointing(self, tmp_path):
        ckpt = tmp_path / "w.bin"
        weights = init_weights(MICRO, seed=0)
        train_from_scratch(_micro_pairs(), weights,
                           _micro_cfg(max_iterations=3, checkpoint_every=2),
                           checkpoint_path=ckpt)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.bin"]
        assert load_checkpoint(ckpt, weights).iteration == 3

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_from_scratch([], init_weights(MICRO), _micro_cfg())

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
        frozen = {n: t.data.copy() for n, t in weights.params.items()}
        cfg = _micro_cfg(learning_rate=0.0, dropped_learning_rate=0.0)

        results = list(online_adapt(weights, pairs, cfg))
        assert [r.index for r in results] == [0, 1, 2]
        for n, t in weights.params.items():
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
        # 15x33 is not a multiple of the scale factor: forward pads the frame
        # itself, and both the emitted maps and the loss cover exactly the frame.
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
        assert calls == [(15, 33, 3)] * 3

    def test_log_rows_carry_the_iteration_and_its_rate(self, tmp_path):
        # a state at iteration 5 with the rate dropping at 6: the rows name the
        # iteration each step ran at and the rate it applied, not the frame index
        weights = init_weights(MICRO, seed=0)
        opt = OptimizerState.fresh(weights)
        opt.iteration = 5
        path = tmp_path / "adapt.csv"
        logger = LossLog(path)
        cfg = _micro_cfg(lr_drop_iteration=6)
        results = list(online_adapt(weights, _micro_pairs(3), cfg, opt=opt, loss_log=logger))
        logger.close()
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(int(r[0]), float(r[1])) for r in rows] == [(5, 1e-3), (6, 1e-4), (7, 1e-4)]
        assert [r.index for r in results] == [0, 1, 2]
        assert opt.iteration == 8

    def test_checkpoints_every_k_iterations_and_after_the_last_step(self, tmp_path, monkeypatch):
        import sssm.training as training_mod

        saved = []
        save = training_mod.save_checkpoint

        def recording_save(path, w, opt):
            saved.append(opt.iteration)
            save(path, w, opt)

        monkeypatch.setattr(training_mod, "save_checkpoint", recording_save)
        weights = init_weights(MICRO, seed=0)
        ckpt = tmp_path / "w.sssmw"
        list(online_adapt(weights, _micro_pairs(3), _micro_cfg(checkpoint_every=2),
                          checkpoint_path=ckpt))
        assert saved == [2, 3]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.sssmw"]
        assert load_checkpoint(ckpt, init_weights(MICRO, seed=1)).iteration == 3

    def test_a_step_that_raises_saves_nothing(self, tmp_path, monkeypatch):
        # the first step runs, the second raises: no end-of-stream checkpoint
        import sssm.training as training_mod

        step = training_mod.train_step

        def second_raises(weights, left, right, cfg, lw, opt, margin):
            if opt.iteration == 1:
                raise RuntimeError("step 1 failed")
            return step(weights, left, right, cfg, lw, opt, margin)

        monkeypatch.setattr(training_mod, "train_step", second_raises)
        ckpt = tmp_path / "w.sssmw"
        with pytest.raises(RuntimeError, match="step 1 failed"):
            list(online_adapt(init_weights(MICRO, seed=0), _micro_pairs(2), _micro_cfg(),
                              checkpoint_path=ckpt))
        assert not ckpt.exists()

    @pytest.mark.parametrize("margin, direct", [
        pytest.param(None, False, id="None"),
        pytest.param(2, False, id="2"),
        pytest.param(3, True, id="train_step-3"),
    ])
    def test_warp_error_scores_the_emitted_frame(self, margin, direct):
        # indivisible frames: the warping error that the loss reports scores
        # the emitted predictions on the full frame, bit for bit
        pairs = [synth.synth_pair((1, i), 15, 33, synth.constant_field(1.5)) for i in range(2)]
        weights = init_weights(MICRO, seed=0)
        m = default_margin(MICRO) if margin is None else margin
        if direct:
            opt = OptimizerState.fresh(weights)
            steps = (train_step(weights, p.left, p.right, _micro_cfg(), LossWeights(), opt, m)
                     for p in pairs)
        else:
            steps = ((r.report, r.d_left, r.d_right)
                     for r in online_adapt(weights, pairs, _micro_cfg(), margin=margin))
        for pair, (report, d_l, d_r) in zip(pairs, steps):
            assert report.warp_error == reconstruction_error(pair.left, pair.right, d_l, d_r, m)


class TestLossLog:
    @staticmethod
    def _report(start=0.5, step=1.0):
        return LossReport(*(start + i * step for i in range(len(dataclasses.fields(LossReport)))))

    def test_rows_round_trip_through_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        log = LossLog(path)
        report = dataclasses.replace(self._report(0.7, 0.3), warp_error=1 / 3)
        log.record(3, 0.1, report)
        log.close()
        header, line = path.read_text().splitlines()
        assert header.split(",") == list(LOG_COLUMNS)
        fields = line.split(",")
        assert int(fields[0]) == 3
        assert [float(f) for f in fields[1:]] == [0.1, *dataclasses.astuple(report)]

    def test_record_fills_every_column(self, tmp_path):
        path = tmp_path / "loss.csv"
        log = LossLog(path)
        report = dataclasses.replace(self._report(), warp_error=0.25)
        log.record(7, 0.001, report)
        log.close()
        header, line = path.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert list(row) == list(LOG_COLUMNS)
        assert row == {"iteration": "7", "lr": "0.001", "total": "0.5",
                       **{k: repr(v) for k, v in report.terms().items()}, "warp_error": "0.25"}

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "none"])
    def test_memory_stays_flat_over_many_records(self, tmp_path, to_file):
        # An online-adaptation stream is open-ended: rows go to the file only.
        log = LossLog(tmp_path / "loss.csv" if to_file else None)
        report = dataclasses.replace(self._report(), warp_error=0.25)
        log.record(0, 0.001, report)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1, 10_001):
                log.record(i, 0.001, report)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            log.close()
        assert grown < 64 * 1024
        if to_file:
            assert len((tmp_path / "loss.csv").read_text().splitlines()) == 1 + 10_001

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
        log.record(3, 0.25, self._report(0.25, 0.0))
        log.close()
        lines = path.read_text().splitlines(keepends=True)
        assert lines[:4] == [header] + [self._row(i) for i in range(3)]
        assert lines[4] == ",".join(["3"] + ["0.25"] * (len(LOG_COLUMNS) - 1)) + "\n"
        assert len(lines) == 5

    def test_resume_drops_a_cut_short_row(self, tmp_path):
        path = tmp_path / "loss.csv"
        header = ",".join(LOG_COLUMNS) + "\n"
        path.write_text(header + self._row(0) + "1,0.")
        LossLog(path, resume_at=2).close()
        assert path.read_text() == header + self._row(0)

    @pytest.mark.parametrize("line", ["x1,0.5\n", "\n"], ids=["x1", "blank"])
    def test_resume_refuses_a_row_without_an_iteration_before_writing(self, tmp_path, line):
        path = tmp_path / "loss.csv"
        text = ",".join(LOG_COLUMNS) + "\n" + self._row(0) + line + self._row(2)
        path.write_text(text)
        field = line.split(",")[0].strip()
        with pytest.raises(ValueError, match=f"loss.csv:3: iteration field '{field}' is not an integer"):
            LossLog(path, resume_at=3)
        assert path.read_text() == text

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
