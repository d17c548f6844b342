"""Network stages: feature tower, matching volumes, regulariser, readout."""

import tracemalloc

import numpy as np
import pytest

from sssm import autodiff as ad
from sssm import convops, losses, network
from sssm.autodiff import Tensor, no_grad
from sssm.network import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    NetConfig,
    build_feature_volume,
    extract_features,
    forward,
    init_weights,
    res_tdm,
    soft_argmin,
    volume_conv,
)
from sssm.convops import conv3d

MICRO = NetConfig(feature_layers=3, feature_dim=4, skip_every=3,
                  disparity_range=4, restdm_scales=2)


class TestNetConfig:
    def test_defaults(self):
        cfg = NetConfig()
        assert (cfg.feature_layers, cfg.feature_dim, cfg.kernel) == (18, 64, 3)
        assert (cfg.skip_every, cfg.disparity_range, cfg.restdm_scales) == (3, 160, 4)
        assert cfg.scale_factor == 16

    def test_toy_preset(self):
        cfg = NetConfig.toy()
        assert (cfg.feature_dim, cfg.disparity_range, cfg.restdm_scales) == (16, 16, 2)
        assert cfg.scale_factor == 4

    def test_layers_must_divide_by_skip(self):
        with pytest.raises(ValueError):
            NetConfig(feature_layers=7, skip_every=3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            NetConfig(kernel=4)


class TestInitWeights:
    def test_every_parameter_registered_once(self):
        w = init_weights(MICRO, seed=0)
        names = list(w.named())
        assert len(names) == len(set(names))
        # feature tower: (w, b) per layer; per scale: c, r/a, r/b, dc
        assert len(names) == 2 * MICRO.feature_layers + 2 * 4 * MICRO.restdm_scales

    def test_seeded_and_deterministic(self):
        a = init_weights(MICRO, seed=7).named()
        b = init_weights(MICRO, seed=7).named()
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_biases_start_at_zero(self):
        for name, t in init_weights(MICRO, seed=0).named().items():
            if name.endswith("/b"):
                assert not t.data.any()

    def test_final_projection_has_one_channel(self):
        w = init_weights(MICRO, seed=0).named()
        assert w["tdm/dc1/w"].data.shape[3] == 1
        assert w["tdm/dc1/b"].data.shape == (1,)


class TestExtractFeatures:
    def test_output_shape(self):
        cfg = NetConfig.toy()
        w = init_weights(cfg, seed=0)
        img = Tensor(np.random.default_rng(0).uniform(0, 1, (32, 64, 3)).astype(np.float32))
        with no_grad():
            f = extract_features(img, w)
        assert f.data.shape == (32, 64, cfg.feature_dim)

    def test_deterministic_and_view_symmetric(self):
        w = init_weights(MICRO, seed=1)
        img = Tensor(np.random.default_rng(1).uniform(0, 1, (8, 8, 3)).astype(np.float32))
        with no_grad():
            a = extract_features(img, w)
            b = extract_features(img, w)
        np.testing.assert_array_equal(a.data, b.data)

    def test_weight_sharing_perturbation_moves_both_views(self):
        # one parameter set drives both towers: nudging it changes both outputs
        w = init_weights(MICRO, seed=2)
        rng = np.random.default_rng(2)
        i_l = Tensor(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        i_r = Tensor(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        with no_grad():
            f_l0, f_r0 = extract_features(i_l, w), extract_features(i_r, w)
            w.named()["feat/l01/w"].data += 0.05
            f_l1, f_r1 = extract_features(i_l, w), extract_features(i_r, w)
        assert np.abs(f_l1.data - f_l0.data).max() > 0
        assert np.abs(f_r1.data - f_r0.data).max() > 0

    def test_rejects_small_or_miscolored_images(self):
        w = init_weights(MICRO, seed=0)
        with pytest.raises(ValueError):
            extract_features(Tensor(np.zeros((2, 8, 3), np.float32)), w)
        with pytest.raises(ValueError):
            extract_features(Tensor(np.zeros((8, 8, 1), np.float32)), w)


def brute_volume(f1, f2, d_max, direction, depth=None):
    h, w, f = f1.shape
    vol = np.zeros((h, w, d_max + 1 if depth is None else depth, 2 * f), dtype=f1.dtype)
    for v in range(h):
        for u in range(w):
            for d in range(d_max + 1):
                vol[v, u, d, :f] = f1[v, u]
                src = u - d if direction == LEFT_TO_RIGHT else u + d
                if 0 <= src < w:
                    vol[v, u, d, f:] = f2[v, src]
    return vol


class TestFeatureVolume:
    @pytest.mark.parametrize("direction", [LEFT_TO_RIGHT, RIGHT_TO_LEFT])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, direction, seed):
        rng = np.random.default_rng(seed)
        h, w, f = rng.integers(2, 6), rng.integers(4, 9), rng.integers(1, 4)
        d_max = int(rng.integers(0, w))
        f1 = rng.standard_normal((h, w, f)).astype(np.float32)
        f2 = rng.standard_normal((h, w, f)).astype(np.float32)
        vol = build_feature_volume(Tensor(f1), Tensor(f2), d_max, direction)
        np.testing.assert_array_equal(vol.data, brute_volume(f1, f2, d_max, direction))
        # padded depth: the extra slices are zero in both halves
        depth = d_max + 1 + int(rng.integers(1, 4))
        vol = build_feature_volume(Tensor(f1), Tensor(f2), d_max, direction, depth)
        np.testing.assert_array_equal(vol.data, brute_volume(f1, f2, d_max, direction, depth))

    def test_zero_shift_slice_is_plain_concat(self):
        rng = np.random.default_rng(3)
        f1 = rng.standard_normal((3, 5, 2)).astype(np.float32)
        f2 = rng.standard_normal((3, 5, 2)).astype(np.float32)
        vol = build_feature_volume(Tensor(f1), Tensor(f2), 2, LEFT_TO_RIGHT).data
        np.testing.assert_array_equal(vol[:, :, 0], np.concatenate([f1, f2], axis=2))

    def test_out_of_range_entries_zero(self):
        f = np.ones((2, 4, 1), dtype=np.float32)
        lr = build_feature_volume(Tensor(f), Tensor(f), 3, LEFT_TO_RIGHT).data
        # u - d < 0 has no counterpart
        for d in range(4):
            np.testing.assert_array_equal(lr[:, :d, d, 1:], 0.0)
        rl = build_feature_volume(Tensor(f), Tensor(f), 3, RIGHT_TO_LEFT).data
        for d in range(1, 4):
            np.testing.assert_array_equal(rl[:, 4 - d:, d, 1:], 0.0)

    def test_shape(self):
        vol = build_feature_volume(Tensor(np.zeros((4, 5, 3), np.float32)),
                                   Tensor(np.zeros((4, 5, 3), np.float32)), 2, LEFT_TO_RIGHT)
        assert vol.data.shape == (4, 5, 3, 6)
        vol = build_feature_volume(Tensor(np.zeros((4, 5, 3), np.float32)),
                                   Tensor(np.zeros((4, 5, 3), np.float32)), 2, LEFT_TO_RIGHT, 4)
        assert vol.data.shape == (4, 5, 4, 6)

    def test_validation(self):
        f = Tensor(np.zeros((3, 4, 2), np.float32))
        with pytest.raises(ValueError):
            build_feature_volume(f, Tensor(np.zeros((3, 5, 2), np.float32)), 1, LEFT_TO_RIGHT)
        with pytest.raises(ValueError):
            build_feature_volume(f, f, 4, LEFT_TO_RIGHT)  # D must stay < W
        with pytest.raises(ValueError):
            build_feature_volume(f, f, 1, "sideways")
        with pytest.raises(ValueError):
            build_feature_volume(f, f, 2, LEFT_TO_RIGHT, 2)  # depth must exceed D

    def test_gradient_scatters_back(self):
        # sum of LR volume: f1 contributes (D+1) times, f2 once per in-range (u, d)
        f1 = Tensor(np.ones((2, 4, 1), np.float32), requires_grad=True)
        f2 = Tensor(np.ones((2, 4, 1), np.float32), requires_grad=True)
        vol = build_feature_volume(f1, f2, 2, LEFT_TO_RIGHT)
        ad.backward(ad.sum_reduce(vol))
        np.testing.assert_array_equal(f1.grad, np.full((2, 4, 1), 3.0))
        # column u of f2 is read at (u, 0), (u+1, 1), (u+2, 2) while in range
        np.testing.assert_array_equal(f2.grad[:, :, 0], [[3, 3, 2, 1], [3, 3, 2, 1]])
        # the zero slices of a padded volume send no gradient back
        f1.grad = f2.grad = None
        ad.backward(ad.sum_reduce(build_feature_volume(f1, f2, 2, LEFT_TO_RIGHT, 4)))
        np.testing.assert_array_equal(f1.grad, np.full((2, 4, 1), 3.0))
        np.testing.assert_array_equal(f2.grad[:, :, 0], [[3, 3, 2, 1], [3, 3, 2, 1]])


class TestVolumeConv:
    """volume_conv against conv3d on the explicit volume, forward and all four gradients."""

    @staticmethod
    def _both_paths(direction, d_max, depth, f, cout, dtype, hw=(4, 6)):
        rng = np.random.default_rng((d_max, depth or 0, f, cout))
        inputs = [Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
                  for shape in (hw + (f,), hw + (f,), (3, 3, 3, 2 * f, cout), (cout,))]
        f1, f2, k, b = inputs
        results = []
        for explicit in (True, False):
            for t in inputs:
                t.grad = None
            if explicit:
                out = conv3d(build_feature_volume(f1, f2, d_max, direction, depth), k, b, stride=2)
            else:
                out = volume_conv(f1, f2, k, b, d_max, direction, depth)
            upstream = Tensor(np.random.default_rng(1).standard_normal(out.data.shape), dtype=dtype)
            ad.backward(ad.sum_reduce(ad.mul(out, upstream)))
            results.append([out.data] + [t.grad for t in inputs])
        return results

    # On 8x24 maps an even D leaves depth D+1 odd, so the volume carries at
    # least one zero slice and the top output slice has partial depth taps;
    # D=16 at depth 20 is the toy preset's scale-1 volume.
    @pytest.mark.parametrize("direction", [LEFT_TO_RIGHT, RIGHT_TO_LEFT])
    @pytest.mark.parametrize(
        "hw,d_max,depth",
        [((4, 6), 0, 2), ((4, 6), 0, 4), ((4, 6), 3, None), ((4, 6), 3, 6), ((4, 6), 5, None),
         ((4, 6), 5, 8), ((8, 24), 2, 4), ((8, 24), 2, 8), ((8, 24), 4, 6), ((8, 24), 4, 12),
         ((8, 24), 16, 18), ((8, 24), 16, 20)],
        ids=["D0-padded2", "D0-padded4", "Dodd", "Dodd-padded", "DWm1", "DWm1-padded",
             "8x24-D2", "8x24-D2-padded", "8x24-D4", "8x24-D4-padded", "8x24-D16", "8x24-D16-padded"])
    @pytest.mark.parametrize("f,cout", [(1, 1), (3, 4)], ids=["1ch", "multich"])
    def test_matches_explicit_volume_float64(self, direction, hw, d_max, depth, f, cout):
        explicit, fused = self._both_paths(direction, d_max, depth, f, cout, np.float64, hw)
        for name, a, b in zip(("out", "f_first", "f_second", "kernel", "bias"), explicit, fused):
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-10, name

    @pytest.mark.parametrize("direction", [LEFT_TO_RIGHT, RIGHT_TO_LEFT])
    def test_matches_explicit_volume_float32(self, direction):
        # both paths sum the same products in a different order: allow a few
        # dozen roundings of the largest magnitude involved
        tol = 64 * np.finfo(np.float32).eps
        explicit, fused = self._both_paths(direction, 5, 8, 3, 4, np.float32)
        for name, a, b in zip(("out", "f_first", "f_second", "kernel", "bias"), explicit, fused):
            assert a.dtype == b.dtype == np.float32, name
            assert np.abs(a - b).max() <= tol * np.abs(a).max(), name

    def test_rejects_bad_shapes(self):
        f = Tensor(np.zeros((4, 6, 2), np.float32))
        k, b = Tensor(np.zeros((3, 3, 3, 4, 1), np.float32)), Tensor(np.zeros(1, np.float32))
        with pytest.raises(ValueError):
            volume_conv(f, f, k, b, 2, LEFT_TO_RIGHT)  # depth 3 is odd
        with pytest.raises(ValueError):
            volume_conv(f, f, Tensor(np.zeros((3, 3, 3, 2, 1), np.float32)), b, 3, LEFT_TO_RIGHT)
        with pytest.raises(ValueError):
            volume_conv(f, f, k, Tensor(np.zeros(2, np.float32)), 3, LEFT_TO_RIGHT)
        with pytest.raises(ValueError):
            volume_conv(f, f, k, b, 6, LEFT_TO_RIGHT, 8)  # D must stay < W
        odd = Tensor(np.zeros((3, 6, 2), np.float32))
        with pytest.raises(ValueError):
            volume_conv(odd, odd, k, b, 3, RIGHT_TO_LEFT)


class TestResTdm:
    def test_output_shape_and_zero_weights(self):
        w = init_weights(MICRO, seed=0)
        for t in w.named().values():
            t.data[:] = 0.0
        rng = np.random.default_rng(0)
        f1, f2 = (Tensor(rng.standard_normal((8, 8, MICRO.feature_dim)).astype(np.float32))
                  for _ in range(2))
        with no_grad():
            costs = res_tdm(f1, f2, LEFT_TO_RIGHT, w)
        assert costs.data.shape == (8, 8, 8)
        np.testing.assert_array_equal(costs.data, 0.0)

    def test_rejects_indivisible_dims(self):
        w = init_weights(MICRO, seed=0)
        f = Tensor(np.zeros((6, 8, MICRO.feature_dim), np.float32))
        with pytest.raises(ValueError):
            res_tdm(f, f, LEFT_TO_RIGHT, w)


class TestSoftArgmin:
    def test_uniform_costs_give_midpoint(self):
        out = soft_argmin(Tensor(np.zeros((3, 4, 5), np.float32)))
        np.testing.assert_allclose(out.data, 2.0, atol=1e-6)

    def test_spike_converges_to_argmin(self):
        c = np.zeros((1, 1, 5), np.float32)
        c[0, 0, 3] = -50.0
        out = soft_argmin(Tensor(c))
        assert abs(out.data[0, 0] - 3.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((4, 6, 9)).astype(np.float32)
        a = soft_argmin(Tensor(c)).data
        b = soft_argmin(Tensor(c + 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_output_bounded(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-20, 20, (5, 7, 11)).astype(np.float32)
        out = soft_argmin(Tensor(c)).data
        assert out.min() >= 0.0 and out.max() <= 10.0

    def test_matches_direct_evaluation(self):
        c = np.array([[[0.0, 1.0, -2.0, 0.5]]], dtype=np.float64)
        p = np.exp(-c) / np.exp(-c).sum()
        expected = (np.arange(4) * p).sum()
        out = soft_argmin(Tensor(c, dtype=np.float64))
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-12)


class TestForward:
    def test_shapes_bounds_determinism(self):
        cfg = NetConfig.toy()
        w = init_weights(cfg, seed=0)
        rng = np.random.default_rng(0)
        i_l = rng.uniform(0, 1, (32, 64, 3)).astype(np.float32)
        i_r = rng.uniform(0, 1, (32, 64, 3)).astype(np.float32)
        with no_grad():
            d_l, d_r = forward(i_l, i_r, w)
            d_l2, _ = forward(i_l, i_r, w)
        assert d_l.data.shape == (32, 64) and d_r.data.shape == (32, 64)
        assert d_l.data.min() >= 0.0 and d_l.data.max() <= cfg.disparity_range
        np.testing.assert_array_equal(d_l.data, d_l2.data)

    def test_disparity_axis_padding_is_internal(self):
        # D+1 = 17 is not a multiple of 4; forward must still work
        cfg = NetConfig.toy()
        assert (cfg.disparity_range + 1) % cfg.scale_factor != 0
        w = init_weights(cfg, seed=0)
        rng = np.random.default_rng(1)
        with no_grad():
            d_l, _ = forward(rng.uniform(0, 1, (8, 32, 3)).astype(np.float32),
                             rng.uniform(0, 1, (8, 32, 3)).astype(np.float32), w)
        assert d_l.data.shape == (8, 32)

    def test_rejects_indivisible_or_mismatched_inputs(self):
        w = init_weights(NetConfig.toy(), seed=0)
        good = np.zeros((8, 32, 3), np.float32)
        with pytest.raises(ValueError):
            forward(np.zeros((9, 32, 3), np.float32), np.zeros((9, 32, 3), np.float32), w)
        with pytest.raises(ValueError):
            forward(good, np.zeros((8, 36, 3), np.float32), w)

    def test_train_step_never_allocates_a_volume(self, monkeypatch):
        """Neither a single block nor any op's rise of the traced peak, in a
        toy-shaped forward and backward, reaches one (H, W, depth, 2F) volume."""
        cfg = NetConfig.toy()
        w = init_weights(cfg, seed=0)
        rng = np.random.default_rng(2)
        i_l, i_r = (rng.uniform(0, 1, (32, 64, 3)).astype(np.float32) for _ in range(2))
        volume = 32 * 64 * 20 * 2 * cfg.feature_dim * 4
        rises = []
        start = [0]

        def mark():
            # the traced peak since the previous op, over the memory held then
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - start[0])
            tracemalloc.reset_peak()
            start[0] = current

        def marking(fn):
            def wrapper(*args):
                mark()
                return fn(*args)
            return wrapper

        for module in (ad, convops, network, losses):
            monkeypatch.setattr(module, "make_op", marking(module.make_op))
            monkeypatch.setattr(module, "accumulate", marking(module.accumulate))
        tracemalloc.start()
        try:
            start[0] = tracemalloc.get_traced_memory()[0]
            d_l, d_r = forward(i_l, i_r, w)
            largest = max(t.size for t in tracemalloc.take_snapshot().traces)
            ad.backward(ad.add(ad.mean_reduce(d_l), ad.mean_reduce(d_r)))
            mark()
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in w.named().values())
        assert largest < volume
        assert max(rises) < volume

    def test_volume_level_mirror_symmetry(self):
        """Mirroring the feature maps horizontally turns the LR volume into
        the mirrored RL volume exactly: under u -> W-1-u the sample at u-d
        becomes one at u+d.  This is the indexing identity behind the
        swap-and-mirror symmetry of a stereo pair."""
        rng = np.random.default_rng(5)
        f1 = rng.standard_normal((6, 9, 3)).astype(np.float32)
        f2 = rng.standard_normal((6, 9, 3)).astype(np.float32)
        m1 = np.ascontiguousarray(f1[:, ::-1])
        m2 = np.ascontiguousarray(f2[:, ::-1])
        for d_max in (0, 3, 8):
            lr = build_feature_volume(Tensor(f1), Tensor(f2), d_max, LEFT_TO_RIGHT)
            rl = build_feature_volume(Tensor(m1), Tensor(m2), d_max, RIGHT_TO_LEFT)
            np.testing.assert_array_equal(lr.data[:, ::-1], rl.data)

    @pytest.mark.xfail(reason="the learned operators are not mirror-equivariant: "
                       "conv kernels have no left-right symmetry (corr(Mx, W) = "
                       "M corr(x, MW)) and stride-2 sampling maps even offsets "
                       "to odd ones under reflection, so swap-and-mirror only "
                       "holds at the volume-indexing level", strict=True)
    def test_full_forward_mirror_symmetry(self):
        w = init_weights(MICRO, seed=6)
        rng = np.random.default_rng(6)
        i_l = rng.uniform(0, 1, (8, 16, 3)).astype(np.float32)
        i_r = rng.uniform(0, 1, (8, 16, 3)).astype(np.float32)
        with no_grad():
            d_l, d_r = forward(i_l, i_r, w)
            m_r, m_l = forward(np.ascontiguousarray(i_r[:, ::-1]),
                               np.ascontiguousarray(i_l[:, ::-1]), w)
        interior = np.s_[:, 5:-5]
        np.testing.assert_allclose(d_r.data[interior], m_r.data[:, ::-1][interior], atol=1e-4)


def _toy_forward_and_loss(h=32, w=64):
    """A toy train step up to its loss: weights, (d_l, d_r) and the loss."""
    cfg = NetConfig.toy()
    weights = init_weights(cfg, seed=0)
    rng = np.random.default_rng(11)
    left = rng.uniform(0, 1, (h, w, 3)).astype(np.float32)
    right = np.ascontiguousarray(np.roll(left, -5, axis=1))
    d_l, d_r = forward(left, right, weights)
    total, _ = losses.total_loss(Tensor(left), Tensor(right), d_l, d_r, losses.LossWeights(),
                                 cfg.disparity_range)
    return weights, (d_l, d_r), total


class TestGraphMemory:
    """What the autodiff graph of a toy forward plus loss keeps alive."""

    def test_no_backward_closure_holds_a_tensor(self, monkeypatch):
        # a closure that held its parent Tensors would keep their arrays
        # alive until backward, whether or not backward reads them
        closures = []

        def recording(make_op):
            def wrapper(data, parents, bwd):
                closures.append(bwd)
                return make_op(data, parents, bwd)
            return wrapper

        for module in (ad, convops, network, losses):
            monkeypatch.setattr(module, "make_op", recording(module.make_op))
        _toy_forward_and_loss()
        assert len(closures) > 100
        for bwd in closures:
            for cell in bwd.__closure__ or ():
                value = cell.cell_contents
                held = value if isinstance(value, (tuple, list)) else (value,)
                assert not any(isinstance(v, Tensor) for v in held), bwd.__qualname__

    def test_bytes_held_after_forward_and_loss(self):
        # Measured at 32x64: the graph holds 8.3 MiB, 4.4 MiB of them conv
        # input phases.  Closures that kept their parent Tensors held 19.7.
        _toy_forward_and_loss()  # build the cached conv grids outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            weights, maps, total = _toy_forward_and_loss()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        params = sum(t.data.nbytes for t in weights.named().values())
        assert held - params < 10 * 2 ** 20
        ad.backward(total)
        assert all(t.grad is not None for t in weights.named().values())
