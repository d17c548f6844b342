"""Warping and the self-supervised loss terms."""

import numpy as np
import pytest

from sssm import autodiff as ad
from sssm.autodiff import Tensor
from sssm.losses import (
    TO_LEFT,
    TO_RIGHT,
    LossWeights,
    loop_consistency_loss,
    mdh_loss,
    reconstruction_error,
    resample_horizontal,
    smoothness_loss,
    ssim,
    total_loss,
    unary_loss,
    warp,
)
from sssm.synth import constant_field, synth_pair


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr), requires_grad=requires_grad, dtype=np.float64)


def random_image(seed, h=6, w=10, c=3):
    return np.random.default_rng(seed).uniform(0, 1, (h, w, c))


class TestWarp:
    def test_zero_disparity_is_bitwise_identity(self):
        img = random_image(0).astype(np.float32)
        out = warp(Tensor(img), Tensor(np.zeros(img.shape[:2], np.float32)), TO_LEFT)
        np.testing.assert_array_equal(out.data, img)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_shift_to_left(self, k):
        img = random_image(1)
        d = np.full(img.shape[:2], float(k))
        out = warp(t64(img), t64(d), TO_LEFT).data
        np.testing.assert_allclose(out[:, k:], img[:, :-k], atol=1e-12)
        # columns with u - k < 0 clamp to the border pixel
        for u in range(k):
            np.testing.assert_allclose(out[:, u], img[:, 0], atol=1e-12)

    def test_integer_shift_to_right(self):
        img = random_image(2)
        d = np.full(img.shape[:2], 3.0)
        out = warp(t64(img), t64(d), TO_RIGHT).data
        np.testing.assert_allclose(out[:, :-3], img[:, 3:], atol=1e-12)
        np.testing.assert_allclose(out[:, -3:], np.broadcast_to(img[:, -1:], out[:, -3:].shape),
                                   atol=1e-12)

    def test_half_pixel_is_neighbour_average(self):
        img = random_image(3)
        out = warp(t64(img), t64(np.full(img.shape[:2], 0.5)), TO_LEFT).data
        expected = 0.5 * (img[:, 1:] + img[:, :-1])
        np.testing.assert_allclose(out[:, 1:], expected, atol=1e-12)

    def test_rejects_invalid_disparities(self):
        img = t64(random_image(4))
        d_neg = np.zeros((6, 10))
        d_neg[2, 3] = -0.5
        with pytest.raises(ValueError):
            warp(img, t64(d_neg), TO_LEFT)
        d_nan = np.zeros((6, 10))
        d_nan[0, 0] = np.nan
        with pytest.raises(ValueError):
            warp(img, t64(d_nan), TO_LEFT)
        with pytest.raises(ValueError):
            warp(img, t64(np.zeros((5, 10))), TO_LEFT)
        with pytest.raises(ValueError):
            warp(img, t64(np.zeros((6, 10))), "up")

    def test_disparity_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (4, 8, 2))
        dv = rng.uniform(0.2, 0.8, (4, 8)) + rng.integers(0, 3, (4, 8))
        d = t64(dv.copy(), requires_grad=True)
        proj = rng.standard_normal((4, 8, 2))

        def fn(dd):
            return float((resample_horizontal(img, dd, TO_LEFT) * proj).sum())

        loss = ad.sum_reduce(ad.mul(warp(t64(img), d, TO_LEFT), t64(proj)))
        ad.backward(loss)
        h = 1e-6
        for idx in [(0, 3), (2, 5), (3, 7), (1, 1)]:
            dp, dm = dv.copy(), dv.copy()
            dp[idx] += h
            dm[idx] -= h
            num = (fn(dp) - fn(dm)) / (2 * h)
            np.testing.assert_allclose(d.grad[idx], num, atol=1e-6)

    def test_source_gradient_scatters_bilinear_weights(self):
        src = t64(random_image(6, 2, 5, 1), requires_grad=True)
        d = t64(np.full((2, 5), 0.25))
        ad.backward(ad.sum_reduce(warp(src, d, TO_LEFT)))
        # every output reads x0 with weight .75 and x0+1 with .25
        assert src.grad is not None
        np.testing.assert_allclose(src.grad.sum(), 10.0, atol=1e-9)


class TestSsim:
    def test_self_similarity_is_one(self):
        img = t64(random_image(7))
        np.testing.assert_allclose(ssim(img, img).data, 1.0, atol=1e-6)

    def test_symmetry(self):
        x, y = t64(random_image(8)), t64(random_image(9))
        np.testing.assert_allclose(ssim(x, y).data, ssim(y, x).data, atol=1e-6)

    def test_constant_patch_closed_form(self):
        # x = 0, y = 1: means 0 and 1, variances 0:
        # (2*0*1 + 1e-4)/(0 + 1 + 1e-4) * (0 + 9e-4)/(0 + 9e-4)
        x = t64(np.zeros((5, 5, 1)))
        y = t64(np.ones((5, 5, 1)))
        expected = 1e-4 / (1.0 + 1e-4)
        np.testing.assert_allclose(ssim(x, y).data, expected, rtol=1e-9)
        assert abs(expected - 9.999e-5) < 1e-8

    def test_bounded(self):
        rng = np.random.default_rng(10)
        x = t64(rng.uniform(0, 1, (8, 8, 3)))
        y = t64(rng.uniform(0, 1, (8, 8, 3)))
        s = ssim(x, y).data
        assert s.min() >= -1.0 - 1e-9 and s.max() <= 1.0 + 1e-9


class TestUnaryLoss:
    def test_identical_images_zero(self):
        img = t64(random_image(11))
        assert unary_loss(img, img, LossWeights()).item() == pytest.approx(0.0, abs=1e-9)

    def test_constant_mismatch_closed_form(self):
        # SSIM term 0.8*(1 - 9.999e-5)/2, L1 term 0.15*1, gradient term 0
        x = t64(np.zeros((6, 6, 3)))
        y = t64(np.ones((6, 6, 3)))
        val = unary_loss(x, y, LossWeights()).item()
        expected = 0.80 * (1 - 1e-4 / 1.0001) / 2 + 0.15 * 1.0
        np.testing.assert_allclose(val, expected, atol=1e-6)
        assert abs(expected - 0.54996) < 5e-5

    def test_monotone_along_interpolation(self):
        rng = np.random.default_rng(12)
        a, b = rng.uniform(0, 1, (6, 8, 3)), rng.uniform(0, 1, (6, 8, 3))
        losses = []
        for alpha in np.linspace(0, 1, 6):
            rec = t64(b + alpha * (a - b))
            losses.append(unary_loss(t64(a), rec, LossWeights()).item())
        assert all(losses[i] >= losses[i + 1] - 1e-9 for i in range(5))
        assert losses[-1] == pytest.approx(0.0, abs=1e-9)


class TestSmoothnessLoss:
    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (0.5, 0.0), (0.25, 1.0)])
    def test_affine_disparity_costs_nothing(self, a, b):
        h, w = 6, 9
        u = np.arange(w)[None, :] * np.ones((h, 1))
        v = np.arange(h)[:, None] * np.ones((1, w))
        d = t64(a * u + 0.125 * v + b)
        img = t64(random_image(13, h, w))
        assert smoothness_loss(d, img).item() == 0.0

    def test_constant_disparity_costs_nothing(self):
        d = t64(np.full((5, 7), 3.0))
        assert smoothness_loss(d, t64(random_image(14, 5, 7))).item() == 0.0

    def test_edge_aligned_step_is_cheaper(self):
        h, w = 6, 10
        d = np.full((h, w), 1.0)
        d[:, 5:] = 4.0
        flat = t64(np.full((h, w, 3), 0.5))
        edged_img = np.full((h, w, 3), 0.2)
        edged_img[:, 5:] = 0.9  # intensity edge at the disparity step
        edged = t64(edged_img)
        loss_flat = smoothness_loss(t64(d), flat).item()
        loss_edged = smoothness_loss(t64(d), edged).item()
        assert loss_edged < loss_flat

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        d = t64(rng.uniform(0, 5, (6, 8)))
        assert smoothness_loss(d, t64(random_image(16, 6, 8))).item() >= 0.0


class TestLoopConsistency:
    def test_zero_disparities_zero_loss(self):
        i_l, i_r = t64(random_image(17)), t64(random_image(18))
        z = t64(np.zeros((6, 10)))
        loop_l = loop_consistency_loss(i_l, warp(i_l, z, TO_RIGHT), z, "l")
        loop_r = loop_consistency_loss(i_r, warp(i_r, z, TO_LEFT), z, "r")
        assert loop_l.item() == pytest.approx(0.0, abs=1e-12)
        assert loop_r.item() == pytest.approx(0.0, abs=1e-12)

    def test_constructed_consistent_pair(self):
        # integer constant shift, interior only: the round trip is exact
        k = 3
        pair = synth_pair(19, 16, 48, constant_field(float(k)))
        d = np.full((16, 48), np.float32(k))
        i_l, i_r = Tensor(pair.left), Tensor(pair.right)
        across = warp(i_l, Tensor(d), TO_RIGHT)
        loss = loop_consistency_loss(i_l, across, Tensor(d), "l", margin=2 * k)
        assert loss.item() < 1e-6


class TestMdh:
    def test_zero_and_constant(self):
        assert mdh_loss(t64(np.zeros((4, 6)))).item() == 0.0
        assert mdh_loss(t64(np.full((4, 6), 5.0))).item() == 5.0

    def test_matches_brute_mean(self):
        rng = np.random.default_rng(20)
        d = rng.uniform(0, 9, (5, 8))
        np.testing.assert_allclose(mdh_loss(t64(d)).item(), np.abs(d).mean(), rtol=1e-12)


class TestTotalLoss:
    def test_perfect_reconstruction_zero(self):
        img = random_image(21)
        i = t64(img)
        z = t64(np.zeros(img.shape[:2]))
        lw = LossWeights(w_mdh=0.0)
        total, report = total_loss(i, i, z, z, lw)
        assert total.item() == pytest.approx(0.0, abs=1e-9)
        assert report.total == pytest.approx(0.0, abs=1e-9)

    def test_total_is_weighted_sum_of_parts(self):
        rng = np.random.default_rng(22)
        i_l = t64(rng.uniform(0, 1, (8, 12, 3)))
        i_r = t64(rng.uniform(0, 1, (8, 12, 3)))
        d_l = t64(rng.uniform(0, 3, (8, 12)))
        d_r = t64(rng.uniform(0, 3, (8, 12)))
        lw = LossWeights(w_photo=1.0, w_smooth=0.001, w_consistency=1.0, w_mdh=0.001)
        total, rep = total_loss(i_l, i_r, d_l, d_r, lw, margin=2)
        manual = (lw.w_photo * (rep.unary_l + rep.unary_r)
                  + lw.w_smooth * (rep.smooth_l + rep.smooth_r)
                  + lw.w_consistency * (rep.loop_l + rep.loop_r)
                  + lw.w_mdh * (rep.mdh_l + rep.mdh_r))
        assert abs(total.item() - manual) < 1e-6
        assert abs(rep.total - manual) < 1e-6

    def test_all_terms_nonnegative(self):
        rng = np.random.default_rng(23)
        i_l = t64(rng.uniform(0, 1, (6, 10, 3)))
        i_r = t64(rng.uniform(0, 1, (6, 10, 3)))
        d_l = t64(rng.uniform(0, 2, (6, 10)))
        d_r = t64(rng.uniform(0, 2, (6, 10)))
        _, rep = total_loss(i_l, i_r, d_l, d_r, LossWeights())
        for name, value in rep.terms().items():
            assert value >= 0.0, name

    def test_gradient_wrt_disparities_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        i_l = rng.uniform(0.2, 0.8, (6, 12, 3))
        i_r = rng.uniform(0.2, 0.8, (6, 12, 3))
        dv_l = rng.uniform(0.2, 0.8, (6, 12)) + 1.0
        dv_r = rng.uniform(0.2, 0.8, (6, 12)) + 1.0
        lw = LossWeights()
        d_l = t64(dv_l.copy(), requires_grad=True)
        d_r = t64(dv_r.copy(), requires_grad=True)
        total, _ = total_loss(t64(i_l), t64(i_r), d_l, d_r, lw, margin=1)
        ad.backward(total)

        def value(a, b):
            with ad.no_grad():
                t, _ = total_loss(t64(i_l), t64(i_r), t64(a), t64(b), lw, margin=1)
            return t.item()

        h = 1e-6
        for idx in [(1, 4), (3, 8), (5, 6)]:
            dp, dm = dv_l.copy(), dv_l.copy()
            dp[idx] += h
            dm[idx] -= h
            num = (value(dp, dv_r) - value(dm, dv_r)) / (2 * h)
            np.testing.assert_allclose(d_l.grad[idx], num, atol=2e-5)


class TestReconstructionError:
    def test_zero_for_identical_views(self):
        img = random_image(25).astype(np.float32)
        z = np.zeros(img.shape[:2], np.float32)
        assert reconstruction_error(img, img, z, z) == 0.0

    def test_synthetic_pair_near_zero_at_true_disparity(self):
        # gt.values is the left-view field (zeroed where invalid); the
        # right-view truth for a constant scene is the constant everywhere
        pair = synth_pair(26, 16, 64, constant_field(4.0))
        d_r = np.full((16, 64), np.float32(4.0))
        err = reconstruction_error(pair.left, pair.right, pair.gt.values, d_r, margin=8)
        assert err < 1e-3

    def test_margin_validation(self):
        img = random_image(27).astype(np.float32)
        z = np.zeros(img.shape[:2], np.float32)
        with pytest.raises(ValueError):
            reconstruction_error(img, img, z, z, margin=img.shape[1])
