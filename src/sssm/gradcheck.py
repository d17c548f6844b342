"""Finite-difference oracles for every differentiable operation.

Each check builds a scalar-valued function of float64 tensors, runs one
analytic backward pass, then probes coordinates with central differences
(f(x+h) - f(x-h)) / 2h at h = 1e-5.  A coordinate passes when

    |analytic - numeric| <= 1e-6 + 1e-4 * max(|analytic|, |numeric|)

Inputs are sampled away from the kinks of abs/relu/floor so the comparison
is meaningful; seeds are fixed, so the suite is deterministic.  Large
tensors are probed on a seeded random subset of coordinates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor, no_grad
from .convops import conv2d, conv3d, deconv3d
from .losses import LossWeights
from .network import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    NetConfig,
    build_feature_volume,
    forward,
    init_weights,
    soft_argmin,
    volume_conv,
)

EPS = 1e-5
ATOL = 1e-6
RTOL = 1e-4


@dataclass
class CheckResult:
    name: str
    ok: bool
    max_err: float
    worst_tol: float
    coords: int

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: max |analytic - numeric| = {self.max_err:.3e} "
            f"(tolerance {self.worst_tol:.3e}, {self.coords} coordinates)"
        )


def check_gradients(fn, tensors, name: str, rng: np.random.Generator,
                    max_coords: int = 40) -> CheckResult:
    """Compare backprop against central differences on a coordinate sample."""
    for t in tensors:
        t.grad = None
    loss = fn()
    ad.backward(loss)
    max_err = 0.0
    worst_tol = ATOL
    ok = True
    total = 0
    for t in tensors:
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        grad = np.zeros_like(flat) if t.grad is None else t.grad.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + EPS
            with no_grad():
                f_plus = fn().item()
            flat[c] = orig - EPS
            with no_grad():
                f_minus = fn().item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2 * EPS)
            analytic = float(grad[c])
            err = abs(analytic - numeric)
            tol = ATOL + RTOL * max(abs(analytic), abs(numeric))
            if err > max_err:
                max_err = err
                worst_tol = tol
            if err > tol:
                ok = False
            total += 1
    return CheckResult(name=name, ok=ok, max_err=max_err, worst_tol=worst_tol, coords=total)


def _t(rng: np.random.Generator, *shape, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True, dtype=np.float64)


def _away_from_zero(rng: np.random.Generator, *shape, min_mag=0.2) -> Tensor:
    mag = rng.uniform(min_mag, 1.0, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True, dtype=np.float64)


def _project(out: Tensor, salt: int = 0) -> Tensor:
    """Fixed random projection to a scalar so gradients are non-uniform.

    Seeded from the output shape, so repeated evaluations of the same check
    (the two sides of a central difference) project identically.
    """
    rng = np.random.default_rng((1234, salt) + out.data.shape)
    k = Tensor(rng.standard_normal(out.data.shape), dtype=np.float64)
    return ad.mean_reduce(ad.mul(out, k))


def _elementwise_checks(seed):
    rng = np.random.default_rng(seed)
    checks = []

    def binary(name, op, a, b):
        checks.append((name, lambda: _project(op(a, b)), [a, b]))

    a, b = _t(rng, 4, 5), _t(rng, 4, 5)
    binary("add", ad.add, a, b)
    a, b = _t(rng, 4, 5), _t(rng, 4, 5)
    binary("sub", ad.sub, a, b)
    a, b = _t(rng, 4, 5), _t(rng, 4, 5)
    binary("mul", ad.mul, a, b)
    a = _t(rng, 4, 5)
    b = Tensor(rng.uniform(0.5, 1.5, size=(4, 5)) * np.where(rng.uniform(size=(4, 5)) < 0.5, -1, 1),
               requires_grad=True, dtype=np.float64)
    binary("div", ad.div, a, b)
    x = _away_from_zero(rng, 3, 4)
    checks.append(("abs", lambda x=x: _project(ad.abs_(x)), [x]))
    x = _away_from_zero(rng, 3, 4)
    checks.append(("relu", lambda x=x: _project(ad.relu(x)), [x]))
    x = _t(rng, 3, 4)
    checks.append(("scale", lambda x=x: _project(ad.scale(x, -1.7)), [x]))
    x = _t(rng, 3, 4)
    checks.append(("add_scalar", lambda x=x: _project(ad.add_scalar(x, 0.3)), [x]))
    x = _t(rng, 3, 4, 2)
    checks.append(("mean_all", lambda x=x: ad.mean_reduce(x), [x]))
    x = _t(rng, 3, 4)
    checks.append(("reshape", lambda x=x: _project(ad.reshape(x, (2, 6))), [x]))
    x = _t(rng, 5, 6)
    checks.append(("crop", lambda x=x: _project(ad.crop(x, ((1, 4), (2, 6)))), [x]))
    for order in (1, 2):
        for axis in ("u", "v"):
            x = _t(rng, 5, 6, 2)
            checks.append((
                f"grad{order}_{axis}",
                lambda x=x, o=order, a=axis: _project(ad.spatial_gradients(x, o, a)),
                [x],
            ))
    x = _t(rng, 5, 6, 2)
    checks.append(("mean_pool3x3", lambda x=x: _project(ad.mean_pool3x3(x)), [x]))
    return checks


def _conv_checks(seed):
    rng = np.random.default_rng(seed)
    checks = []
    x, k, b = _t(rng, 5, 6, 2), _t(rng, 3, 3, 2, 3), _t(rng, 3)
    checks.append(("conv2d_s1", lambda x=x, k=k, b=b: _project(conv2d(x, k, b)), [x, k, b]))
    x, k, b = _t(rng, 6, 8, 2), _t(rng, 3, 3, 2, 3), _t(rng, 3)
    checks.append(("conv2d_s2", lambda x=x, k=k, b=b: _project(conv2d(x, k, b, stride=2)), [x, k, b]))
    x, k, b = _t(rng, 4, 5, 4, 2), _t(rng, 3, 3, 3, 2, 2), _t(rng, 2)
    checks.append(("conv3d_s1", lambda x=x, k=k, b=b: _project(conv3d(x, k, b)), [x, k, b]))
    x, k, b = _t(rng, 4, 6, 4, 2), _t(rng, 3, 3, 3, 2, 2), _t(rng, 2)
    checks.append(("conv3d_s2", lambda x=x, k=k, b=b: _project(conv3d(x, k, b, stride=2)), [x, k, b]))
    y, k, b = _t(rng, 2, 3, 2, 2), _t(rng, 3, 3, 3, 3, 2), _t(rng, 3)
    checks.append(("deconv3d", lambda y=y, k=k, b=b: _project(deconv3d(y, k, b)), [y, k, b]))
    # On the tall map the volume_conv grids flatten H innermost.
    for direction in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        for hw, depth, suffix in (((4, 6), 6, "padded"), ((8, 4), None, "tall")):
            fa, fb, k, b = _t(rng, *hw, 2), _t(rng, *hw, 2), _t(rng, 3, 3, 3, 4, 2), _t(rng, 2)
            checks.append((
                f"volume_conv_{direction}_{suffix}",
                lambda fa=fa, fb=fb, k=k, b=b, d=direction, n=depth:
                    _project(volume_conv(fa, fb, k, b, 3, d, n)),
                [fa, fb, k, b],
            ))
    # The network's layout: the disparity axis, last, is the shortest.
    x, k, b = _t(rng, 5, 6, 3, 2), _t(rng, 3, 3, 3, 2, 2), _t(rng, 2)
    checks.append(("conv3d_s1_d_shortest", lambda x=x, k=k, b=b: _project(conv3d(x, k, b)), [x, k, b]))
    x, k, b = _t(rng, 6, 8, 4, 2), _t(rng, 3, 3, 3, 2, 2), _t(rng, 2)
    checks.append(("conv3d_s2_d_shortest",
                   lambda x=x, k=k, b=b: _project(conv3d(x, k, b, stride=2)), [x, k, b]))
    y, k, b = _t(rng, 3, 4, 2, 2), _t(rng, 3, 3, 3, 3, 2), _t(rng, 3)
    checks.append(("deconv3d_d_shortest", lambda y=y, k=k, b=b: _project(deconv3d(y, k, b)), [y, k, b]))
    x, k, b = _t(rng, 7, 4, 2), _t(rng, 3, 3, 2, 3), _t(rng, 3)
    checks.append(("conv2d_s1_tall", lambda x=x, k=k, b=b: _project(conv2d(x, k, b)), [x, k, b]))
    # A recomputed segment, its input included: the gradient's path to x
    # runs through the fresh leaf that backward rebuilds.
    x = _t(rng, 5, 6, 2)
    p = {"k1": _t(rng, 3, 3, 2, 3), "b1": _t(rng, 3), "k2": _t(rng, 3, 3, 3, 2), "b2": _t(rng, 2)}

    def segment(x, p):
        return ad.relu(conv2d(ad.relu(conv2d(x, p["k1"], p["b1"])), p["k2"], p["b2"]))

    checks.append(("checkpoint", lambda x=x, p=p: _project(ad.checkpoint(segment, x, p)), [x, *p.values()]))
    return checks


def _stereo_checks(seed):
    rng = np.random.default_rng(seed)
    checks = []
    for direction in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        fa, fb = _t(rng, 3, 8, 2), _t(rng, 3, 8, 2)
        for depth, suffix in ((None, ""), (6, "_padded")):
            checks.append((
                f"feature_volume_{direction}{suffix}",
                lambda fa=fa, fb=fb, d=direction, n=depth:
                    _project(build_feature_volume(fa, fb, 3, d, n)),
                [fa, fb],
            ))
    costs = _t(rng, 3, 4, 6, low=-2.0, high=2.0)
    checks.append(("soft_argmin", lambda c=costs: _project(soft_argmin(c)), [costs]))

    def smooth_image(h, w, requires_grad=True):
        base = rng.uniform(0.3, 0.7, size=(h, w, 3))
        return Tensor(base, requires_grad=requires_grad, dtype=np.float64)

    def kink_free_disp(h, w, lo, hi):
        # integer part + a fraction well inside (0, 1): no floor kinks nearby
        d = rng.integers(lo, hi, size=(h, w)).astype(np.float64) + rng.uniform(0.2, 0.8, size=(h, w))
        return Tensor(d, requires_grad=True, dtype=np.float64)

    for direction in (losses.TO_LEFT, losses.TO_RIGHT):
        src = smooth_image(4, 10)
        d = kink_free_disp(4, 10, 0, 3)
        checks.append((
            f"warp_{direction}",
            lambda s=src, d=d, dr=direction: _project(losses.warp(s, d, dr)),
            [src, d],
        ))
    x, y = smooth_image(5, 6), smooth_image(5, 6)
    checks.append(("ssim", lambda x=x, y=y: _project(losses.ssim(x, y)), [x, y]))
    obs, rec = smooth_image(5, 8), smooth_image(5, 8)
    checks.append((
        "unary",
        lambda o=obs, r=rec: losses.unary_loss(o, r, LossWeights(), "l", 1),
        [obs, rec],
    ))
    # the losses take an image's edge weights from its values, so the
    # smoothness and total_loss oracles differentiate only the disparities
    img = smooth_image(5, 8, requires_grad=False)
    d = kink_free_disp(5, 8, 0, 3)
    checks.append((
        "smoothness",
        lambda d=d, i=img: losses.smoothness_loss(d, i, "r", 1),
        [d],
    ))
    img, across = smooth_image(4, 10), smooth_image(4, 10)
    d = kink_free_disp(4, 10, 0, 3)
    checks.append((
        "loop_consistency",
        lambda i=img, a=across, d=d: losses.loop_consistency_loss(i, a, d, "l", 1),
        [img, across, d],
    ))
    d = kink_free_disp(4, 6, 0, 3)
    checks.append(("mdh", lambda d=d: losses.mdh_loss(d, "l", 1), [d]))
    il2, ir2 = smooth_image(4, 10, requires_grad=False), smooth_image(4, 10, requires_grad=False)
    dl2, dr2 = kink_free_disp(4, 10, 0, 3), kink_free_disp(4, 10, 0, 3)
    checks.append((
        "total_loss",
        lambda: losses.total_loss(il2, ir2, dl2, dr2, LossWeights(), margin=2)[0],
        [dl2, dr2],
    ))
    return checks


def _pipeline_check(seed):
    """End-to-end: d(total loss)/d(every network parameter) on a micro net."""
    cfg = NetConfig(feature_layers=3, feature_dim=4, disparity_range=4, restdm_scales=2)
    weights = init_weights(cfg, seed=seed, dtype=np.float64)
    # Zero-init biases park pre-activations exactly on the relu kink wherever
    # a receptive field is fully inactive, so central differences would
    # measure a one-sided slope there.  Nudge biases off zero for the check.
    bias_rng = np.random.default_rng(seed + 2)
    for name, t in weights.params.items():
        if name.endswith("/b"):
            t.data += bias_rng.uniform(-0.05, 0.05, size=t.data.shape)
    rng = np.random.default_rng(seed + 1)
    i_l = Tensor(rng.uniform(0.25, 0.75, size=(8, 16, 3)), dtype=np.float64)
    i_r = Tensor(rng.uniform(0.25, 0.75, size=(8, 16, 3)), dtype=np.float64)

    def fn():
        d_l, d_r = forward(i_l, i_r, weights)
        return losses.total_loss(i_l, i_r, d_l, d_r, LossWeights(), margin=2)[0]

    return [("pipeline", fn, list(weights.params.values()))]


def check_table(seed: int = 0) -> list[tuple]:
    """Every oracle as (name, scalar function, input tensors, coordinate cap); deterministic."""
    groups = [(_elementwise_checks(seed), 40), (_conv_checks(seed + 100), 40),
              (_stereo_checks(seed + 200), 40), (_pipeline_check(seed + 300), 8)]
    return [(name, fn, tensors, cap) for checks, cap in groups for name, fn, tensors in checks]


def run_suite(seed: int = 0) -> list[CheckResult]:
    """All gradient oracles; deterministic for a given seed."""
    results = []
    for name, fn, tensors, cap in check_table(seed):
        rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
        results.append(check_gradients(fn, tensors, name, rng, max_coords=cap))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(not r.ok for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return "\n".join(lines)
