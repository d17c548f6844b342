"""Warping-based training losses: the only supervision signal used.

Given predicted disparities for both views, each image is reconstructed by
horizontally resampling the other view.  The loss compares reconstructions
with observations (photometric + SSIM + gradient), regularises disparity
curvature (edge-weighted second-order smoothness), closes the warp loop
(left -> right -> left must land on the original), and mildly penalises
disparity magnitude to break the zero-texture ambiguity.  Each view is
warped across once: the loop terms and the reported (not summed) warp
error reuse the two unary reconstructions.

Per-side border margins exclude the columns where the sampled position
falls outside the other view for most candidate disparities: the leftmost
columns for left-view terms, the rightmost for right-view terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, accumulate, make_op, sink

TO_LEFT = "to_left"
TO_RIGHT = "to_right"

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass
class LossWeights:
    """Loss term weights.

    w_smooth is the from-scratch value; the trainer raises it once the
    matcher has locked on (a strong prior too early flattens everything).
    """

    w_photo: float = 1.0
    w_smooth: float = 0.001
    w_consistency: float = 1.0
    w_mdh: float = 0.001
    lam_ssim: float = 0.80
    lam_l1: float = 0.15
    lam_grad: float = 0.15

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"LossWeights.{f.name} must be finite and >= 0, got {value}")


@dataclass
class LossReport:
    """Scalar values of one loss evaluation (for logging).

    ``total`` sums the eight terms after it.  ``warp_error``, last, is
    reported, not summed: ``reconstruction_error`` of the same frame.
    """

    total: float
    unary_l: float
    unary_r: float
    smooth_l: float
    smooth_r: float
    loop_l: float
    loop_r: float
    mdh_l: float
    mdh_r: float
    warp_error: float

    def terms(self) -> dict[str, float]:
        """The eight summands of ``total``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:-1]}


def _validate_warp(source: np.ndarray, disparity: np.ndarray, direction: str) -> None:
    if direction not in (TO_LEFT, TO_RIGHT):
        raise ValueError(f"warp: unknown direction {direction!r}")
    if source.ndim != 3:
        raise ValueError(f"warp: expected (H, W, C) source, got shape {source.shape}")
    h, w = source.shape[:2]
    if disparity.shape != (h, w):
        raise ValueError(f"warp: disparity shape {disparity.shape} != {(h, w)}")
    if w < 2:
        raise ValueError("warp: need W >= 2")
    if not np.all(np.isfinite(disparity)):
        raise ValueError("warp: non-finite disparities")
    if np.any(disparity < 0):
        raise ValueError("warp: negative disparities")


def _bilinear_gather(source: np.ndarray, disparity: np.ndarray, sign: float):
    """Shared sampling core: (out, sample_x, floor_index, frac, g0, g1, rows)."""
    h, w = source.shape[:2]
    u = np.arange(w, dtype=disparity.dtype)
    x = u + sign * disparity
    xc = np.clip(x, 0.0, w - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.intp)
    frac = (xc - x0).astype(source.dtype)
    rows = np.arange(h, dtype=np.intp)[:, None]
    g0 = source[rows, x0]
    g1 = source[rows, x0 + 1]
    fr = frac[:, :, None]
    out = (1.0 - fr) * g0 + fr * g1
    return out, x, x0, fr, g0, g1, rows


def resample_horizontal(source: np.ndarray, disparity: np.ndarray, direction: str) -> np.ndarray:
    """Plain-array version of ``warp`` for metrics and data synthesis."""
    _validate_warp(source, disparity, direction)
    sign = 1.0 if direction == TO_RIGHT else -1.0
    return _bilinear_gather(source, disparity, sign)[0]


def warp(source: Tensor, disparity: Tensor, direction: str) -> Tensor:
    """Resample ``source`` horizontally along epipolar lines.

    direction "to_left": out(u, v) = source(u - d(u, v), v), i.e. rebuild
    the left view from right-view pixels.  "to_right" samples at u + d.
    Bilinear in u, sample positions clamped to [0, W-1].  Differentiable in
    both the source and the disparity (zero slope where clamped).
    Disparities must be finite and non-negative.
    """
    _validate_warp(source.data, disparity.data, direction)
    h, w, c = source.data.shape
    sign = 1.0 if direction == TO_RIGHT else -1.0
    out_data, x, x0, fr, g0, g1, rows = _bilinear_gather(source.data, disparity.data, sign)
    s_source, s_disp = sink(source), sink(disparity)
    # backward reads how the samples were taken, and for the disparity
    # gradient the slope between them, but never the source itself
    slope = g1 - g0 if s_disp is not None else None
    inside = (x > 0.0) & (x < w - 1.0)
    dtype, d_dtype = source.data.dtype, disparity.data.dtype

    def bwd(g):
        if s_disp is not None:
            gd = (g * slope).sum(axis=2) * inside
            accumulate(s_disp, gd.astype(d_dtype) * d_dtype.type(sign))
        if s_source is not None:
            gs = np.zeros((h, w, c), dtype=dtype)
            np.add.at(gs, (rows, x0), g * (1.0 - fr))
            np.add.at(gs, (rows, x0 + 1), g * fr)
            accumulate(s_source, gs)

    return make_op(out_data, (source, disparity), bwd)


def reconstruction_error(left: np.ndarray, right: np.ndarray,
                         d_left: np.ndarray, d_right: np.ndarray, margin: int = 0) -> float:
    """Mean absolute warping error over both views' interior columns.

    The self-supervised analogue of an accuracy metric: how well the
    predicted disparities explain each image from the other one.
    """
    return _warp_error(left, right, resample_horizontal(right, d_left, TO_LEFT),
                       resample_horizontal(left, d_right, TO_RIGHT), margin)


def _warp_error(left, right, rec_l, rec_r, margin: int) -> float:
    """``reconstruction_error`` from the two views' reconstructions."""
    w = left.shape[1]
    if not 0 <= margin < w:
        raise ValueError(f"reconstruction_error: margin {margin} must be in [0, {w})")
    err_l = np.abs(left - rec_l)[:, margin:]
    err_r = np.abs(right - rec_r)[:, : w - margin if margin else w]
    return float(0.5 * (err_l.mean() + err_r.mean()))


def ssim(x: Tensor, y: Tensor) -> Tensor:
    """Per-pixel structural similarity over 3x3 box windows.

    Means, variances and covariance come from edge-replicated box filters;
    stabilisers C1 = 0.01^2 and C2 = 0.03^2 assume a [0, 1] value range.
    """
    if x.data.shape != y.data.shape:
        raise ValueError(f"ssim: shape mismatch {x.data.shape} vs {y.data.shape}")
    mu_x = ad.mean_pool3x3(x)
    mu_y = ad.mean_pool3x3(y)
    var_x = ad.sub(ad.mean_pool3x3(ad.mul(x, x)), ad.mul(mu_x, mu_x))
    var_y = ad.sub(ad.mean_pool3x3(ad.mul(y, y)), ad.mul(mu_y, mu_y))
    cov = ad.sub(ad.mean_pool3x3(ad.mul(x, y)), ad.mul(mu_x, mu_y))
    lum = ad.add_scalar(ad.scale(ad.mul(mu_x, mu_y), 2.0), SSIM_C1)
    lum_n = ad.add_scalar(ad.add(ad.mul(mu_x, mu_x), ad.mul(mu_y, mu_y)), SSIM_C1)
    struct = ad.add_scalar(ad.scale(cov, 2.0), SSIM_C2)
    struct_n = ad.add_scalar(ad.add(var_x, var_y), SSIM_C2)
    return ad.div(ad.mul(lum, struct), ad.mul(lum_n, struct_n))


def _interior(t: Tensor, side: str, margin: int) -> Tensor:
    """Drop ``margin`` columns on the occlusion side ('l' left, 'r' right)."""
    if margin == 0:
        return t
    w = t.data.shape[1]
    if not 0 < margin < w:
        raise ValueError(f"border margin {margin} must be in [0, {w})")
    bounds = [None] * t.data.ndim
    bounds[1] = (margin, w) if side == "l" else (0, w - margin)
    return ad.crop(t, tuple(bounds))


def _masked_mean(t: Tensor, side: str, margin: int) -> Tensor:
    return ad.mean_reduce(_interior(t, side, margin))


def unary_loss(observed: Tensor, reconstructed: Tensor, weights: LossWeights,
               side: str = "l", margin: int = 0) -> Tensor:
    """Appearance mismatch: SSIM + absolute difference + gradient difference."""
    s = ad.scale(ad.add_scalar(ad.scale(ssim(observed, reconstructed), -1.0), 1.0), 0.5)
    l1 = ad.abs_(ad.sub(observed, reconstructed))
    grads = None
    for axis in ("u", "v"):
        g = ad.abs_(ad.sub(
            ad.spatial_gradients(observed, 1, axis),
            ad.spatial_gradients(reconstructed, 1, axis),
        ))
        grads = g if grads is None else ad.add(grads, g)
    pixel = ad.add(
        ad.add(ad.scale(s, weights.lam_ssim), ad.scale(l1, weights.lam_l1)),
        ad.scale(grads, weights.lam_grad),
    )
    return _masked_mean(pixel, side, margin)


def smoothness_loss(disparity: Tensor, image: Tensor, side: str = "l", margin: int = 0) -> Tensor:
    """Second-order disparity smoothness, relaxed across image edges.

    The edge weights exp(-|second difference of the gray image|) come from
    the image's values, so only ``disparity`` is differentiated; an image
    that takes a gradient is refused.  Exactly zero for affine disparity
    fields: their second differences vanish identically, independent of
    the edge weights.
    """
    if disparity.data.ndim != 2:
        raise ValueError(f"smoothness_loss: expected (H, W) disparity, got {disparity.data.shape}")
    if image.requires_grad:
        raise ValueError("smoothness_loss: image takes a gradient, which the edge weights do not pass on; "
                         "pass its values")
    gray = Tensor(image.data.mean(axis=2))
    pixel = None
    for axis in ("u", "v"):
        curvature = ad.abs_(ad.spatial_gradients(disparity, 2, axis))
        edge = Tensor(np.exp(-np.abs(ad.spatial_gradients(gray, 2, axis).data)))
        term = ad.mul(curvature, edge)
        pixel = term if pixel is None else ad.add(pixel, term)
    return _masked_mean(pixel, side, margin)


def loop_consistency_loss(image: Tensor, across: Tensor, disparity: Tensor,
                          side: str = "l", margin: int = 0) -> Tensor:
    """Round-trip error: warp ``across`` back with ``disparity``, compare to ``image``.

    ``across`` is ``image`` carried to the other view, which is that view's
    unary reconstruction: for the left side ``warp(i_left, d_right,
    TO_RIGHT)``, warped back TO_LEFT with the left disparity; for the right
    side ``warp(i_right, d_left, TO_LEFT)``, warped back TO_RIGHT.
    """
    back = warp(across, disparity, TO_LEFT if side == "l" else TO_RIGHT)
    return _masked_mean(ad.abs_(ad.sub(image, back)), side, margin)


def mdh_loss(disparity: Tensor, side: str = "l", margin: int = 0) -> Tensor:
    """Mean absolute disparity: nudges textureless regions toward zero shift."""
    return _masked_mean(ad.abs_(disparity), side, margin)


def total_loss(i_left: Tensor, i_right: Tensor, d_left: Tensor, d_right: Tensor,
               weights: LossWeights, margin: int = 0) -> tuple[Tensor, LossReport]:
    """Full training objective; returns the scalar graph node and a report.

    total = w_photo * (unary_l + unary_r) + w_smooth * (smooth_l + smooth_r)
          + w_consistency * (loop_l + loop_r) + w_mdh * (mdh_l + mdh_r)
    """
    rec_l = warp(i_right, d_left, TO_LEFT)
    rec_r = warp(i_left, d_right, TO_RIGHT)
    terms = {
        "unary_l": unary_loss(i_left, rec_l, weights, "l", margin),
        "unary_r": unary_loss(i_right, rec_r, weights, "r", margin),
        "smooth_l": smoothness_loss(d_left, i_left, "l", margin),
        "smooth_r": smoothness_loss(d_right, i_right, "r", margin),
        "loop_l": loop_consistency_loss(i_left, rec_r, d_left, "l", margin),
        "loop_r": loop_consistency_loss(i_right, rec_l, d_right, "r", margin),
        "mdh_l": mdh_loss(d_left, "l", margin),
        "mdh_r": mdh_loss(d_right, "r", margin),
    }

    def both(name: str) -> Tensor:
        return ad.add(terms[name + "_l"], terms[name + "_r"])

    total = ad.scale(both("unary"), weights.w_photo)
    total = ad.add(total, ad.scale(both("smooth"), weights.w_smooth))
    total = ad.add(total, ad.scale(both("loop"), weights.w_consistency))
    total = ad.add(total, ad.scale(both("mdh"), weights.w_mdh))
    warp_error = _warp_error(i_left.data, i_right.data, rec_l.data, rec_r.data, margin)
    return total, LossReport(total.item(), **{n: t.item() for n, t in terms.items()}, warp_error=warp_error)
