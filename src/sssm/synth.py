"""Synthetic stereo pairs with exact ground truth.

The right image is band-limited random texture; the left image is built by
resampling the right one with a chosen disparity field, using the very same
bilinear kernel the training losses use.  The field is therefore the exact
left-view ground truth, and at the true disparities the photometric
reconstruction is perfect by construction.

Texture matters: pure white noise gives bilinear interpolation nothing to
hold on to (the photometric loss basin is one pixel wide), so the texture
mixes a coarse and a fine smoothed-noise component, which gives the loss
long-range gradients plus a sharp minimum.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import DisparityGT, StereoPair
from .imageio import write_gt_pgm, write_image
from .losses import TO_LEFT, resample_horizontal


def _smoothed_noise(rng: np.random.Generator, h: int, w: int, sigma: float) -> np.ndarray:
    """Unit-variance Gaussian-blurred noise, blurred spectrally (periodic)."""
    noise = rng.standard_normal((h, w, 3))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    mask = np.exp(-2.0 * np.pi ** 2 * sigma ** 2 * (fx ** 2 + fy ** 2))
    out = np.fft.irfft2(np.fft.rfft2(noise, axes=(0, 1)) * mask[:, :, None], s=(h, w), axes=(0, 1))
    return (out - out.mean()) / (out.std() + 1e-12)


def band_limited_texture(rng: np.random.Generator, h: int, w: int,
                         coarse_sigma: float = 6.0, fine_sigma: float = 1.5,
                         amplitude: float = 0.16) -> np.ndarray:
    """Float32 (H, W, 3) texture centred at 0.5, nearly clip-free."""
    mix = 0.65 * _smoothed_noise(rng, h, w, coarse_sigma) + 0.35 * _smoothed_noise(rng, h, w, fine_sigma)
    return np.clip(0.5 + amplitude * mix, 0.0, 1.0).astype(np.float32)


def constant_field(k: float):
    """Everything shifted by the same amount: the simplest scene."""
    if not 0 <= k < math.inf:
        raise ValueError(f"constant_field: disparity must be finite and >= 0, got {k}")

    def build(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
        return np.full((h, w), np.float32(k), dtype=np.float32)

    return build


def planar_field(d0: float, du: float, dv: float, d_max: float):
    """An affine ramp d(u, v) = d0 + du*u + dv*v, clipped to [0, d_max]."""
    if not (all(map(math.isfinite, (d0, du, dv))) and d_max >= 0):
        raise ValueError(f"planar_field: need finite d0, du, dv and d_max >= 0, got {d0, du, dv, d_max}")

    def build(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
        u = np.arange(w, dtype=np.float32)[None, :]
        v = np.arange(h, dtype=np.float32)[:, None]
        return np.clip(d0 + du * u + dv * v, 0.0, d_max).astype(np.float32)

    return build


def split_field(k_left: float, k_right: float):
    """Two constant-depth vertical slabs: a foreground/background step."""
    if not (0 <= k_left < math.inf and 0 <= k_right < math.inf):
        raise ValueError(f"split_field: disparities must be finite and >= 0, got {k_left}, {k_right}")

    def build(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
        d = np.full((h, w), np.float32(k_left), dtype=np.float32)
        d[:, w // 2:] = np.float32(k_right)
        return d

    return build


def parse_field_spec(spec: str):
    """Field factory from CLI syntax.

    constant:K | constant:LO..HI (uniform per pair) | planar:D0,DU,DV,DMAX
    | split:KL,KR
    """
    kind, _, args = spec.partition(":")
    try:
        if kind == "constant":
            if ".." in args:
                lo, hi = (float(t) for t in args.split(".."))
                if not 0 <= lo <= hi < math.inf:
                    raise ValueError

                def build(rng, h, w):
                    return np.full((h, w), np.float32(rng.uniform(lo, hi)), dtype=np.float32)

                return build
            return constant_field(float(args))
        if kind == "planar":
            d0, du, dv, d_max = (float(t) for t in args.split(","))
            return planar_field(d0, du, dv, d_max)
        if kind == "split":
            kl, kr = (float(t) for t in args.split(","))
            return split_field(kl, kr)
    except (ValueError, TypeError):
        raise ValueError(f"bad field spec {spec!r}") from None
    raise ValueError(f"unknown field kind {kind!r} in {spec!r}")


def synth_pair(seed, h: int, w: int, field, **texture_kwargs) -> StereoPair:
    """One pair: texture right view, warped left view, exact GT and validity.

    ``field`` is a callable (rng, h, w) -> float32 (H, W) disparity.  Pixels
    whose source column u - d falls left of the frame have no counterpart
    in the right view and are marked invalid.
    """
    rng = np.random.default_rng(seed)
    right = band_limited_texture(rng, h, w, **texture_kwargs)
    gt_values = field(rng, h, w)
    if gt_values.shape != (h, w):
        raise ValueError(f"synth_pair: field produced shape {gt_values.shape}, expected {(h, w)}")
    left = resample_horizontal(right, gt_values, TO_LEFT).astype(np.float32)
    sample_x = np.arange(w, dtype=np.float32)[None, :] - gt_values
    valid = sample_x >= 0.0
    gt = DisparityGT(values=gt_values * valid, valid=valid)
    return StereoPair(left=left, right=right, gt=gt)


def write_dataset(out_dir, count: int, seed: int, h: int, w: int, field_spec: str) -> Path:
    """Materialise ``count`` pairs plus a manifest; returns the manifest path.

    Images are quantised to 8-bit on disk, so reconstruction at the true
    disparity is exact only up to quantisation for written datasets.
    Inputs that cannot work are refused, named, before anything is written.
    """
    for name, value, least in (("count", count, 1), ("seed", seed, 0), ("height", h, 1), ("width", w, 2)):
        if value < least:
            raise ValueError(f"write_dataset: {name} must be >= {least}, got {value}")
    field = parse_field_spec(field_spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(count):
        pair = synth_pair((seed, i), h, w, field)
        names = (f"{i:04d}_left.ppm", f"{i:04d}_right.ppm", f"{i:04d}_gt.pgm")
        write_image(out_dir / names[0], pair.left)
        write_image(out_dir / names[1], pair.right)
        write_gt_pgm(out_dir / names[2], pair.gt.values, pair.gt.valid)
        lines.append(" ".join(names))
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
