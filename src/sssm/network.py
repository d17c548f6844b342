"""The stereo network: siamese features, matching volumes, 3D regulariser.

Disparity for each view comes from the same weights applied symmetrically:

  features     f_L, f_R         shared 2D conv tower over both images
  volume       (H, W, D+1, 2F)  concatenated features at every candidate shift
  regulariser  residual 3D encoder-decoder, ending in one cost per (u, v, d)
  readout      soft-argmin over the disparity axis

Everything is built from the autodiff primitives, so one ``backward`` call
differentiates the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, accumulate, make_op
from .convops import conv2d, conv3d, deconv3d

LEFT_TO_RIGHT = "lr"
RIGHT_TO_LEFT = "rl"


@dataclass
class NetConfig:
    """Architecture hyperparameters.

    Defaults are full scale; ``toy()`` is the desk-scale preset used by the
    convergence and adaptation flows.
    """

    feature_layers: int = 18
    feature_dim: int = 64
    kernel: int = 3
    skip_every: int = 3
    disparity_range: int = 160
    restdm_scales: int = 4

    def __post_init__(self):
        if self.feature_layers < 1:
            raise ValueError("feature_layers must be >= 1")
        if self.feature_layers % self.skip_every != 0:
            raise ValueError(
                f"feature_layers ({self.feature_layers}) must be divisible by skip_every ({self.skip_every})"
            )
        if self.kernel % 2 != 1:
            raise ValueError("kernel extent must be odd")
        if self.feature_dim < 1 or self.disparity_range < 1 or self.restdm_scales < 1:
            raise ValueError("feature_dim, disparity_range and restdm_scales must be >= 1")

    @property
    def scale_factor(self) -> int:
        return 2 ** self.restdm_scales

    @classmethod
    def toy(cls) -> "NetConfig":
        return cls(feature_layers=6, feature_dim=16, disparity_range=16, restdm_scales=2)


@dataclass
class FeatureVolume:
    """A matching volume plus the shift direction that built it."""

    values: Tensor
    direction: str


@dataclass
class NetworkWeights:
    """All trainable parameters, registered on one tape in a fixed order."""

    config: NetConfig
    tape: Tape = field(default_factory=Tape)

    def named(self) -> dict[str, Tensor]:
        return self.tape.params


def _he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_weights(config: NetConfig, seed: int = 0, dtype=np.float32) -> NetworkWeights:
    """Seeded fan-in-scaled uniform init; biases start at zero."""
    rng = np.random.default_rng(seed)
    w = NetworkWeights(config=config)
    k, f = config.kernel, config.feature_dim
    cin = 3
    for j in range(1, config.feature_layers + 1):
        shape = (k, k, cin, f)
        w.tape.parameter(f"feat/l{j:02d}/w", _he_uniform(rng, shape, k * k * cin, dtype))
        w.tape.parameter(f"feat/l{j:02d}/b", np.zeros(f, dtype=dtype))
        cin = f
    cin3 = 2 * f
    for i in range(1, config.restdm_scales + 1):
        w.tape.parameter(f"tdm/c{i}/w", _he_uniform(rng, (3, 3, 3, cin3, f), 27 * cin3, dtype))
        w.tape.parameter(f"tdm/c{i}/b", np.zeros(f, dtype=dtype))
        for half in ("a", "b"):
            w.tape.parameter(f"tdm/r{i}/{half}/w", _he_uniform(rng, (3, 3, 3, f, f), 27 * f, dtype))
            w.tape.parameter(f"tdm/r{i}/{half}/b", np.zeros(f, dtype=dtype))
        cout = 1 if i == 1 else f
        w.tape.parameter(f"tdm/dc{i}/w", _he_uniform(rng, (3, 3, 3, cout, f), 27 * f, dtype))
        w.tape.parameter(f"tdm/dc{i}/b", np.zeros(cout, dtype=dtype))
        cin3 = f
    return w


def extract_features(image: Tensor, weights: NetworkWeights) -> Tensor:
    """Shared feature tower: 3x3 convs with ReLU, identity skip every block.

    The first block has no skip (its input is the 3-channel image, the
    output has feature_dim channels).  Output is (H, W, feature_dim).
    """
    cfg = weights.config
    if image.data.ndim != 3 or image.data.shape[2] != 3:
        raise ValueError(f"extract_features: expected (H, W, 3) image, got shape {image.data.shape}")
    if min(image.data.shape[:2]) < cfg.kernel:
        raise ValueError(
            f"extract_features: image {image.data.shape[:2]} smaller than kernel {cfg.kernel}"
        )
    params = weights.named()
    x = image
    anchor = None
    for j in range(1, cfg.feature_layers + 1):
        x = ad.relu(conv2d(x, params[f"feat/l{j:02d}/w"], params[f"feat/l{j:02d}/b"]))
        if j % cfg.skip_every == 0:
            if anchor is not None:
                x = ad.add(x, anchor)
            anchor = x
    return x


def build_feature_volume(f_first: Tensor, f_second: Tensor, max_disparity: int, direction: str,
                         depth: int | None = None) -> FeatureVolume:
    """Stack per-candidate-disparity feature concatenations.

    Output values have shape (H, W, depth, 2F), depth D+1 by default.  At
    (u, v, d) with d <= D the first F channels are f_first(u, v); the last F
    are f_second sampled at u - d (direction "lr") or u + d (direction
    "rl").  Out-of-range samples are zero, which marks them as
    non-informative rather than wrapping; so are all slices d > D.
    """
    if direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        raise ValueError(f"build_feature_volume: unknown direction {direction!r}")
    if f_first.data.shape != f_second.data.shape:
        raise ValueError(
            f"build_feature_volume: shape mismatch {f_first.data.shape} vs {f_second.data.shape}"
        )
    h, w, f = f_first.data.shape
    d_max = int(max_disparity)
    if d_max < 0 or d_max >= w:
        raise ValueError(f"build_feature_volume: disparity range {d_max} must satisfy 0 <= D < W={w}")
    depth = d_max + 1 if depth is None else int(depth)
    if depth <= d_max:
        raise ValueError(f"build_feature_volume: depth {depth} must exceed the disparity range {d_max}")
    vol = np.zeros((h, w, depth, 2 * f), dtype=f_first.data.dtype)
    vol[:, :, : d_max + 1, :f] = f_first.data[:, :, None, :]
    for d in range(d_max + 1):
        if direction == LEFT_TO_RIGHT:
            vol[:, d:, d, f:] = f_second.data[:, : w - d]
        else:
            vol[:, : w - d, d, f:] = f_second.data[:, d:]

    def bwd(g):
        if f_first.requires_grad:
            accumulate(f_first, g[:, :, : d_max + 1, :f].sum(axis=2))
        if f_second.requires_grad:
            gs = np.zeros_like(f_second.data)
            for d in range(d_max + 1):
                if direction == LEFT_TO_RIGHT:
                    gs[:, : w - d] += g[:, d:, d, f:]
                else:
                    gs[:, d:] += g[:, : w - d, d, f:]
            accumulate(f_second, gs)

    return FeatureVolume(values=make_op(vol, (f_first, f_second), bwd), direction=direction)


def _residual_block(x: Tensor, params, prefix: str) -> Tensor:
    inner = conv3d(x, params[f"{prefix}/a/w"], params[f"{prefix}/a/b"])
    inner = conv3d(ad.relu(inner), params[f"{prefix}/b/w"], params[f"{prefix}/b/b"])
    return ad.add(x, inner)


def res_tdm(volume: FeatureVolume, weights: NetworkWeights) -> Tensor:
    """Residual top-down regulariser over a matching volume.

    Bottom-up: stride-2 3D convs halve (H, W, D+1) at every scale.  Each
    scale keeps a residual-refined copy of its encoding.  Top-down: stride-2
    transposed convs mirror the descent, adding the stored residual tensor
    after each upsample.  The last upsample projects to a single cost per
    cell with no activation, so costs may be negative.

    Output shape (H, W, D+1): one matching cost per candidate disparity.
    """
    cfg = weights.config
    params = weights.named()
    x = volume.values
    dims = x.data.shape[:3]
    bad = [n for n in dims if n % cfg.scale_factor]
    if bad:
        raise ValueError(
            f"res_tdm: dims {dims} must be divisible by 2^{cfg.restdm_scales}; pad upstream"
        )
    residuals = {}
    for i in range(1, cfg.restdm_scales + 1):
        x = ad.relu(conv3d(x, params[f"tdm/c{i}/w"], params[f"tdm/c{i}/b"], stride=2))
        residuals[i] = _residual_block(x, params, f"tdm/r{i}")
    up = residuals[cfg.restdm_scales]
    for i in range(cfg.restdm_scales, 1, -1):
        up = ad.relu(deconv3d(up, params[f"tdm/dc{i}/w"], params[f"tdm/dc{i}/b"]))
        up = ad.add(up, residuals[i - 1])
    costs = deconv3d(up, params["tdm/dc1/w"], params["tdm/dc1/b"])
    return ad.reshape(costs, costs.data.shape[:3])


def soft_argmin(costs: Tensor) -> Tensor:
    """Differentiable argmin over the trailing disparity axis.

    Low cost means good match, so weights are softmax(-costs); the readout
    is the expected disparity index, a value in [0, D].
    """
    if costs.data.ndim != 3:
        raise ValueError(f"soft_argmin: expected (H, W, D+1) costs, got shape {costs.data.shape}")
    p = ad.softmax(ad.neg(costs), axis=2)
    idx = Tensor(np.broadcast_to(np.arange(costs.data.shape[2], dtype=costs.data.dtype), costs.data.shape))
    return ad.sum_reduce(ad.mul(p, idx), axis=2)


def forward(left, right, weights: NetworkWeights) -> tuple[Tensor, Tensor]:
    """Predict (d_left, d_right) for a rectified pair, sharing all weights.

    Accepts ndarrays or Tensors.  Requires H and W divisible by
    2^restdm_scales (``training.infer`` pads arbitrary sizes).  The
    volumes are built with zero slices up to the nearest multiple on the
    disparity axis and the costs cropped back, so any disparity_range works.
    """
    cfg = weights.config
    i_l = left if isinstance(left, Tensor) else Tensor(left)
    i_r = right if isinstance(right, Tensor) else Tensor(right)
    if i_l.data.shape != i_r.data.shape:
        raise ValueError(f"forward: left {i_l.data.shape} vs right {i_r.data.shape}")
    h, w = i_l.data.shape[:2]
    if h % cfg.scale_factor or w % cfg.scale_factor:
        raise ValueError(
            f"forward: image dims {(h, w)} must be divisible by {cfg.scale_factor}; pad upstream"
        )
    if cfg.disparity_range >= w:
        raise ValueError(f"forward: disparity_range {cfg.disparity_range} must be < W={w}")
    f_l = extract_features(i_l, weights)
    f_r = extract_features(i_r, weights)
    dp1 = cfg.disparity_range + 1
    depth = dp1 + (-dp1) % cfg.scale_factor
    out = []
    for first, second, direction in ((f_l, f_r, LEFT_TO_RIGHT), (f_r, f_l, RIGHT_TO_LEFT)):
        costs = res_tdm(build_feature_volume(first, second, cfg.disparity_range, direction, depth), weights)
        if depth > dp1:
            costs = ad.crop(costs, (None, None, (0, dp1)))
        out.append(soft_argmin(costs))
    return out[0], out[1]
