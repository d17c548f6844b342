"""The stereo network: siamese features, matching volumes, 3D regulariser.

Disparity for each view comes from the same weights applied symmetrically:

  features     f_L, f_R         shared 2D conv tower over both images
  volume       (H, W, D+1, 2F)  concatenated features at every candidate shift
  regulariser  residual 3D encoder-decoder, ending in one cost per (u, v, d)
  readout      soft-argmin over the disparity axis

``build_feature_volume`` defines the volume, but ``forward`` never
materialises it: ``volume_conv`` computes the regulariser's first stride-2
convolution straight from the two feature maps, and later scales work on
its half-size output.  Everything is built from the autodiff primitives,
so one ``backward`` call differentiates the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, accumulate, make_op, sink
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


def _volume_geometry(f_first: Tensor, f_second: Tensor, max_disparity: int, direction: str,
                     depth: int | None, who: str) -> tuple[int, int]:
    """Validated (D, depth) of the volume two feature maps define."""
    if direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        raise ValueError(f"{who}: unknown direction {direction!r}")
    if f_first.data.shape != f_second.data.shape:
        raise ValueError(f"{who}: shape mismatch {f_first.data.shape} vs {f_second.data.shape}")
    w = f_first.data.shape[1]
    d_max = int(max_disparity)
    if d_max < 0 or d_max >= w:
        raise ValueError(f"{who}: disparity range {d_max} must satisfy 0 <= D < W={w}")
    depth = d_max + 1 if depth is None else int(depth)
    if depth <= d_max:
        raise ValueError(f"{who}: depth {depth} must exceed the disparity range {d_max}")
    return d_max, depth


def build_feature_volume(f_first: Tensor, f_second: Tensor, max_disparity: int, direction: str,
                         depth: int | None = None) -> Tensor:
    """Stack per-candidate-disparity feature concatenations.

    The output has shape (H, W, depth, 2F), depth D+1 by default.  At
    (u, v, d) with d <= D the first F channels are f_first(u, v); the last F
    are f_second sampled at u - d (direction "lr") or u + d (direction
    "rl").  Out-of-range samples are zero, which marks them as
    non-informative rather than wrapping; so are all slices d > D.

    This is the definition of the matching volume.  ``forward`` never
    builds it: ``volume_conv`` computes its first convolution directly.
    """
    d_max, depth = _volume_geometry(f_first, f_second, max_disparity, direction, depth,
                                    "build_feature_volume")
    h, w, f = f_first.data.shape
    vol = np.zeros((h, w, depth, 2 * f), dtype=f_first.data.dtype)
    vol[:, :, : d_max + 1, :f] = f_first.data[:, :, None, :]
    for d in range(d_max + 1):
        if direction == LEFT_TO_RIGHT:
            vol[:, d:, d, f:] = f_second.data[:, : w - d]
        else:
            vol[:, : w - d, d, f:] = f_second.data[:, d:]

    s1, s2 = sink(f_first), sink(f_second)
    dtype = f_second.data.dtype

    def bwd(g):
        if s1 is not None:
            accumulate(s1, g[:, :, : d_max + 1, :f].sum(axis=2))
        if s2 is not None:
            gs = np.zeros((h, w, f), dtype=dtype)
            for d in range(d_max + 1):
                if direction == LEFT_TO_RIGHT:
                    gs[:, : w - d] += g[:, d:, d, f:]
                else:
                    gs[:, d:] += g[:, : w - d, d, f:]
            accumulate(s2, gs)

    return make_op(vol, (f_first, f_second), bwd)


def _row_taps(f: np.ndarray) -> np.ndarray:
    """Rows 2i-1, 2i and 2i+1 of ``f`` side by side, zero above the top.

    Returns (H/2 * W, 3F) with rows ordered (i, column parity, column // 2),
    so that every stride-2 column tap reads contiguous rows.
    """
    h, w, c = f.shape
    by_parity = f.reshape(h, w // 2, 2, c).swapaxes(1, 2)
    taps = np.zeros((h // 2, 2, w // 2, 3, c), dtype=f.dtype)
    taps[1:, :, :, 0] = by_parity[1:-1:2]
    taps[:, :, :, 1] = by_parity[0::2]
    taps[:, :, :, 2] = by_parity[1::2]
    return taps.reshape(-1, 3 * c)


def _row_taps_adjoint(g: np.ndarray, shape) -> np.ndarray:
    """Adjoint of ``_row_taps``: tap gradients summed back into an (H, W, F) map."""
    h, w, c = shape
    g = g.reshape(h // 2, 2, w // 2, 3, c)
    f = np.empty((h, 2, w // 2, c), dtype=g.dtype)
    f[0::2] = g[:, :, :, 1]
    f[1::2] = g[:, :, :, 2]
    f[1:-1:2] += g[1:, :, :, 0]
    return f.swapaxes(1, 2).reshape(h, w, c)


def _column_taps(w: int, shift: int) -> list[tuple[int, int, slice, slice]]:
    """(dw, parity, output columns, feature-map columns) of the stride-2 column taps.

    Output column b reads volume column v = 2b + dw - 1, which holds the
    feature map's column j = v + shift.  Only the b for which both v and j
    lie in [0, w) read anything; the rest is zero padding of the volume (v)
    or a sample off the feature map (j).  The columns j share one parity
    and are returned as a range of j // 2.
    """
    taps = []
    for dw in range(3):
        lo = max(0, (2 - dw) // 2, (2 - dw - shift) // 2)
        hi = min(w // 2, (w + 2 - dw) // 2, (w + 2 - dw - shift) // 2)
        if hi > lo:
            offset, parity = divmod(dw - 1 + shift, 2)
            taps.append((dw, parity, slice(lo, hi), slice(lo + offset, hi + offset)))
    return taps


def volume_conv(f_first: Tensor, f_second: Tensor, kernel: Tensor, bias: Tensor, max_disparity: int,
                direction: str, depth: int | None = None) -> Tensor:
    """The stride-2 3x3x3 ``conv3d`` of a matching volume, from its two feature maps.

    Equals ``conv3d(build_feature_volume(f_first, f_second, max_disparity,
    direction, depth).values, kernel, bias, stride=2)``, but neither the
    volume nor its gradient is allocated.  Each half of the kernel meets
    its feature map in GEMMs on the stacked row taps, giving R (dw, dd,
    H/2, W, Cout).  The first-view half is constant along d, so its R is
    summed over the column taps once and added to every output slice whose
    depth taps reach a d <= D.  The second-view half is f_second shifted by
    d, so for each d <= D and each column tap its R is added with one slice.
    Backward runs the same slices adjointly and keeps only the row taps,
    about 1.5x each feature map.
    """
    d_max, depth = _volume_geometry(f_first, f_second, max_disparity, direction, depth, "volume_conv")
    h, w, f = f_first.data.shape
    if kernel.data.ndim != 5 or kernel.data.shape[:4] != (3, 3, 3, 2 * f):
        raise ValueError(f"volume_conv: expected a (3, 3, 3, {2 * f}, Cout) kernel, got {kernel.data.shape}")
    cout = kernel.data.shape[4]
    if bias.data.shape != (cout,):
        raise ValueError(f"volume_conv: bias shape {bias.data.shape} != ({cout},)")
    if f_first.data.dtype != kernel.data.dtype:
        raise ValueError(f"volume_conv: dtype mismatch {f_first.data.dtype} vs {kernel.data.dtype}")
    if h % 2 or w % 2 or depth % 2:
        raise ValueError(f"volume_conv: volume dims {(h, w, depth)} must be even")
    sign = -1 if direction == LEFT_TO_RIGHT else 1
    # per depth tap dd, the output slices k whose d = 2k + dd - 1 lies in [0, D]
    depth_taps = [range((2 - dd) // 2, min(depth // 2, (d_max + 3 - dd) // 2)) for dd in range(3)]
    first_taps = _column_taps(w, 0)
    second_taps = [(k, dd, _column_taps(w, sign * (2 * k + dd - 1)))
                   for dd, ks in enumerate(depth_taps) for k in ks]
    rows = (h // 2, 2, w // 2, cout)
    # each kernel half as (dw, dd) matrices over (dh, c)
    halves = [kernel.data[:, :, :, s].transpose(1, 2, 0, 3, 4).reshape(3, 3, 3 * f, cout)
              for s in (slice(None, f), slice(f, None))]
    taps = [_row_taps(f_first.data), _row_taps(f_second.data)]
    r1, r2 = (np.matmul(t, k).reshape(3, 3, *rows) for t, k in zip(taps, halves))

    s1 = np.zeros((3,) + rows[:1] + rows[2:], dtype=r1.dtype)
    for dw, p, bs, js in first_taps:
        s1[:, :, bs] += r1[dw, :, :, p, js]
    out = np.zeros((depth // 2,) + s1.shape[1:], dtype=r1.dtype)
    for dd, ks in enumerate(depth_taps):
        out[ks.start:ks.stop] += s1[dd]
    for k, dd, cols in second_taps:
        for dw, p, bs, js in cols:
            out[k, :, bs] += r2[dw, dd, :, p, js]
    result = np.empty((h // 2, w // 2, depth // 2, cout), dtype=out.dtype)
    np.add(out.transpose(1, 2, 0, 3), bias.data, out=result)
    s_maps, sk, sb = (sink(f_first), sink(f_second)), sink(kernel), sink(bias)
    cached = taps if sk is not None else None

    def bwd(g):
        g = np.ascontiguousarray(g.transpose(2, 0, 1, 3))
        gs1 = np.stack([g[ks.start:ks.stop].sum(axis=0) for ks in depth_taps])
        gr1 = np.zeros((3, 3) + rows, dtype=g.dtype)
        for dw, p, bs, js in first_taps:
            gr1[dw, :, :, p, js] += gs1[:, :, bs]
        gr2 = np.zeros_like(gr1)
        for k, dd, cols in second_taps:
            for dw, p, bs, js in cols:
                gr2[dw, dd, :, p, js] += g[k, :, bs]
        grs = [gr.reshape(3, 3, -1, cout) for gr in (gr1, gr2)]
        if sk is not None:
            gk = [np.matmul(t.T, gr).reshape(3, 3, 3, f, cout) for t, gr in zip(cached, grs)]
            accumulate(sk, np.concatenate(gk, axis=3).transpose(2, 0, 1, 3, 4))
        if sb is not None:
            accumulate(sb, g.sum(axis=(0, 1, 2)))
        for s, gr, k in zip(s_maps, grs, halves):
            if s is not None:
                gt = np.tensordot(gr, k, axes=([0, 1, 3], [0, 1, 3]))
                accumulate(s, _row_taps_adjoint(gt, (h, w, f)))

    return make_op(result, (f_first, f_second, kernel, bias), bwd)


def _residual_block(x: Tensor, params, prefix: str) -> Tensor:
    inner = conv3d(x, params[f"{prefix}/a/w"], params[f"{prefix}/a/b"])
    inner = conv3d(ad.relu(inner), params[f"{prefix}/b/w"], params[f"{prefix}/b/b"])
    return ad.add(x, inner)


def res_tdm(f_first: Tensor, f_second: Tensor, direction: str, weights: NetworkWeights) -> Tensor:
    """Residual top-down regulariser over the matching volume of two feature maps.

    The volume is the one ``build_feature_volume`` defines, at the disparity
    range of the config and a depth padded to a multiple of 2^scales with
    zero slices; it is never materialised, because ``volume_conv`` computes
    the first convolution from the feature maps.  Bottom-up: stride-2 3D
    convs halve (H, W, depth) at every scale.  Each scale keeps a
    residual-refined copy of its encoding.  Top-down: stride-2 transposed
    convs mirror the descent, adding the stored residual tensor after each
    upsample.  The last upsample projects to a single cost per cell with no
    activation, so costs may be negative.

    Output shape (H, W, depth): one matching cost per candidate disparity,
    padded slices included.
    """
    cfg = weights.config
    params = weights.named()
    dims = f_first.data.shape[:2]
    bad = [n for n in dims if n % cfg.scale_factor]
    if bad:
        raise ValueError(
            f"res_tdm: dims {dims} must be divisible by 2^{cfg.restdm_scales}; pad upstream"
        )
    dp1 = cfg.disparity_range + 1
    depth = dp1 + (-dp1) % cfg.scale_factor
    residuals = {}
    for i in range(1, cfg.restdm_scales + 1):
        w_i, b_i = params[f"tdm/c{i}/w"], params[f"tdm/c{i}/b"]
        if i == 1:
            x = volume_conv(f_first, f_second, w_i, b_i, cfg.disparity_range, direction, depth)
        else:
            x = conv3d(x, w_i, b_i, stride=2)
        x = ad.relu(x)
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
    2^restdm_scales (``training`` pads arbitrary sizes).  ``res_tdm``
    regularises each direction's matching volume straight from the two
    feature maps, so no volume is materialised; its costs carry zero
    slices up to the nearest multiple on the disparity axis and are cropped
    back here, so any disparity_range works.
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
    out = []
    for first, second, direction in ((f_l, f_r, LEFT_TO_RIGHT), (f_r, f_l, RIGHT_TO_LEFT)):
        costs = res_tdm(first, second, direction, weights)
        if costs.data.shape[2] > dp1:
            costs = ad.crop(costs, (None, None, (0, dp1)))
        out.append(soft_argmin(costs))
    return out[0], out[1]
