"""The stereo network: siamese features, matching volumes, 3D regulariser.

Disparity for each view comes from the same weights applied symmetrically:

  features     f_L, f_R         shared 2D conv tower over both images
  volume       (H, W, D+1, 2F)  concatenated features at every candidate shift
  regulariser  residual 3D encoder-decoder, ending in one cost per (u, v, d)
  readout      soft-argmin over the disparity axis

``build_feature_volume`` defines the volume, but ``forward`` never
materialises it: ``volume_conv`` computes the regulariser's first stride-2
convolution straight from the two feature maps, as two ``convops``
convolutions, one per map, and later scales work on its half-size output.
Everything is built from the autodiff primitives, so one ``backward``
call differentiates the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, accumulate, make_op, sink
from .convops import _correlate, _correlate_input, _correlate_weight, _grid, channel_sum, conv2d, conv3d, deconv3d

LEFT_TO_RIGHT = "lr"
RIGHT_TO_LEFT = "rl"
SKIP_EVERY = 3  # feature-tower layers per identity skip


@dataclass
class NetConfig:
    """Architecture hyperparameters.

    The feature tower is the paper's: 3x3 convs with an identity skip every
    ``SKIP_EVERY`` layers, so ``feature_layers`` is a multiple of it.
    Defaults are full scale; ``toy()`` is the desk-scale preset used by the
    convergence and adaptation flows.
    """

    feature_layers: int = 18
    feature_dim: int = 64
    disparity_range: int = 160
    restdm_scales: int = 4

    def __post_init__(self):
        if self.feature_layers < 1 or self.feature_layers % SKIP_EVERY:
            raise ValueError(f"feature_layers must be a positive multiple of {SKIP_EVERY}, "
                             f"got {self.feature_layers}")
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
    """All trainable parameters by name, each a leaf Tensor that requires grad.

    Insertion order fixes both the checkpoint record order and the
    optimizer update order.
    """

    config: NetConfig
    params: dict[str, Tensor] = field(default_factory=dict)


def _he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_weights(config: NetConfig, seed: int = 0, dtype=np.float32) -> NetworkWeights:
    """Seeded fan-in-scaled uniform init; biases start at zero."""
    rng = np.random.default_rng(seed)
    arrays = {}
    f = config.feature_dim
    cin = 3
    for j in range(1, config.feature_layers + 1):
        arrays[f"feat/l{j:02d}/w"] = _he_uniform(rng, (3, 3, cin, f), 9 * cin, dtype)
        arrays[f"feat/l{j:02d}/b"] = np.zeros(f, dtype=dtype)
        cin = f
    cin3 = 2 * f
    for i in range(1, config.restdm_scales + 1):
        arrays[f"tdm/c{i}/w"] = _he_uniform(rng, (3, 3, 3, cin3, f), 27 * cin3, dtype)
        arrays[f"tdm/c{i}/b"] = np.zeros(f, dtype=dtype)
        for half in ("a", "b"):
            arrays[f"tdm/r{i}/{half}/w"] = _he_uniform(rng, (3, 3, 3, f, f), 27 * f, dtype)
            arrays[f"tdm/r{i}/{half}/b"] = np.zeros(f, dtype=dtype)
        cout = 1 if i == 1 else f
        arrays[f"tdm/dc{i}/w"] = _he_uniform(rng, (3, 3, 3, cout, f), 27 * f, dtype)
        arrays[f"tdm/dc{i}/b"] = np.zeros(cout, dtype=dtype)
        cin3 = f
    return NetworkWeights(config, {n: Tensor(a, requires_grad=True) for n, a in arrays.items()})


def extract_features(image: Tensor, weights: NetworkWeights) -> Tensor:
    """Shared feature tower: 3x3 convs with ReLU, an identity skip every
    ``SKIP_EVERY`` layers.

    The first block of ``SKIP_EVERY`` layers has no skip (its input is the
    3-channel image, the output has feature_dim channels).  Output is
    (H, W, feature_dim).  Called directly, it records every conv and relu;
    ``forward`` runs it through ``autodiff.checkpoint``, which records one
    node per view and runs the tower again in backward.
    """
    cfg = weights.config
    if image.data.ndim != 3 or image.data.shape[2] != 3:
        raise ValueError(f"extract_features: expected (H, W, 3) image, got shape {image.data.shape}")
    if min(image.data.shape[:2]) < 3:
        raise ValueError(f"extract_features: image {image.data.shape[:2]} smaller than the 3x3 kernel")
    params = weights.params
    x = image
    anchor = None
    for j in range(1, cfg.feature_layers + 1):
        x = ad.relu(conv2d(x, params[f"feat/l{j:02d}/w"], params[f"feat/l{j:02d}/b"]))
        if j % SKIP_EVERY == 0:
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


def _halves(kernel: np.ndarray) -> list[np.ndarray]:
    """Each half of a volume kernel as the kernel of the conv that ``volume_conv``
    runs on its view: the first as a 3x3 conv's (dh dw, F, dd cout), the
    second as a 3x1 conv's (dh, F, dw dd cout)."""
    f, cout = kernel.shape[3] // 2, kernel.shape[4]
    return [kernel[:, :, :, :f].transpose(0, 1, 3, 2, 4).reshape(9, f, 3 * cout),
            kernel[:, :, :, f:].transpose(0, 3, 1, 2, 4).reshape(3, f, 9 * cout)]


def volume_conv(f_first: Tensor, f_second: Tensor, kernel: Tensor, bias: Tensor, max_disparity: int,
                direction: str, depth: int | None = None) -> Tensor:
    """The stride-2 3x3x3 ``conv3d`` of a matching volume, from its two feature maps.

    Equals ``conv3d(build_feature_volume(f_first, f_second, max_disparity,
    direction, depth).values, kernel, bias, stride=2)``, but neither the
    volume nor its gradient is allocated.  Each kernel half meets its map in
    a ``convops`` convolution, which also gives its gradients.  The
    first-view half is constant along d, so its part is a stride-2 3x3 conv
    of f_first with the depth taps dd as 3 Cout output channels; each is
    added to every output slice whose depth tap reaches a d <= D.  The
    second-view half is f_second shifted by d: its R is a 3x1 conv at stride
    (2, 1) with the (dw, dd) taps as 9 Cout output channels, and for each
    d <= D and column tap, R is added with one slice of a contiguous copy
    of its dd part.  Backward runs the same slices adjointly.  It keeps only
    the two feature maps, the arrays the lr and rl calls share, and the
    kernel, and rebuilds the phases and kernel halves from them.
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
    # per depth tap dd, (k, dw, parity, output columns, map columns) of every
    # second-view column tap
    plan = [[(k,) + tap for k in ks for tap in _column_taps(w, sign * (2 * k + dd - 1))]
            for dd, ks in enumerate(depth_taps)]
    grids = g1, g2 = _grid((h, w), (3, 3), (2, 2)), _grid((h, w), (3, 1), (2, 1))
    taps = (h // 2, w // 2, 2, 3, 3, cout)  # R as (i, column // 2, column parity, dw, dd, cout)
    halves = _halves(kernel.data)
    s1 = g1.view(_correlate(g1.phases(f_first.data), halves[0], g1), g1.out)
    s1 = np.ascontiguousarray(s1.reshape(h // 2, w // 2, 3, cout).transpose(2, 0, 1, 3))
    out = np.zeros((depth // 2,) + s1.shape[1:], dtype=s1.dtype)
    for dd, ks in enumerate(depth_taps):
        out[ks.start:ks.stop] += s1[dd]
    r = g2.view(_correlate(g2.phases(f_second.data), halves[1], g2), g2.out).reshape(taps)
    slab = np.empty((3, 2) + s1.shape[1:], dtype=s1.dtype)
    for dd, adds in enumerate(plan):
        np.copyto(slab, r[:, :, :, :, dd].transpose(3, 2, 0, 1, 4))
        for k, dw, p, bs, js in adds:
            out[k, :, bs] += slab[dw, p, :, js]
    del s1, r, slab
    result = np.empty((h // 2, w // 2, depth // 2, cout), dtype=out.dtype)
    np.add(out.transpose(1, 2, 0, 3), bias.data, out=result)
    s_maps, sk, sb = (sink(f_first), sink(f_second)), sink(kernel), sink(bias)
    cached = (f_first.data, f_second.data) if sk is not None else (None, None)
    kdata = kernel.data

    def bwd(g):
        g = np.ascontiguousarray(g.transpose(2, 0, 1, 3))
        if sb is not None:
            accumulate(sb, channel_sum(g))
        # each view's output gradient as grid rows, zero off the output
        rows = [np.zeros((g1.span, 3 * cout), dtype=g.dtype), np.zeros((g2.span, 9 * cout), dtype=g.dtype)]
        gs1 = g1.view(rows[0], g1.out).reshape(h // 2, w // 2, 3, cout)
        for dd, ks in enumerate(depth_taps):
            gs1[:, :, dd] = g[ks.start:ks.stop].sum(axis=0)
        gr = g2.view(rows[1], g2.out).reshape(taps)
        slab = np.empty((3, 2) + g.shape[1:], dtype=g.dtype)
        for dd, adds in enumerate(plan):
            slab.fill(0)
            for k, dw, p, bs, js in adds:
                slab[dw, p, :, js] += g[k, :, bs]
            gr[:, :, :, :, dd] = slab.transpose(2, 3, 1, 0, 4)
        del slab
        for s, grid, view_rows, half in zip(s_maps, grids, rows, _halves(kdata)):
            if s is not None:
                accumulate(s, grid.unphase(_correlate_input(view_rows, half, grid)))
        if sk is not None:
            gk = [_correlate_weight(grid.phases(m), view_rows, grid)
                  for grid, m, view_rows in zip(grids, cached, rows)]
            accumulate(sk, np.concatenate([gk[0].reshape(3, 3, f, 3, cout).transpose(0, 1, 3, 2, 4),
                                           gk[1].reshape(3, f, 3, 3, cout).transpose(0, 2, 3, 1, 4)], axis=3))

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

    Output shape (H, W, D+1): one matching cost per candidate disparity; the
    padded depth slices are cropped off here.  H and W must be multiples of
    2^scales: ``forward`` pads a frame of any other size before it gets here.
    """
    cfg = weights.config
    params = weights.params
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
    costs = ad.reshape(costs, costs.data.shape[:3])
    return ad.crop(costs, (None, None, (0, dp1))) if depth > dp1 else costs


def soft_argmin(costs: Tensor) -> Tensor:
    """Differentiable argmin over the trailing disparity axis.

    Low cost means good match, so the weights are p = softmax(-costs) and
    the readout is the expected disparity index d = sum_k p_k k, a value in
    [0, D].  One op: backward applies the closed form
    dd/dc_k = -p_k (k - d), as -p_k (g k - sum_j g j p_j) for the upstream
    gradient g, and keeps only p.

    Backward sends exactly zero where p_k < eps / (2n), for the machine
    epsilon eps of the costs' dtype and n slices.  As |k - d| <= n - 1, such
    a cell's gradient is below eps |g| / 2, half an ulp of its pixel's
    upstream gradient, and a pixel's such cells hold under eps / 2 of its
    probability: rounding noise.  Kept, they turn subnormal far above the
    pixel's minimum cost, and every GEMM of the backward that reads them
    runs several times slower.
    """
    if costs.data.ndim != 3:
        raise ValueError(f"soft_argmin: expected (H, W, D+1) costs, got shape {costs.data.shape}")
    e = np.exp(costs.data.min(axis=2, keepdims=True) - costs.data)
    p = e / e.sum(axis=2, keepdims=True)
    n = costs.data.shape[2]
    k = np.arange(n, dtype=costs.data.dtype)
    noise = np.finfo(costs.data.dtype).eps / (2 * n)
    sc = sink(costs)

    def bwd(g):
        gk = g[:, :, None] * k
        gk -= (gk * p).sum(axis=2, keepdims=True)
        gk *= p
        np.negative(gk, out=gk)
        gk[p < noise] = 0
        accumulate(sc, gk)

    return make_op((p * k).sum(axis=2), (costs,), bwd)


def forward(left, right, weights: NetworkWeights) -> tuple[Tensor, Tensor]:
    """Predict (d_left, d_right) for a rectified pair of any size, sharing all weights.

    Accepts ndarrays or Tensors that take no gradient.  This is the one frame
    policy: a frame whose H or W is not a multiple of 2^restdm_scales is
    edge-padded at the bottom and right, run through ``forward`` itself, and
    both maps are cropped back to the frame, so a loss on them covers the
    frame and never the padding.  ``res_tdm`` regularises each direction's
    matching volume straight from the two feature maps, so no volume is
    materialised, and returns D+1 cost slices, so any disparity_range works.

    Each view's feature tower runs through ``autodiff.checkpoint``: its
    conv inputs and relu masks are not held while the rest of the step
    runs, and backward recomputes them one view at a time, after the
    regulariser's and the losses' arrays are gone.  Under ``no_grad`` the
    tower runs once, as a plain call.
    """
    cfg = weights.config
    i_l = left if isinstance(left, Tensor) else Tensor(left)
    i_r = right if isinstance(right, Tensor) else Tensor(right)
    if i_l.data.shape != i_r.data.shape:
        raise ValueError(f"forward: left {i_l.data.shape} vs right {i_r.data.shape}")
    if i_l.requires_grad or i_r.requires_grad:
        raise ValueError("forward: an image that takes a gradient cannot be padded; pass its values")
    (h, w), sf = i_l.data.shape[:2], cfg.scale_factor
    if h % sf or w % sf:
        pads = ((0, -h % sf), (0, -w % sf), (0, 0))
        d_l, d_r = forward(np.pad(i_l.data, pads, mode="edge"), np.pad(i_r.data, pads, mode="edge"),
                           weights)
        return ad.crop(d_l, ((0, h), (0, w))), ad.crop(d_r, ((0, h), (0, w)))
    if cfg.disparity_range >= w:
        raise ValueError(f"forward: disparity_range {cfg.disparity_range} must be < W={w}")
    tower = {name: t for name, t in weights.params.items() if name.startswith("feat/")}

    def features(image, params):
        return extract_features(image, NetworkWeights(cfg, params))

    f_l = ad.checkpoint(features, i_l, tower)
    f_r = ad.checkpoint(features, i_r, tower)
    return (soft_argmin(res_tdm(f_l, f_r, LEFT_TO_RIGHT, weights)),
            soft_argmin(res_tdm(f_r, f_l, RIGHT_TO_LEFT, weights)))
