"""Convolution primitives: 2D, 3D, and transposed 3D.

All three, and ``network.volume_conv``'s two convolutions, are built from
one shift-and-GEMM correlation, whose geometry takes a kernel extent and a
stride per axis.  The input is zero-padded once and split into one phase
per combination of per-axis stride offsets (a single phase at stride 1),
each flattened to (rows, C).  Within a flattened phase every kernel offset
is a fixed row shift, so each tap is one GEMM on a contiguous row range of
a view.  Results are computed on ``span`` consecutive grid rows; rows
between outputs are padding, dropped in forward and held at zero in
backward.  The grid keeps them few (``_Grid``): it flattens the shortest
axis outermost, and consecutive lines of an inner axis share their zero
slots, so a same-padded stride-1 (32, 64, 10) volume computes 21384 rows
for its 20480 outputs.  The loops never run over pixels: the outer loop
walks blocks of consecutive grid rows (``_BLOCK_ROWS``), and the kernel
offsets (3, 9 or 27) are looped inside each block.  At 16 channels a tap
GEMM does little arithmetic per byte, so it is bound by memory traffic;
looping taps over the whole grid would stream a full-size temporary and
output through memory once per tap, while a block's output rows and GEMM
scratch stay in L2 across all of its taps.  Output layouts stay (H, W, C)
and (H, W, D, C): the phase and output copies transpose as they copy.

Three helpers serve every direction: ``_correlate`` (forward),
``_correlate_weight`` (weight gradient, a sum of ``view.T @ g`` GEMMs) and
``_correlate_input`` (input gradient, ``g @ W_tap.T`` GEMMs added into
shifted row ranges).  ``deconv3d``'s forward is ``_correlate_input`` and its
backward is the other two, so it is the adjoint of stride-2 ``conv3d`` by
construction.  Backward keeps only the input array itself (``deconv3d``
too), and only when the kernel needs a gradient; it rebuilds the padded
phases from it, so the forward's phases are a transient.  Where the phase
side has few channels the per-tap GEMMs degenerate, so the helpers stack
the shifted row ranges into one small transient column matrix instead
(``_per_tap``), built over the whole span rather than in blocks.

Data layouts: images are (H, W, C), volumes are (H, W, D, C).  2D kernels
are (k, k, Cin, Cout) indexed (dy, dx, cin, cout); 3D kernels are
(k, k, k, Cin, Cout) indexed (dh, dw, dd, cin, cout).  ``deconv3d`` takes
the kernel in the same layout as the ``conv3d`` it is the adjoint of, so a
single weight tensor describes both directions.  All three refuse bad
arguments through one check, ``_refuse``; any stride runs on any extents.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .autodiff import Tensor, accumulate, make_op, sink


def _same_pads(n: int, k: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for same-padding at a given stride."""
    out = -(-n // stride)
    needed = (out - 1) * stride + k
    total = max(0, needed - n)
    before = min((k - 1) // 2, total)
    return out, before, total - before


class _Grid:
    """Where each kernel tap reads in the flattened phases of a padded input.

    ``k`` and ``stride`` give a kernel extent and a stride per axis.  Along
    an axis with stride s, phase r holds padded positions m * s + r, so
    tap a reads phase a % s at slot a // s.  A phase flattens its slots
    with the smallest extent outermost (``pitch`` is each axis's row step),
    so the padding rides on the fewest, longest lines.  An inner axis's
    line is ``count + max(leading, trailing)`` slots, the most any phase
    needs: the zeros trailing one line are the ones leading the next, so a
    same-padded stride-1 axis carries one zero slot per line, not two.
    Every tap is then one row shift.  Output n sits at row sum(n * pitch);
    ``span`` rows cover every output, and ``rows`` every padded slot, so
    each tap's ``span`` rows from its shift stay inside the phase.
    """

    def __init__(self, spatial, k: tuple, stride: tuple):
        nd = len(spatial)
        self.spatial = tuple(spatial)
        geo = [_same_pads(n, e, s) for n, e, s in zip(spatial, k, stride)]
        self.out = tuple(g[0] for g in geo)
        slots = [-(-(n + pb + pa) // s) for n, (_, pb, pa), s in zip(spatial, geo, stride)]
        axes = []  # per axis, per phase: (first slot, sample count, input slice)
        for n, (_, pb, _), s in zip(spatial, geo, stride):
            firsts = [-(-(pb - r) // s) for r in range(s)]
            srcs = [slice(f * s + r - pb, n, s) for r, f in enumerate(firsts)]
            axes.append([(f, len(range(n)[src]), src) for f, src in zip(firsts, srcs)])
        pitch, step = [0] * nd, 1
        # Innermost first: the longest axis, and among equals the last.
        for a in reversed(sorted(range(nd), key=lambda a: spatial[a])):
            pitch[a] = step
            step *= max(cnt + max(f, slots[a] - f - cnt) for f, cnt, _ in axes[a])
        self.pitch = tuple(pitch)
        # Per phase, in tap order: (first slots, sample counts, input slices).
        self.parts = [tuple(zip(*part)) for part in itertools.product(*axes)]
        self.span = 1 + sum((o - 1) * p for o, p in zip(self.out, self.pitch))
        self.rows = 1 + sum((m - 1) * p for m, p in zip(slots, self.pitch))
        self.taps = tuple(
            (int(np.ravel_multi_index([i % s for i, s in zip(a, stride)], stride)),
             sum(i // s * p for i, s, p in zip(a, stride, self.pitch)))
            for a in np.ndindex(*k)
        )

    def view(self, rows: np.ndarray, shape, first=()) -> np.ndarray:
        """The (*shape, C) view of contiguous (rows, C) grid rows from slot
        ``first`` (the origin by default); numpy checks it stays inside."""
        step, chan = rows.strides
        start = sum(f * p for f, p in zip(first, self.pitch)) * step
        return np.ndarray(tuple(shape) + rows.shape[-1:], rows.dtype, rows, start,
                          tuple(p * step for p in self.pitch) + (chan,))

    def phases(self, x: np.ndarray) -> np.ndarray:
        """Zero-padded ``x`` split into phases, (phases, rows, C), in one copy."""
        ph = np.zeros((len(self.parts), self.rows, x.shape[-1]), dtype=x.dtype)
        for p, (first, cnt, src) in enumerate(self.parts):
            self.view(ph[p], cnt, first)[...] = x[src]
        return ph

    def unphase(self, ph: np.ndarray) -> np.ndarray:
        """Adjoint of ``phases``: the input-shaped part of phase arrays."""
        x = np.empty(self.spatial + ph.shape[-1:], dtype=ph.dtype)
        for p, (first, cnt, src) in enumerate(self.parts):
            x[src] = self.view(ph[p], cnt, first)
        return x

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Output-shaped ``y`` as (span, C) grid rows, zero off the output."""
        rows = np.zeros((self.span,) + y.shape[-1:], dtype=y.dtype)
        self.view(rows, self.out)[...] = y
        return rows

    def extract(self, rows: np.ndarray) -> np.ndarray:
        """The output-shaped part of (span, C) grid rows, as a new array."""
        return self.view(rows, self.out).copy()


@functools.lru_cache(maxsize=64)
def _grid(spatial: tuple, k: tuple, stride: tuple) -> _Grid:
    """The ``_Grid`` of one conv geometry, built once and shared by every call."""
    return _Grid(spatial, k, stride)


def _columns(ph: np.ndarray, grid: _Grid) -> np.ndarray:
    """Every tap's shifted row range, transposed and stacked: (taps * C, span)."""
    n, c = grid.span, ph.shape[-1]
    cols = np.empty((len(grid.taps) * c, n), dtype=ph.dtype)
    for j, (p, shift) in enumerate(grid.taps):
        cols[j * c:(j + 1) * c] = ph[p, shift:shift + n].T
    return cols


def _per_tap(c: int, other: int) -> bool:
    """Sum per-tap GEMMs over views, or build the transient column matrix.

    A tap GEMM contracts or produces the phase side's C channels, so at
    small C it degenerates to an outer product or a matrix-vector product.
    The (taps * C, span) column matrix is then small, and one GEMM on it is
    cheaper.  Wide C keeps the per-tap form, which copies nothing.
    """
    return 2 * c > other


# Output grid rows per block of the per-tap loops.  At 16 channels of
# float32 a block is 128 KiB, so the output block and the GEMM scratch stay
# in L2 across all taps.  A block's taps read the input rows of its own range
# shifted by up to two lines of each axis; with the shortest axis outermost
# that is three slabs a plane apart.  1024 and 4096 rows measured slower,
# 3072 about the same.
_BLOCK_ROWS = 2048


def _blocks(n: int):
    """Consecutive (start, end) blocks of ``_BLOCK_ROWS`` rows covering [0, n)."""
    return [(s, min(s + _BLOCK_ROWS, n)) for s in range(0, n, _BLOCK_ROWS)]


def _correlate(ph: np.ndarray, w: np.ndarray, grid: _Grid) -> np.ndarray:
    """Forward: (span, Cout) grid rows of sum_taps phase_view @ w[tap].

    ``w`` is (taps, C, Cout).  In each block the first tap writes the output
    rows and the others add to them.
    """
    n, cout = grid.span, w.shape[2]
    if not _per_tap(w.shape[1], cout):
        return _columns(ph, grid).T @ w.reshape(-1, cout)
    out = np.empty((n, cout), dtype=ph.dtype)
    tmp = np.empty((min(n, _BLOCK_ROWS), cout), dtype=ph.dtype)
    (p0, shift0), *rest = grid.taps
    for s, e in _blocks(n):
        np.matmul(ph[p0, s + shift0:e + shift0], w[0], out=out[s:e])
        for j, (p, shift) in enumerate(rest, 1):
            out[s:e] += np.matmul(ph[p, s + shift:e + shift], w[j], out=tmp[:e - s])
    return out


def _correlate_weight(ph: np.ndarray, g: np.ndarray, grid: _Grid) -> np.ndarray:
    """Weight gradient, (taps, C, Cout): per tap, phase_view.T @ g.

    ``g`` is the output gradient as (span, Cout) grid rows, zero off the
    output.
    """
    n = grid.span
    if not _per_tap(ph.shape[-1], g.shape[-1]):
        return (_columns(ph, grid) @ g).reshape(len(grid.taps), ph.shape[-1], -1)
    gw = np.zeros((len(grid.taps), ph.shape[-1], g.shape[-1]), dtype=g.dtype)
    for s, e in _blocks(n):
        for j, (p, shift) in enumerate(grid.taps):
            gw[j] += ph[p, s + shift:e + shift].T @ g[s:e]
    return gw


def _correlate_input(g: np.ndarray, w: np.ndarray, grid: _Grid) -> np.ndarray:
    """Input gradient as phases: g @ w[tap].T added into each tap's row range.

    ``g`` is the output gradient as (span, Cout) grid rows, zero off the
    output; ``w`` is (taps, C, Cout).  Returns (phases, rows, C).
    """
    n, c = grid.span, w.shape[1]
    gph = np.zeros((len(grid.parts), grid.rows, c), dtype=g.dtype)
    if not _per_tap(c, w.shape[2]):
        gcols = w.reshape(-1, w.shape[2]) @ g.T
        for j, (p, shift) in enumerate(grid.taps):
            gph[p, shift:shift + n] += gcols[j * c:(j + 1) * c].T
        return gph
    # numpy's matmul takes a slower path for a transposed view than for a
    # contiguous operand, so transpose the small kernel once.
    wt = np.ascontiguousarray(w.transpose(0, 2, 1))
    tmp = np.empty((min(n, _BLOCK_ROWS), c), dtype=g.dtype)
    for s, e in _blocks(n):
        for j, (p, shift) in enumerate(grid.taps):
            gph[p, s + shift:e + shift] += np.matmul(g[s:e], wt[j], out=tmp[:e - s])
    return gph


def channel_sum(g: np.ndarray) -> np.ndarray:
    """Sum over every axis but the channels, as one matrix-vector product.

    The bias gradient of a conv.  BLAS does it about 15x faster than
    ``sum`` over the leading axes.
    """
    rows = g.reshape(-1, g.shape[-1])
    return np.ones(rows.shape[0], dtype=g.dtype) @ rows


def _refuse(op: str, x: Tensor, kernel: Tensor, bias: Tensor, nd: int, stride: int = 1,
            transposed: bool = False) -> None:
    """Refuse, naming ``op``, a wrong input or kernel rank, kernel extents
    that are even or unequal, a stride below 1, a channel count or bias
    length that does not match the kernel, and mixed dtypes.  The input has
    the kernel's Cin channels and the bias Cout, or the other way round for
    the ``transposed`` op, ``deconv3d``.
    """
    if x.data.ndim != nd + 1:
        raise ValueError(f"{op}: expected ({', '.join('HWD'[:nd])}, C) input, got shape {x.data.shape}")
    ks = kernel.data.shape
    if len(ks) != nd + 2 or len(set(ks[:nd])) != 1 or ks[0] % 2 != 1:
        raise ValueError(f"{op}: expected a ({', '.join('k' * nd)}, Cin, Cout) kernel with k odd, got shape {ks}")
    if stride < 1:
        raise ValueError(f"{op}: stride must be >= 1, got {stride}")
    cin, cout = ks[nd:]
    takes, makes = (cout, cin) if transposed else (cin, cout)
    if x.data.shape[-1] != takes:
        raise ValueError(f"{op}: input has {x.data.shape[-1]} channels, kernel expects {takes}")
    if bias.data.shape != (makes,):
        raise ValueError(f"{op}: bias shape {bias.data.shape} != ({makes},)")
    for t in (kernel, bias):
        if t.data.dtype != x.data.dtype:
            raise ValueError(f"{op}: dtype mismatch {x.data.dtype} vs {t.data.dtype}")


def _conv_nd(x: Tensor, kernel: Tensor, bias: Tensor, stride: int, nd: int) -> Tensor:
    kshape = kernel.data.shape
    grid = _grid(x.data.shape[:-1], kshape[:nd], (stride,) * nd)
    w = kernel.data.reshape(-1, *kshape[nd:])
    out_data = grid.extract(_correlate(grid.phases(x.data), w, grid))
    out_data += bias.data
    sx, sk, sb = sink(x), sink(kernel), sink(bias)
    cached = x.data if sk is not None else None

    def bwd(g):
        grows = grid.embed(g)
        if sk is not None:
            accumulate(sk, _correlate_weight(grid.phases(cached), grows, grid).reshape(kshape))
        if sb is not None:
            accumulate(sb, channel_sum(g))
        if sx is not None:
            accumulate(sx, grid.unphase(_correlate_input(grows, w, grid)))

    return make_op(out_data, (x, kernel, bias), bwd)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """2D convolution over an (H, W, Cin) tensor with a (k, k, Cin, Cout) kernel.

    Same-padded: stride 1 preserves dims, stride s gives ceil(n / s).
    """
    _refuse("conv2d", x, kernel, bias, 2, stride)
    return _conv_nd(x, kernel, bias, int(stride), nd=2)


def conv3d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """3D convolution over an (H, W, D, Cin) tensor with a (k, k, k, Cin, Cout) kernel.

    Same-padded: stride 1 preserves dims, stride s gives ceil(n / s).
    """
    _refuse("conv3d", x, kernel, bias, 3, stride)
    return _conv_nd(x, kernel, bias, int(stride), nd=3)


def deconv3d(y: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Transposed 3D convolution, the exact adjoint of stride-2 ``conv3d``.

    The kernel is given in conv3d layout (k, k, k, Cin, Cout): with that
    kernel conv3d maps (2h, 2w, 2d, Cin) -> (h, w, d, Cout), and deconv3d
    maps (h, w, d, Cout) -> (2h, 2w, 2d, Cin), satisfying
    <conv3d(x), y> == <x, deconv3d(y)> with zero biases.  ``bias`` has
    length Cin and is added to the upsampled output.
    """
    _refuse("deconv3d", y, kernel, bias, 3, transposed=True)
    kshape = kernel.data.shape
    grid = _grid(tuple(2 * n for n in y.data.shape[:3]), kshape[:3], (2,) * 3)
    w = kernel.data.reshape(-1, *kshape[3:])
    out_data = grid.unphase(_correlate_input(grid.embed(y.data), w, grid))
    out_data += bias.data
    sy, sk, sb = sink(y), sink(kernel), sink(bias)
    cached = y.data if sk is not None else None

    def bwd(g):
        gph = grid.phases(g)
        if sy is not None:
            accumulate(sy, grid.extract(_correlate(gph, w, grid)))
        if sk is not None:
            accumulate(sk, _correlate_weight(gph, grid.embed(cached), grid).reshape(kshape))
        if sb is not None:
            accumulate(sb, channel_sum(g))

    return make_op(out_data, (y, kernel, bias), bwd)
