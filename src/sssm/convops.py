"""Convolution primitives: 2D, 3D, and transposed 3D.

All three are built from one shift-and-GEMM correlation.  The input is
zero-padded once and split into stride^S phases (a single phase at stride
1), each flattened to (rows, C).  Within a flattened phase every kernel
offset is a fixed row shift, so each tap is one GEMM on a contiguous row
range of a view.  Results are computed on the whole phase grid; rows that
fall off the true output are dropped in forward and held at zero in
backward.  The loops never run over pixels: the outer loop walks blocks of
consecutive grid rows (``_BLOCK_ROWS``), and the kernel offsets (9 or 27)
are looped inside each block.  At 16 channels a tap GEMM does little
arithmetic per byte, so it is bound by memory traffic; looping taps over
the whole grid would stream a full-size temporary and output through
memory once per tap, while a block's output rows and GEMM scratch stay in
L2 across all of its taps.

Three helpers serve every direction: ``_correlate`` (forward),
``_correlate_weight`` (weight gradient, a sum of ``view.T @ g`` GEMMs) and
``_correlate_input`` (input gradient, ``g @ W_tap.T`` GEMMs added into
shifted row ranges).  ``deconv3d``'s forward is ``_correlate_input`` and its
backward is the other two, so it is the adjoint of stride-2 ``conv3d`` by
construction.  Backward keeps only the padded input phases, about 1x the
input (``deconv3d`` keeps its input), and only when the kernel needs a
gradient.  Where the phase side has few channels the per-tap GEMMs
degenerate, so the helpers stack the shifted row ranges into one small
transient column matrix instead (``_per_tap``), built over the whole grid
rather than in blocks.

Data layouts: images are (H, W, C), volumes are (H, W, D, C).  2D kernels
are (k, k, Cin, Cout) indexed (dy, dx, cin, cout); 3D kernels are
(k, k, k, Cin, Cout) indexed (dh, dw, dd, cin, cout).  ``deconv3d`` takes
the kernel in the same layout as the ``conv3d`` it is the adjoint of, so a
single weight tensor describes both directions.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Tensor, accumulate, make_op, sink


def _same_pads(n: int, k: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for same-padding at a given stride."""
    out = -(-n // stride)
    needed = (out - 1) * stride + k
    total = max(0, needed - n)
    before = min((k - 1) // 2, total)
    return out, before, total - before


def _conv_geometry(spatial, k, stride, padding):
    """Per-axis (out, pad_before, pad_after); raises on impossible shapes."""
    geo = []
    for n in spatial:
        if padding == "same":
            geo.append(_same_pads(n, k, stride))
        else:
            if n < k:
                raise ValueError(f"conv: extent {n} smaller than kernel {k}")
            geo.append(((n - k) // stride + 1, 0, 0))
    return geo


class _Grid:
    """Where each kernel tap reads in the flattened phases of a padded input.

    Phase r holds padded positions m * stride + r, so tap a reads phase
    a % stride at grid offset a // stride: one row shift per tap.  Output n
    sits at grid row ravel(n); ``span`` rows cover every output, and every
    tap's shifted range of ``span`` rows stays inside the phase.
    """

    def __init__(self, spatial, k: int, stride: int, padding: str):
        nd = len(spatial)
        self.spatial = tuple(spatial)
        self.stride = stride
        geo = _conv_geometry(spatial, k, stride, padding)
        self.out = tuple(g[0] for g in geo)
        self.pads = tuple(g[1] for g in geo)
        self.grid = tuple(-(-(n + pb + pa) // stride) for n, (_, pb, pa) in zip(spatial, geo))
        self.rows = int(np.prod(self.grid))
        self.span = int(np.ravel_multi_index([o - 1 for o in self.out], self.grid)) + 1
        self.taps = tuple(
            (int(np.ravel_multi_index([i % stride for i in a], (stride,) * nd)),
             int(np.ravel_multi_index([i // stride for i in a], self.grid)))
            for a in np.ndindex(*(k,) * nd)
        )

    def _phase_slices(self, r):
        """(source, destination) slices moving input samples into phase r."""
        src, dst = [], []
        for n, pb, ri in zip(self.spatial, self.pads, r):
            first = -(-(pb - ri) // self.stride)
            start = first * self.stride + ri - pb
            src.append(slice(start, n, self.stride))
            dst.append(slice(first, first + len(range(start, n, self.stride))))
        return tuple(src), tuple(dst)

    def phases(self, x: np.ndarray) -> np.ndarray:
        """Zero-padded ``x`` split into phases, (stride^S, rows, C), in one copy."""
        nd = len(self.spatial)
        ph = np.zeros((self.stride ** nd,) + self.grid + x.shape[-1:], dtype=x.dtype)
        for p, r in enumerate(np.ndindex(*(self.stride,) * nd)):
            src, dst = self._phase_slices(r)
            ph[(p,) + dst] = x[src]
        return ph.reshape(self.stride ** nd, self.rows, x.shape[-1])

    def unphase(self, ph: np.ndarray) -> np.ndarray:
        """Adjoint of ``phases``: the input-shaped part of phase arrays."""
        nd = len(self.spatial)
        ph = ph.reshape((-1,) + self.grid + ph.shape[-1:])
        x = np.empty(self.spatial + ph.shape[-1:], dtype=ph.dtype)
        for p, r in enumerate(np.ndindex(*(self.stride,) * nd)):
            src, dst = self._phase_slices(r)
            x[src] = ph[(p,) + dst]
        return x

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Output-shaped ``y`` as (rows, C) grid rows, zero off the output."""
        rows = np.zeros(self.grid + y.shape[-1:], dtype=y.dtype)
        rows[tuple(slice(o) for o in self.out)] = y
        return rows.reshape(self.rows, -1)

    def extract(self, rows: np.ndarray) -> np.ndarray:
        """The output-shaped view of (rows, C) grid rows."""
        return rows.reshape(self.grid + rows.shape[-1:])[tuple(slice(o) for o in self.out)]


@functools.lru_cache(maxsize=64)
def _grid(spatial: tuple, k: int, stride: int, padding: str) -> _Grid:
    """The ``_Grid`` of one conv geometry, built once and shared by every call."""
    return _Grid(spatial, k, stride, padding)


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
# in L2 across all taps; 1024 and 4096 rows measured slower.
_BLOCK_ROWS = 2048


def _blocks(n: int):
    """Consecutive (start, end) blocks of ``_BLOCK_ROWS`` rows covering [0, n)."""
    return [(s, min(s + _BLOCK_ROWS, n)) for s in range(0, n, _BLOCK_ROWS)]


def _correlate(ph: np.ndarray, w: np.ndarray, grid: _Grid) -> np.ndarray:
    """Forward: (rows, Cout) grid rows of sum_taps phase_view @ w[tap].

    ``w`` is (taps, C, Cout).  Rows at and beyond ``span`` stay zero.
    """
    n, cout = grid.span, w.shape[2]
    out = np.zeros((grid.rows, cout), dtype=ph.dtype)
    if not _per_tap(w.shape[1], cout):
        np.matmul(_columns(ph, grid).T, w.reshape(-1, cout), out=out[:n])
        return out
    tmp = np.empty((min(n, _BLOCK_ROWS), cout), dtype=ph.dtype)
    for s, e in _blocks(n):
        for j, (p, shift) in enumerate(grid.taps):
            out[s:e] += np.matmul(ph[p, s + shift:e + shift], w[j], out=tmp[:e - s])
    return out


def _correlate_weight(ph: np.ndarray, g: np.ndarray, grid: _Grid) -> np.ndarray:
    """Weight gradient, (taps, C, Cout): per tap, phase_view.T @ g.

    ``g`` is the output gradient as grid rows, zero off the output.
    """
    n = grid.span
    if not _per_tap(ph.shape[-1], g.shape[-1]):
        return (_columns(ph, grid) @ g[:n]).reshape(len(grid.taps), ph.shape[-1], -1)
    gw = np.zeros((len(grid.taps), ph.shape[-1], g.shape[-1]), dtype=g.dtype)
    for s, e in _blocks(n):
        for j, (p, shift) in enumerate(grid.taps):
            gw[j] += ph[p, s + shift:e + shift].T @ g[s:e]
    return gw


def _correlate_input(g: np.ndarray, w: np.ndarray, grid: _Grid) -> np.ndarray:
    """Input gradient as phases: g @ w[tap].T added into each tap's row range.

    ``g`` is the output gradient as grid rows, zero off the output; ``w``
    is (taps, C, Cout).  Returns (stride^S, rows, C).
    """
    n, c = grid.span, w.shape[1]
    gph = np.zeros((grid.stride ** len(grid.spatial), grid.rows, c), dtype=g.dtype)
    if not _per_tap(c, w.shape[2]):
        gcols = w.reshape(-1, w.shape[2]) @ g[:n].T
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


def _conv_nd(x: Tensor, kernel: Tensor, bias: Tensor, stride: int, padding: str, nd: int) -> Tensor:
    k = kernel.data.shape[0]
    cin, cout = kernel.data.shape[-2], kernel.data.shape[-1]
    if x.data.shape[-1] != cin:
        raise ValueError(f"conv: input has {x.data.shape[-1]} channels, kernel expects {cin}")
    if bias.data.shape != (cout,):
        raise ValueError(f"conv: bias shape {bias.data.shape} != ({cout},)")
    if x.data.dtype != kernel.data.dtype:
        raise ValueError(f"conv: dtype mismatch {x.data.dtype} vs {kernel.data.dtype}")
    grid = _grid(x.data.shape[:-1], k, stride, padding)
    w = kernel.data.reshape(k ** nd, cin, cout)
    ph = grid.phases(x.data)
    out_data = grid.extract(_correlate(ph, w, grid)) + bias.data
    sx, sk, sb = sink(x), sink(kernel), sink(bias)
    kshape = kernel.data.shape
    cached = ph if sk is not None else None

    def bwd(g):
        grows = grid.embed(g)
        if sk is not None:
            accumulate(sk, _correlate_weight(cached, grows, grid).reshape(kshape))
        if sb is not None:
            accumulate(sb, g.reshape(-1, cout).sum(axis=0))
        if sx is not None:
            accumulate(sx, grid.unphase(_correlate_input(grows, w, grid)))

    return make_op(out_data, (x, kernel, bias), bwd)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: str = "same") -> Tensor:
    """2D convolution over an (H, W, Cin) tensor with a (k, k, Cin, Cout) kernel.

    ``padding`` is "same" (stride-1 output matches input dims) or "valid".
    Odd square kernels only.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv2d: expected (H, W, C) input, got shape {x.data.shape}")
    if kernel.data.ndim != 4 or kernel.data.shape[0] != kernel.data.shape[1]:
        raise ValueError(f"conv2d: expected (k, k, Cin, Cout) kernel, got shape {kernel.data.shape}")
    if kernel.data.shape[0] % 2 != 1:
        raise ValueError(f"conv2d: kernel extent must be odd, got {kernel.data.shape[0]}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding not in ("same", "valid"):
        raise ValueError(f"conv2d: padding must be 'same' or 'valid', got {padding!r}")
    return _conv_nd(x, kernel, bias, int(stride), padding, nd=2)


def conv3d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """3D convolution over an (H, W, D, Cin) tensor, same-padded.

    Stride 1 preserves dims; stride 2 requires all three spatial dims to be
    divisible by 2 and halves them.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv3d: expected (H, W, D, C) input, got shape {x.data.shape}")
    if kernel.data.ndim != 5 or len({kernel.data.shape[0], kernel.data.shape[1], kernel.data.shape[2]}) != 1:
        raise ValueError(f"conv3d: expected (k, k, k, Cin, Cout) kernel, got shape {kernel.data.shape}")
    if stride not in (1, 2):
        raise ValueError(f"conv3d: stride must be 1 or 2, got {stride}")
    if stride == 2:
        bad = [n for n in x.data.shape[:3] if n % 2]
        if bad:
            raise ValueError(f"conv3d: stride-2 input dims must be even, got {x.data.shape[:3]}")
    return _conv_nd(x, kernel, bias, int(stride), "same", nd=3)


def deconv3d(y: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Transposed 3D convolution, the exact adjoint of stride-2 ``conv3d``.

    The kernel is given in conv3d layout (k, k, k, Cin, Cout): with that
    kernel conv3d maps (2h, 2w, 2d, Cin) -> (h, w, d, Cout), and deconv3d
    maps (h, w, d, Cout) -> (2h, 2w, 2d, Cin), satisfying
    <conv3d(x), y> == <x, deconv3d(y)> with zero biases.  ``bias`` has
    length Cin and is added to the upsampled output.
    """
    if y.data.ndim != 4:
        raise ValueError(f"deconv3d: expected (H, W, D, C) input, got shape {y.data.shape}")
    if kernel.data.ndim != 5:
        raise ValueError(f"deconv3d: expected (k, k, k, Cin, Cout) kernel, got shape {kernel.data.shape}")
    k = kernel.data.shape[0]
    cin, cout = kernel.data.shape[3], kernel.data.shape[4]
    if y.data.shape[-1] != cout:
        raise ValueError(f"deconv3d: input has {y.data.shape[-1]} channels, kernel expects {cout}")
    if bias.data.shape != (cin,):
        raise ValueError(f"deconv3d: bias shape {bias.data.shape} != ({cin},)")
    grid = _grid(tuple(2 * n for n in y.data.shape[:3]), k, 2, "same")
    w = kernel.data.reshape(k ** 3, cin, cout)
    out_data = grid.unphase(_correlate_input(grid.embed(y.data), w, grid))
    out_data += bias.data
    sy, sk, sb = sink(y), sink(kernel), sink(bias)
    kshape = kernel.data.shape
    cached = y.data if sk is not None else None

    def bwd(g):
        gph = grid.phases(g)
        if sy is not None:
            accumulate(sy, grid.extract(_correlate(gph, w, grid)))
        if sk is not None:
            accumulate(sk, _correlate_weight(gph, grid.embed(cached), grid).reshape(kshape))
        if sb is not None:
            accumulate(sb, g.sum(axis=(0, 1, 2)))

    return make_op(out_data, (y, kernel, bias), bwd)
