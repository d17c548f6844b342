"""Convolution kernels against brute-force and adjoint oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from sssm import autodiff as ad
from sssm import convops
from sssm.autodiff import Tensor
from sssm.convops import conv2d, conv3d, deconv3d


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr), requires_grad=requires_grad, dtype=np.float64)


def brute_conv2d(x, w, b, stride=1):
    """Nested-loop reference, same-padding (k-1)//2 before the data."""
    k, _, cin, cout = w.shape
    out_h, out_w = -(-x.shape[0] // stride), -(-x.shape[1] // stride)
    pads = []
    for n, o in ((x.shape[0], out_h), (x.shape[1], out_w)):
        total = max(0, (o - 1) * stride + k - n)
        before = min((k - 1) // 2, total)
        pads.append((before, total - before))
    xp = np.pad(x, pads + [(0, 0)])
    out = np.zeros((out_h, out_w, cout))
    for i in range(out_h):
        for j in range(out_w):
            patch = xp[i * stride:i * stride + k, j * stride:j * stride + k]
            out[i, j] = np.einsum("abc,abcd->d", patch, w) + b
    return out


def brute_conv3d(x, w, b, stride=1):
    """Nested-loop reference, same-padding as ``brute_conv2d``."""
    k = w.shape[0]
    cout = w.shape[4]
    dims = [-(-n // stride) for n in x.shape[:3]]
    pads = []
    for n, o in zip(x.shape[:3], dims):
        total = max(0, (o - 1) * stride + k - n)
        before = min((k - 1) // 2, total)
        pads.append((before, total - before))
    xp = np.pad(x, pads + [(0, 0)])
    out = np.zeros(tuple(dims) + (cout,))
    for i in range(dims[0]):
        for j in range(dims[1]):
            for l in range(dims[2]):
                patch = xp[i * stride:i * stride + k,
                           j * stride:j * stride + k,
                           l * stride:l * stride + k]
                out[i, j, l] = np.einsum("abcd,abcde->e", patch, w) + b
    return out


def brute_deconv3d(y, w, b):
    """Nested-loop adjoint of stride-2 ``brute_conv3d``: each input sample
    scatters its kernel-weighted patch into the padded output."""
    k = w.shape[0]
    pb = (k - 1) // 2
    dims = [2 * n for n in y.shape[:3]]
    xp = np.zeros(tuple(n + k for n in dims) + (w.shape[3],))
    for i, j, l in np.ndindex(*y.shape[:3]):
        xp[2 * i:2 * i + k, 2 * j:2 * j + k, 2 * l:2 * l + k] += np.einsum("e,abcde->abcd", y[i, j, l], w)
    return xp[pb:pb + dims[0], pb:pb + dims[1], pb:pb + dims[2]] + b


def _check_backward_is_adjoint(op, x, w, bias_len=None, **kw):
    """Backward against the forward it differentiates: with zero bias the op
    is linear in x and in w, so <op(x, w), g> == <x, dx> == <w, dw>."""
    rng = np.random.default_rng(x.size)
    xt, wt = t64(x, requires_grad=True), t64(w, requires_grad=True)
    out = op(xt, wt, t64(np.zeros(bias_len or w.shape[-1])), **kw)
    g = rng.standard_normal(out.data.shape)
    out._bwd(g)
    lhs = float((out.data * g).sum())
    for t in (xt, wt):
        assert abs(lhs - float((t.data * t.grad).sum())) <= 1e-9 * max(1.0, abs(lhs))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 6, 3))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0] = np.eye(3)
        out = conv2d(t64(x), t64(w), t64(np.zeros(3)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_all_ones_counting(self):
        x = np.ones((5, 5, 1))
        w = np.ones((3, 3, 1, 1))
        out = conv2d(t64(x), t64(w), t64(np.zeros(1))).data[:, :, 0]
        assert out[2, 2] == 9.0
        assert out[0, 0] == 4.0
        assert out[0, 2] == 6.0

    @pytest.mark.parametrize("seed,stride,cin,cout", [
        pytest.param(14, 1, 2, 4, id="1-same"),
        pytest.param(24, 2, 2, 4, id="2-same"),
        pytest.param(34, 3, 2, 4, id="3-same"),
        pytest.param(40, 2, 5, 3, id="2-same-5to3"),
    ])
    def test_matches_brute_force(self, seed, stride, cin, cout):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((7, 9, cin))
        w = rng.standard_normal((3, 3, cin, cout))
        b = rng.standard_normal(cout)
        out = conv2d(t64(x), t64(w), t64(b), stride=stride)
        np.testing.assert_allclose(out.data, brute_conv2d(x, w, b, stride), atol=1e-12)
        _check_backward_is_adjoint(conv2d, x, w, stride=stride)

    def test_same_stride1_preserves_dims(self):
        out = conv2d(t64(np.zeros((6, 11, 2))), t64(np.zeros((5, 5, 2, 3))), t64(np.zeros(3)))
        assert out.data.shape == (6, 11, 3)

    def test_rejects_bad_arguments(self):
        x, w, b = t64(np.zeros((5, 5, 2))), t64(np.zeros((3, 3, 2, 4))), t64(np.zeros(4))
        with pytest.raises(ValueError):
            conv2d(t64(np.zeros((5, 5, 3))), w, b)  # channel mismatch
        with pytest.raises(ValueError):
            conv2d(x, t64(np.zeros((2, 2, 2, 4))), b)  # even kernel
        with pytest.raises(ValueError):
            conv2d(x, w, t64(np.zeros(3)))  # bias length
        with pytest.raises(ValueError):
            conv2d(x, w, b, stride=0)


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 6, 2))
        w = np.zeros((1, 1, 1, 2, 2))
        w[0, 0, 0] = np.eye(2)
        out = conv3d(t64(x), t64(w), t64(np.zeros(2)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_stride2_shape(self):
        out = conv3d(t64(np.zeros((8, 8, 8, 1))), t64(np.zeros((3, 3, 3, 1, 5))),
                     t64(np.zeros(5)), stride=2)
        assert out.data.shape == (4, 4, 4, 5)

    @pytest.mark.parametrize("seed,stride,cin,cout,spatial", [
        pytest.param(1, 1, 2, 3, (4, 6, 4), id="1"),
        pytest.param(2, 2, 2, 3, (4, 6, 4), id="2"),
        pytest.param(3, 1, 1, 1, (4, 6, 4), id="1-1to1"),
        pytest.param(4, 2, 1, 4, (4, 6, 4), id="2-1to4"),
        pytest.param(5, 2, 4, 1, (4, 6, 4), id="2-4to1"),
        pytest.param(6, 2, 5, 3, (4, 6, 4), id="2-5to3"),
        pytest.param(7, 3, 2, 3, (5, 7, 5), id="3-odd"),
        pytest.param(8, 3, 2, 3, (6, 6, 6), id="3-no-pad-before"),
    ])
    def test_matches_brute_force(self, seed, stride, cin, cout, spatial):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(spatial + (cin,))
        w = rng.standard_normal((3, 3, 3, cin, cout))
        b = rng.standard_normal(cout)
        out = conv3d(t64(x), t64(w), t64(b), stride=stride)
        np.testing.assert_allclose(out.data, brute_conv3d(x, w, b, stride), atol=1e-12)
        _check_backward_is_adjoint(conv3d, x, w, stride=stride)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_node_holds_at_most_twice_the_padded_input(self, stride):
        # Backward needs the input only for the weight gradient; a node that
        # kept a k^3 * Cin wide column matrix would hold 27x (3.4x at stride 2).
        rng = np.random.default_rng(stride)
        x = Tensor(rng.standard_normal((16, 16, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 3, 8, 8)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, np.float32), requires_grad=True)
        padded = np.pad(x.data, ((1, 1), (1, 1), (1, 1), (0, 0))).nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv3d(x, w, b, stride=stride)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= 2 * padded


class TestDeconv3d:
    def test_doubles_dims(self):
        out = deconv3d(t64(np.zeros((4, 4, 4, 6))), t64(np.zeros((3, 3, 3, 2, 6))),
                       t64(np.zeros(2)))
        assert out.data.shape == (8, 8, 8, 2)

    @pytest.mark.parametrize("seed,cin,cout", [
        *(pytest.param(seed, 3, 2, id=str(seed)) for seed in range(4)),
        pytest.param(4, 1, 4, id="4-1to4"),
        pytest.param(5, 1, 1, id="5-1to1"),
        pytest.param(6, 4, 1, id="6-4to1"),
    ])
    def test_adjoint_identity(self, seed, cin, cout):
        # <conv3d(x), y> == <x, deconv3d(y)> with shared kernel, zero bias
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6, 4, cin))
        y = rng.standard_normal((2, 3, 2, cout))
        w = rng.standard_normal((3, 3, 3, cin, cout))
        zb_out = t64(np.zeros(cout))
        zb_in = t64(np.zeros(cin))
        lhs = float((conv3d(t64(x), t64(w), zb_out, stride=2).data * y).sum())
        rhs = float((x * deconv3d(t64(y), t64(w), zb_in).data).sum())
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_adjoint_identity_float32(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 4, 4, 2)).astype(np.float32)
        y = rng.standard_normal((2, 2, 2, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 2, 3)).astype(np.float32)
        lhs = float((conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(3, np.float32)), stride=2).data * y).sum())
        rhs = float((x * deconv3d(Tensor(y), Tensor(w), Tensor(np.zeros(2, np.float32))).data).sum())
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_bias_added_to_output(self):
        y = t64(np.zeros((2, 2, 2, 1)))
        w = t64(np.zeros((3, 3, 3, 2, 1)))
        out = deconv3d(y, w, t64(np.array([1.5, -2.0])))
        np.testing.assert_array_equal(out.data[..., 0], 1.5)
        np.testing.assert_array_equal(out.data[..., 1], -2.0)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            deconv3d(t64(np.zeros((2, 2, 2, 4))), t64(np.zeros((3, 3, 3, 2, 6))),
                     t64(np.zeros(2)))

    def test_rejects_dtype_mismatch(self):
        w, b = (Tensor(np.zeros(s, np.float32)) for s in ((3, 3, 3, 2, 1), (2,)))
        with pytest.raises(ValueError, match="deconv3d: dtype mismatch float64 vs float32"):
            deconv3d(t64(np.zeros((2, 2, 2, 1))), w, b)


# A valid call of each conv: input shape, kernel shape, bias length.
VALID = {"conv2d": (conv2d, (5, 5, 2), (3, 3, 2, 4), 4),
         "conv3d": (conv3d, (4, 4, 4, 2), (3, 3, 3, 2, 4), 4),
         "deconv3d": (deconv3d, (2, 2, 2, 4), (3, 3, 3, 2, 4), 2)}
# Each fault a conv refuses, and the words of its refusal.
FAULTS = {"input-rank": "input, got shape", "kernel-rank": "kernel with k odd",
          "even-kernel": "kernel with k odd", "unequal-kernel": "kernel with k odd",
          "stride": "stride must be >= 1", "channels": "channels", "bias-length": "bias shape",
          "kernel-dtype": "dtype mismatch", "bias-dtype": "dtype mismatch"}


def _call_with(name, fault=None):
    """``name``'s valid call, with one fault put in."""
    op, xs, ks, nb = VALID[name]
    nd, kdtype, bdtype, stride = len(xs) - 1, np.float64, np.float64, 1
    if fault == "input-rank":
        xs += (1,)
    elif fault == "kernel-rank":
        ks = ks[:1] + ks
    elif fault == "even-kernel":
        ks = (2,) * nd + ks[nd:]
    elif fault == "unequal-kernel":
        ks = ks[:nd - 1] + (5,) + ks[nd:]
    elif fault == "stride":
        stride = 0
    elif fault == "channels":
        xs = xs[:-1] + (xs[-1] + 1,)
    elif fault == "bias-length":
        nb += 1
    elif fault == "kernel-dtype":
        kdtype = np.float32
    elif fault == "bias-dtype":
        bdtype = np.float32
    args = t64(np.zeros(xs)), Tensor(np.zeros(ks), dtype=kdtype), Tensor(np.zeros(nb), dtype=bdtype)
    return op(*args) if op is deconv3d else op(*args, stride=stride)


class TestRefusals:
    """Every conv refuses the same faults, through one check, by its own name."""

    @pytest.mark.parametrize("name,fault", [(n, f) for n in VALID for f in FAULTS
                                            if (n, f) != ("deconv3d", "stride")])
    def test_refused_by_name(self, name, fault):
        _call_with(name)
        with pytest.raises(ValueError, match=f"^{name}: .*{FAULTS[fault]}"):
            _call_with(name, fault)


class TestRowBlocks:
    """The oracles above, with the per-tap loops under a 7-row block: every
    case spans several blocks and ends in a ragged one, while the cases
    above fit in one 2048-row block."""

    BLOCK = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(convops, "_BLOCK_ROWS", self.BLOCK)

    def _assert_blocked(self, spatial, stride, cin, cout):
        grid = convops._grid(spatial, (3,) * len(spatial), (stride,) * len(spatial))
        assert convops._per_tap(cin, cout)
        assert grid.span > 2 * self.BLOCK and grid.span % self.BLOCK

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride):
        rng = np.random.default_rng(50 + stride)
        x = rng.standard_normal((7, 9, 4))
        w = rng.standard_normal((3, 3, 4, 3))
        b = rng.standard_normal(3)
        self._assert_blocked(x.shape[:2], stride, 4, 3)
        out = conv2d(t64(x), t64(w), t64(b), stride=stride)
        np.testing.assert_allclose(out.data, brute_conv2d(x, w, b, stride), atol=1e-12)
        _check_backward_is_adjoint(conv2d, x, w, stride=stride)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv3d(self, stride):
        rng = np.random.default_rng(60 + stride)
        x = rng.standard_normal((4, 6, 4, 3))
        w = rng.standard_normal((3, 3, 3, 3, 2))
        b = rng.standard_normal(2)
        self._assert_blocked(x.shape[:3], stride, 3, 2)
        out = conv3d(t64(x), t64(w), t64(b), stride=stride)
        np.testing.assert_allclose(out.data, brute_conv3d(x, w, b, stride), atol=1e-12)
        _check_backward_is_adjoint(conv3d, x, w, stride=stride)

    def test_deconv3d(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((4, 6, 4, 3))
        y = rng.standard_normal((2, 3, 2, 2))
        w = rng.standard_normal((3, 3, 3, 3, 2))
        self._assert_blocked(x.shape[:3], 2, 3, 2)
        lhs = float((conv3d(t64(x), t64(w), t64(np.zeros(2)), stride=2).data * y).sum())
        rhs = float((x * deconv3d(t64(y), t64(w), t64(np.zeros(3))).data).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
        _check_backward_is_adjoint(deconv3d, y, w, bias_len=3)


# Every order of three distinct extents, and ties: the grid flattens the
# shortest axis outermost, so each order lays the phases out differently.
AXIS_ORDERS = [pytest.param(shape, id="x".join(map(str, shape)))
               for shape in [*itertools.permutations((2, 4, 6)), (4, 4, 4), (6, 2, 6), (2, 6, 6)]]


class TestAxisOrders:
    """The conv3d and deconv3d oracles over every axis order, with the
    per-tap and column paths, under the default and 7-row blocks."""

    @pytest.fixture(autouse=True, params=[None, 7], ids=["blocks-default", "blocks-7"])
    def blocks(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(convops, "_BLOCK_ROWS", request.param)

    @pytest.mark.parametrize("cin,cout", [(3, 2), (1, 4)], ids=["per-tap", "columns"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", AXIS_ORDERS)
    def test_conv3d(self, shape, stride, cin, cout):
        rng = np.random.default_rng(sum(shape) + stride)
        x = rng.standard_normal(shape + (cin,))
        w = rng.standard_normal((3, 3, 3, cin, cout))
        b = rng.standard_normal(cout)
        out = conv3d(t64(x), t64(w), t64(b), stride=stride)
        np.testing.assert_allclose(out.data, brute_conv3d(x, w, b, stride), atol=1e-12)
        _check_backward_is_adjoint(conv3d, x, w, stride=stride)

    @pytest.mark.parametrize("cin,cout", [(3, 2), (1, 4)], ids=["per-tap", "columns"])
    @pytest.mark.parametrize("shape", AXIS_ORDERS)
    def test_deconv3d(self, shape, cin, cout):
        rng = np.random.default_rng(sum(shape))
        y = rng.standard_normal(tuple(n // 2 for n in shape) + (cout,))
        w = rng.standard_normal((3, 3, 3, cin, cout))
        b = rng.standard_normal(cin)
        out = deconv3d(t64(y), t64(w), t64(b))
        np.testing.assert_allclose(out.data, brute_deconv3d(y, w, b), atol=1e-12)
        _check_backward_is_adjoint(deconv3d, y, w, bias_len=cin)


class TestGrid:
    """The flattened phase layout itself."""

    @pytest.mark.parametrize("spatial,k,stride,span", [
        pytest.param((32, 64, 10), (3,) * 3, (1,) * 3, 21384, id="scale1-s1"),
        pytest.param((16, 32, 5), (3,) * 3, (1,) * 3, 2771, id="scale2-s1"),
        pytest.param((32, 64, 10), (3,) * 3, (2,) * 3, 2771, id="scale1-s2"),
        pytest.param((64, 128, 20), (3,) * 3, (2,) * 3, 21384, id="volume-s2"),
        pytest.param((64, 128), (3,) * 2, (1,) * 2, 8255, id="image-s1"),
        pytest.param((9, 7), (3,) * 2, (3,) * 2, 9, id="2d-s3"),
        pytest.param((6, 2, 4), (3,) * 3, (2,) * 3, 7, id="3d-s2-short-middle"),
        # volume_conv's second-view grid: no padding along W, so every row
        # is an output; on a tall map H is innermost and its lines carry
        # one padding row each
        pytest.param((64, 128), (3, 1), (2, 1), 4096, id="3x1-s21"),
        pytest.param((12, 4), (3, 1), (2, 1), 27, id="3x1-s21-tall"),
    ])
    def test_invariants(self, spatial, k, stride, span):
        grid = convops._Grid(spatial, k, stride)
        assert grid.span == span
        assert len(grid.taps) == np.prod(k)
        for _, shift in grid.taps:
            assert 0 <= shift and shift + grid.span <= grid.rows
        ph = grid.phases(np.ones(spatial + (2,)))
        assert ph.shape == (np.prod(stride), grid.rows, 2)
        np.testing.assert_array_equal((ph == 1).sum(axis=(0, 1)), np.prod(spatial))
        np.testing.assert_array_equal((ph == 0).sum(axis=(0, 1)), ph[..., 0].size - np.prod(spatial))
        rng = np.random.default_rng(len(spatial))
        x = rng.standard_normal(spatial + (3,))
        np.testing.assert_array_equal(grid.unphase(grid.phases(x)), x)
        y = rng.standard_normal(grid.out + (3,))
        rows = grid.embed(y)
        assert rows.shape == (grid.span, 3)
        np.testing.assert_array_equal(grid.extract(rows), y)
        assert np.count_nonzero(rows) == y.size


class TestConvGradients:
    """Spot finite-difference checks; the full sweep lives in the gradcheck suite."""

    def _fd_check(self, fn, tensors, coords, h=1e-6, tol=1e-7):
        loss = fn()
        ad.backward(loss)
        grads = [t.grad.reshape(-1).copy() for t, _ in coords]
        for (t, idx), grad in zip(coords, grads):
            flat = t.data.reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + h
            with ad.no_grad():
                fp = fn().item()
            flat[idx] = orig - h
            with ad.no_grad():
                fm = fn().item()
            flat[idx] = orig
            num = (fp - fm) / (2 * h)
            assert abs(grad[idx] - num) < tol

    def test_conv2d_gradients(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((6, 6, 2)), requires_grad=True)
        w = t64(rng.standard_normal((3, 3, 2, 4)), requires_grad=True)
        b = t64(rng.standard_normal(4), requires_grad=True)
        proj = t64(rng.standard_normal((6, 6, 4)))

        def fn():
            x.grad = w.grad = b.grad = None
            return ad.mean_reduce(ad.mul(conv2d(x, w, b), proj))

        self._fd_check(fn, [x, w, b], [(x, 0), (x, 37), (w, 5), (w, 60), (b, 2)])

    def test_deconv3d_gradients(self):
        rng = np.random.default_rng(4)
        y = t64(rng.standard_normal((2, 2, 2, 3)), requires_grad=True)
        w = t64(rng.standard_normal((3, 3, 3, 2, 3)), requires_grad=True)
        b = t64(rng.standard_normal(2), requires_grad=True)
        proj = t64(rng.standard_normal((4, 4, 4, 2)))

        def fn():
            y.grad = w.grad = b.grad = None
            return ad.mean_reduce(ad.mul(deconv3d(y, w, b), proj))

        self._fd_check(fn, [y, w, b], [(y, 1), (y, 20), (w, 77), (b, 0), (b, 1)])


def _held_by(call) -> tuple[int, Tensor]:
    """Bytes that ``call()`` leaves allocated, and the Tensor it returns."""
    call()  # build the cached grid outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, out


class TestHeldMemory:
    """A conv's backward holds its input, which the caller keeps, and no copy of it."""

    @pytest.mark.parametrize("op, xshape, stride", [
        (conv2d, (32, 48, 8), 1),
        (conv3d, (8, 16, 12, 8), 1),
        (conv3d, (8, 16, 12, 8), 2),
    ], ids=["conv2d", "conv3d_s1", "conv3d_s2"])
    def test_nothing_held_beyond_the_output(self, op, xshape, stride):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(xshape), requires_grad=True, dtype=np.float32)
        k = Tensor(rng.standard_normal((3,) * (len(xshape) - 1) + (8, 6)), requires_grad=True,
                   dtype=np.float32)
        b = Tensor(np.zeros(6), requires_grad=True, dtype=np.float32)
        held, y = _held_by(lambda: op(x, k, b, stride=stride))
        # the output plus the Tensor, Node and closure objects; the input's
        # padded phases alone would be over 40 KiB
        assert held - y.data.nbytes < 4096
        ad.backward(ad.mean_reduce(y))
        assert k.grad is not None and x.grad.shape == xshape
