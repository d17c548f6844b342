"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and remembers the operation that produced it as a
closure; ``backward`` replays those closures in reverse topological order.
float32 is the working precision for training, float64 is supported end to
end so finite-difference oracles can run at full accuracy.

Elementwise binary ops require exactly equal shapes: there is no implicit
broadcasting, shape changes go through explicit ops (``repeat``, ``reshape``,
``crop``, ``pad_zero``).
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_check_finite = False


def set_check_finite(enabled: bool) -> None:
    """Globally toggle per-op output finiteness checks (off by default).

    Checking costs a full pass over every op output, so training leaves it
    off and verifies the loss instead; tests and debugging turn it on.
    """
    global _check_finite
    _check_finite = bool(enabled)


class no_grad:
    """Context manager that suspends graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    ``grad`` stays ``None`` until ``backward`` reaches the tensor.  Leaf
    tensors are created directly; interior nodes are created by ops via
    ``make_op`` and carry their parents and a backward closure, which
    ``backward`` frees, with the gradient, once it has run.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = np.ascontiguousarray(arr, dtype=DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars dispatch to the scalar ops, tensors require
    # exactly matching shapes.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)


def make_op(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    """Wrap an op result, recording ``bwd`` if any parent needs gradients.

    ``bwd`` receives the output gradient and must push gradients to the
    parents with ``accumulate``.  When recording is off (``no_grad``) or no
    parent requires grad, the result is a detached leaf.
    """
    if _check_finite and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values in op output")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    else:
        out.requires_grad = False
        out._parents = ()
        out._bwd = None
    return out


def accumulate(t: Tensor, g) -> None:
    """Add ``g`` into ``t.grad``.

    Gradients are read-only by convention: the first one is taken without a
    copy (it may alias an upstream buffer or another tensor's gradient) and
    later ones are added out of place, so no gradient buffer is mutated.
    """
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.asarray(g, dtype=t.data.dtype)
        else:
            t.grad = t.grad + g


def _freed(g):
    raise RuntimeError("backward through a graph that an earlier backward already freed")


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, freeing the graph as the walk goes.

    A node drops its gradient, closure and parents once its closure has run;
    leaves keep their gradients.  A second walk through it raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)
            node.grad, node._bwd, node._parents = None, _freed, ()


class Tape:
    """Named parameter registry with a convenience backward pass.

    Parameter iteration order is insertion order, which fixes both the
    checkpoint record order and the optimizer update order.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}

    def parameter(self, name: str, data, dtype=None) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True, dtype=dtype)
        self.params[name] = t
        return t

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def backward(self, loss: Tensor) -> None:
        """Backprop and guarantee every parameter ends up with a gradient.

        Parameters unreachable from the loss get explicit zeros so the
        optimizer update is uniform.
        """
        backward(loss)
        for t in self.params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _check_same(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"{opname}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "add")

    def bwd(g):
        accumulate(a, g)
        accumulate(b, g)

    return make_op(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "sub")

    def bwd(g):
        accumulate(a, g)
        accumulate(b, -g)

    return make_op(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "mul")

    def bwd(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    return make_op(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "div")
    out_data = a.data / b.data

    def bwd(g):
        inv_b = g / b.data
        accumulate(a, inv_b)
        accumulate(b, -inv_b * out_data)

    return make_op(out_data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        accumulate(a, -g)

    return make_op(-a.data, (a,), bwd)


def abs_(a: Tensor) -> Tensor:
    """Elementwise absolute value; the subgradient at 0 is 0."""

    def bwd(g):
        accumulate(a, g * np.sign(a.data))

    return make_op(np.abs(a.data), (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        accumulate(a, g * out_data)

    return make_op(out_data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at 0 is 0."""
    out_data = np.maximum(a.data, 0)

    def bwd(g):
        accumulate(a, g * (a.data > 0))

    return make_op(out_data, (a,), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        accumulate(a, g * s)

    return make_op(a.data * a.data.dtype.type(s), (a,), bwd)


def add_scalar(a: Tensor, s: float) -> Tensor:
    def bwd(g):
        accumulate(a, g)

    return make_op(a.data + a.data.dtype.type(s), (a,), bwd)


def _reduce(a: Tensor, axis, mean: bool) -> Tensor:
    if axis is not None:
        axis = int(axis)
        if not -a.data.ndim <= axis < a.data.ndim:
            raise ValueError(f"reduce: axis {axis} out of range for shape {a.data.shape}")
        axis = axis % a.data.ndim
    n = a.data.size if axis is None else a.data.shape[axis]
    out_data = a.data.mean(axis=axis) if mean else a.data.sum(axis=axis)
    if axis is None:
        out_data = np.asarray(out_data, dtype=a.data.dtype)

    def bwd(g):
        gg = g / n if mean else g
        if axis is None:
            accumulate(a, np.broadcast_to(gg, a.data.shape))
        else:
            accumulate(a, np.broadcast_to(np.expand_dims(gg, axis), a.data.shape))

    return make_op(out_data, (a,), bwd)


def mean_reduce(a: Tensor, axis: int | None = None) -> Tensor:
    """Mean over all elements (axis=None, scalar result) or one axis (removed)."""
    return _reduce(a, axis, mean=True)


def sum_reduce(a: Tensor, axis: int | None = None) -> Tensor:
    return _reduce(a, axis, mean=False)


def repeat(a: Tensor, repeats: int, axis: int) -> Tensor:
    """Repeat each element ``repeats`` times along ``axis`` (np.repeat)."""
    repeats = int(repeats)
    axis = int(axis) % a.data.ndim
    if repeats < 1:
        raise ValueError("repeat: repeats must be >= 1")
    shape = a.data.shape

    def bwd(g):
        folded = g.reshape(shape[:axis] + (shape[axis], repeats) + shape[axis + 1:])
        accumulate(a, folded.sum(axis=axis + 1))

    return make_op(np.repeat(a.data, repeats, axis=axis), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.data.shape

    def bwd(g):
        accumulate(a, g.reshape(old))

    return make_op(a.data.reshape(shape).copy(), (a,), bwd)


def crop(a: Tensor, bounds) -> Tensor:
    """Slice per axis: ``bounds`` is one (start, stop) pair or None per axis."""
    if len(bounds) != a.data.ndim:
        raise ValueError(f"crop: {len(bounds)} bounds for {a.data.ndim} axes")
    slices = tuple(slice(None) if b is None else slice(int(b[0]), int(b[1])) for b in bounds)
    out_data = a.data[slices]
    if out_data.size == 0:
        raise ValueError(f"crop: empty result from bounds {bounds} on shape {a.data.shape}")

    def bwd(g):
        gx = np.zeros_like(a.data)
        gx[slices] = g
        accumulate(a, gx)

    return make_op(np.ascontiguousarray(out_data), (a,), bwd)


def pad_zero(a: Tensor, pads) -> Tensor:
    """Zero-pad per axis: ``pads`` is one (before, after) pair per axis."""
    if len(pads) != a.data.ndim:
        raise ValueError(f"pad_zero: {len(pads)} pad pairs for {a.data.ndim} axes")
    pads = tuple((int(p[0]), int(p[1])) for p in pads)
    slices = tuple(slice(p[0], p[0] + n) for p, n in zip(pads, a.data.shape))

    def bwd(g):
        accumulate(a, g[slices])

    return make_op(np.pad(a.data, pads), (a,), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis (max-subtracted)."""
    axis = int(axis) % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        accumulate(a, out_data * (g - dot))

    return make_op(out_data, (a,), bwd)


_AXIS_BY_NAME = {"u": 1, "v": 0}


def spatial_gradients(a: Tensor, order: int, axis: str) -> Tensor:
    """Finite-difference image derivative along ``axis`` ('u'=width, 'v'=height).

    order 1: forward difference x[i+1] - x[i], last line zero.
    order 2: x[i+1] - 2 x[i] + x[i-1], first and last lines zero.
    Operates on the first two axes of an (H, W) or (H, W, C) tensor.
    """
    if axis not in _AXIS_BY_NAME:
        raise ValueError(f"spatial_gradients: axis must be 'u' or 'v', got {axis!r}")
    if order not in (1, 2):
        raise ValueError(f"spatial_gradients: order must be 1 or 2, got {order}")
    if a.data.ndim not in (2, 3):
        raise ValueError(f"spatial_gradients: expected 2D or 3D tensor, got shape {a.data.shape}")
    ax = _AXIS_BY_NAME[axis]
    n = a.data.shape[ax]
    if n < order + 1:
        raise ValueError(f"spatial_gradients: extent {n} too small for order {order}")

    def sl(s):
        idx = [slice(None)] * a.data.ndim
        idx[ax] = s
        return tuple(idx)

    out_data = np.zeros_like(a.data)
    if order == 1:
        out_data[sl(slice(0, n - 1))] = a.data[sl(slice(1, n))] - a.data[sl(slice(0, n - 1))]

        def bwd(g):
            gi = g[sl(slice(0, n - 1))]
            gx = np.zeros_like(a.data)
            gx[sl(slice(1, n))] += gi
            gx[sl(slice(0, n - 1))] -= gi
            accumulate(a, gx)

    else:
        out_data[sl(slice(1, n - 1))] = (
            a.data[sl(slice(2, n))] - 2 * a.data[sl(slice(1, n - 1))] + a.data[sl(slice(0, n - 2))]
        )

        def bwd(g):
            gi = g[sl(slice(1, n - 1))]
            gx = np.zeros_like(a.data)
            gx[sl(slice(2, n))] += gi
            gx[sl(slice(1, n - 1))] -= 2 * gi
            gx[sl(slice(0, n - 2))] += gi
            accumulate(a, gx)

    return make_op(out_data, (a,), bwd)


def mean_pool3x3(a: Tensor) -> Tensor:
    """3x3 box mean over the first two axes with edge replication at borders."""
    if a.data.ndim not in (2, 3):
        raise ValueError(f"mean_pool3x3: expected 2D or 3D tensor, got shape {a.data.shape}")
    h, w = a.data.shape[:2]
    if h < 3 or w < 3:
        raise ValueError(f"mean_pool3x3: spatial dims must be >= 3, got {(h, w)}")
    rest = ((0, 0),) * (a.data.ndim - 2)
    xp = np.pad(a.data, ((1, 1), (1, 1)) + rest, mode="edge")
    acc = np.zeros_like(a.data)
    for dy in range(3):
        for dx in range(3):
            acc += xp[dy:dy + h, dx:dx + w]
    ninth = a.data.dtype.type(1.0 / 9.0)

    def bwd(g):
        gn = g * ninth
        gp = np.zeros_like(xp)
        for dy in range(3):
            for dx in range(3):
                gp[dy:dy + h, dx:dx + w] += gn
        gx = np.ascontiguousarray(gp[1:-1, 1:-1])
        # fold the replicated border rows/cols back onto the edge pixels
        gx[0, :] += gp[0, 1:-1]
        gx[-1, :] += gp[-1, 1:-1]
        gx[:, 0] += gp[1:-1, 0]
        gx[:, -1] += gp[1:-1, -1]
        gx[0, 0] += gp[0, 0]
        gx[0, -1] += gp[0, -1]
        gx[-1, 0] += gp[-1, 0]
        gx[-1, -1] += gp[-1, -1]
        accumulate(a, gx)

    return make_op(acc * ninth, (a,), bwd)
