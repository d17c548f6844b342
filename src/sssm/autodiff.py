"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray.  A Tensor that needs a gradient also holds a
``Node``: the graph record, with the gradient, the parent nodes and the
backward closure of the op that made it, but no values.  ``backward``
replays those closures in reverse topological order.  float32 is the
working precision for training, float64 is supported end to end so
finite-difference oracles can run at full accuracy.

The rule for writing an op: take each parent's ``sink`` (its node, or None
when no gradient flows to it) and let the backward closure capture those
sinks plus only the arrays it reads, never a parent Tensor.  An array then
dies as soon as the caller drops its last Tensor, unless backward reads
it: ``relu`` keeps a boolean mask of its output, ``exp`` its output, and
``add``, ``reshape`` and ``crop`` keep nothing.  ``make_op`` wraps the
result and links the parents' nodes.

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


class Node:
    """One tensor's place in the graph: gradient, parent nodes, backward closure.

    A leaf's node has no parents and no closure.  The dtype is the only
    trace of the values; ``accumulate`` casts the first gradient to it.
    """

    __slots__ = ("grad", "parents", "bwd", "dtype")

    def __init__(self, dtype, parents=(), bwd=None):
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        self.dtype = dtype


class Tensor:
    """A dense array plus, when it needs a gradient, its graph ``Node``.

    Leaf tensors are created directly; interior ones by ops via ``make_op``.
    ``grad``, ``_parents`` and ``_bwd`` read and write the node, which
    ``backward`` frees once its closure has run.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = np.ascontiguousarray(arr, dtype=DEFAULT_DTYPE)
        self.data = arr
        self._node = Node(arr.dtype) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ValueError("cannot set the gradient of a tensor that does not require grad")

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node.parents

    @property
    def _bwd(self):
        return None if self._node is None else self._node.bwd

    @_bwd.setter
    def _bwd(self, fn):
        self._node.bwd = fn

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


def sink(t: Tensor) -> Node | None:
    """Where an op's backward sends ``t``'s gradient: its node, or None when
    no gradient flows to it (``t`` needs none, or recording is off)."""
    return t._node if _grad_enabled else None


def make_op(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    """Wrap an op result, recording ``bwd`` if any parent needs gradients.

    ``bwd`` receives the output gradient and must push gradients to the
    parents' sinks with ``accumulate``.  The new node links the parents'
    nodes, not the parents.  When recording is off (``no_grad``) or no
    parent requires grad, the result is a detached leaf.
    """
    if _check_finite and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values in op output")
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _grad_enabled:
        links = tuple(p._node for p in parents if p._node is not None)
        if links:
            out._node = Node(data.dtype, links, bwd)
    return out


def accumulate(node: Node | None, g) -> None:
    """Add ``g`` into ``node.grad``; a None sink takes nothing.

    Gradients are read-only by convention: the first one is taken without a
    copy (it may alias an upstream buffer or another tensor's gradient) and
    later ones are added out of place, so no gradient buffer is mutated.
    """
    if node is not None:
        if node.grad is None:
            node.grad = np.asarray(g, dtype=node.dtype)
        else:
            node.grad = node.grad + g


def _freed(g):
    raise RuntimeError("backward through a graph that an earlier backward already freed")


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, freeing the graph as the walk goes.

    A node drops its gradient, closure and parents once its closure has run;
    leaves keep their gradients.  A second walk through it raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is None:
        return
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    if root.grad is None:
        root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)
            node.grad, node.bwd, node.parents = None, _freed, ()


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
    sa, sb = sink(a), sink(b)

    def bwd(g):
        accumulate(sa, g)
        accumulate(sb, g)

    return make_op(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "sub")
    sa, sb = sink(a), sink(b)

    def bwd(g):
        accumulate(sa, g)
        accumulate(sb, -g)

    return make_op(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "mul")
    sa, sb = sink(a), sink(b)
    # each side's gradient reads the other side's values
    b_data = b.data if sa is not None else None
    a_data = a.data if sb is not None else None

    def bwd(g):
        if sa is not None:
            accumulate(sa, g * b_data)
        if sb is not None:
            accumulate(sb, g * a_data)

    return make_op(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "div")
    out_data = a.data / b.data
    sa, sb = sink(a), sink(b)
    b_data = b.data
    quotient = out_data if sb is not None else None

    def bwd(g):
        inv_b = g / b_data
        accumulate(sa, inv_b)
        if sb is not None:
            accumulate(sb, -inv_b * quotient)

    return make_op(out_data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    sa = sink(a)

    def bwd(g):
        accumulate(sa, -g)

    return make_op(-a.data, (a,), bwd)


def abs_(a: Tensor) -> Tensor:
    """Elementwise absolute value; the subgradient at 0 is 0."""
    sa, a_data = sink(a), a.data

    def bwd(g):
        accumulate(sa, g * np.sign(a_data))

    return make_op(np.abs(a.data), (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    sa = sink(a)

    def bwd(g):
        accumulate(sa, g * out_data)

    return make_op(out_data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at 0 is 0.

    Backward keeps only where the output is positive, which is where the
    input is.
    """
    out_data = np.maximum(a.data, 0)
    sa = sink(a)
    mask = out_data > 0 if sa is not None else None

    def bwd(g):
        accumulate(sa, g * mask)

    return make_op(out_data, (a,), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    sa = sink(a)

    def bwd(g):
        accumulate(sa, g * s)

    return make_op(a.data * a.data.dtype.type(s), (a,), bwd)


def add_scalar(a: Tensor, s: float) -> Tensor:
    sa = sink(a)

    def bwd(g):
        accumulate(sa, g)

    return make_op(a.data + a.data.dtype.type(s), (a,), bwd)


def _reduce(a: Tensor, axis, mean: bool) -> Tensor:
    if axis is not None:
        axis = int(axis)
        if not -a.data.ndim <= axis < a.data.ndim:
            raise ValueError(f"reduce: axis {axis} out of range for shape {a.data.shape}")
        axis = axis % a.data.ndim
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]
    out_data = a.data.mean(axis=axis) if mean else a.data.sum(axis=axis)
    if axis is None:
        out_data = np.asarray(out_data, dtype=a.data.dtype)
    sa = sink(a)

    def bwd(g):
        gg = g / n if mean else g
        if axis is None:
            accumulate(sa, np.broadcast_to(gg, shape))
        else:
            accumulate(sa, np.broadcast_to(np.expand_dims(gg, axis), shape))

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
    sa = sink(a)

    def bwd(g):
        folded = g.reshape(shape[:axis] + (shape[axis], repeats) + shape[axis + 1:])
        accumulate(sa, folded.sum(axis=axis + 1))

    return make_op(np.repeat(a.data, repeats, axis=axis), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.data.shape
    sa = sink(a)

    def bwd(g):
        accumulate(sa, g.reshape(old))

    return make_op(a.data.reshape(shape).copy(), (a,), bwd)


def crop(a: Tensor, bounds) -> Tensor:
    """Slice per axis: ``bounds`` is one (start, stop) pair or None per axis."""
    if len(bounds) != a.data.ndim:
        raise ValueError(f"crop: {len(bounds)} bounds for {a.data.ndim} axes")
    slices = tuple(slice(None) if b is None else slice(int(b[0]), int(b[1])) for b in bounds)
    out_data = a.data[slices]
    if out_data.size == 0:
        raise ValueError(f"crop: empty result from bounds {bounds} on shape {a.data.shape}")
    shape, dtype = a.data.shape, a.data.dtype
    sa = sink(a)

    def bwd(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[slices] = g
        accumulate(sa, gx)

    return make_op(np.ascontiguousarray(out_data), (a,), bwd)


def pad_zero(a: Tensor, pads) -> Tensor:
    """Zero-pad per axis: ``pads`` is one (before, after) pair per axis."""
    if len(pads) != a.data.ndim:
        raise ValueError(f"pad_zero: {len(pads)} pad pairs for {a.data.ndim} axes")
    pads = tuple((int(p[0]), int(p[1])) for p in pads)
    slices = tuple(slice(p[0], p[0] + n) for p, n in zip(pads, a.data.shape))
    sa = sink(a)

    def bwd(g):
        accumulate(sa, g[slices])

    return make_op(np.pad(a.data, pads), (a,), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis (max-subtracted)."""
    axis = int(axis) % a.data.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    sa = sink(a)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        accumulate(sa, out_data * (g - dot))

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
    shape, dtype = a.data.shape, a.data.dtype
    sa = sink(a)

    def sl(s):
        idx = [slice(None)] * len(shape)
        idx[ax] = s
        return tuple(idx)

    out_data = np.zeros_like(a.data)
    if order == 1:
        out_data[sl(slice(0, n - 1))] = a.data[sl(slice(1, n))] - a.data[sl(slice(0, n - 1))]

        def bwd(g):
            gi = g[sl(slice(0, n - 1))]
            gx = np.zeros(shape, dtype=dtype)
            gx[sl(slice(1, n))] += gi
            gx[sl(slice(0, n - 1))] -= gi
            accumulate(sa, gx)

    else:
        out_data[sl(slice(1, n - 1))] = (
            a.data[sl(slice(2, n))] - 2 * a.data[sl(slice(1, n - 1))] + a.data[sl(slice(0, n - 2))]
        )

        def bwd(g):
            gi = g[sl(slice(1, n - 1))]
            gx = np.zeros(shape, dtype=dtype)
            gx[sl(slice(2, n))] += gi
            gx[sl(slice(1, n - 1))] -= 2 * gi
            gx[sl(slice(0, n - 2))] += gi
            accumulate(sa, gx)

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
    padded_shape, dtype = xp.shape, xp.dtype
    sa = sink(a)

    def bwd(g):
        gn = g * ninth
        gp = np.zeros(padded_shape, dtype=dtype)
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
        accumulate(sa, gx)

    return make_op(acc * ninth, (a,), bwd)
