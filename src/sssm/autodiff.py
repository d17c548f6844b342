"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray.  A Tensor that needs a gradient also holds a
``Node``: the graph record, with the gradient, the parent nodes and the
backward closure of the op that made it, but no values.  ``backward``
replays those closures in reverse topological order.  float32 is the
working precision for training, float64 is supported end to end so
finite-difference oracles can run at full accuracy.

The rule for writing an op: take each parent's ``sink`` (its node, or None
when no gradient flows to it) and let the backward closure capture those
sinks plus only the arrays it reads, never a parent Tensor.  What it
captures is an array that already exists (a parent's or its own output)
or a bit mask, never a padded or restacked copy: backward rebuilds such
layouts from the array it holds.  An array then dies as soon as the
caller drops its last Tensor, unless backward reads it: ``relu`` keeps
its output's sign as one bit per element, a conv its input, and ``add``,
``reshape``, ``crop`` and ``mean_pool3x3`` (whose box is its own adjoint)
keep nothing.  A segment run through ``checkpoint`` holds only its
inputs, the input array and each parameter's array and node: none of its
activations exist between forward and backward, because backward
rebuilds them by running the segment again.  Because closures share the
arrays they hold, a wrapped array is never mutated in place while a graph
reads it: the optimiser updates parameters only after backward, and
gradcheck probes coordinates only under ``no_grad``.
``make_op`` wraps the result and links the parents' nodes.

Ops are called by name (``add``, ``mul``, ...); ``Tensor`` has no operator
sugar.  Elementwise binary ops require exactly equal shapes: there is no
implicit broadcasting, and shape changes go through ``reshape`` and ``crop``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_check_finite = False


def set_check_finite(enabled: bool) -> None:
    """Globally toggle per-op output finiteness checks (off by default).

    Checking costs a full pass over every op output, so training leaves it
    off and verifies the loss instead; tests and debugging turn it on.  The
    error names the op that made the output, and the output's shape.
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
    ``grad`` and ``_bwd`` read and write the node, which ``backward`` frees
    once its closure has run.
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
    def _bwd(self):
        return None if self._node is None else self._node.bwd

    @_bwd.setter
    def _bwd(self, fn):
        self._node.bwd = fn

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def sink(t: Tensor) -> Node | None:
    """Where an op's backward sends ``t``'s gradient: its node, or None when
    no gradient flows to it (``t`` needs none, or recording is off)."""
    return t._node if _grad_enabled else None


def _leaf(data: np.ndarray, node: Node | None) -> Tensor:
    """A Tensor around ``data`` and ``node`` as they are, without a copy."""
    t = Tensor.__new__(Tensor)
    t.data, t._node = data, node
    return t


def make_op(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    """Wrap an op result, recording ``bwd`` if any parent needs gradients.

    ``bwd`` receives the output gradient and must push gradients to the
    parents' sinks with ``accumulate``.  The new node links the parents'
    nodes, not the parents.  When recording is off (``no_grad``) or no
    parent requires grad, the result is a detached leaf.
    """
    if _check_finite and not np.all(np.isfinite(data)):
        op = bwd.__qualname__.split(".<locals>")[0]
        raise FloatingPointError(f"non-finite values in {op} output of shape {data.shape}")
    links = tuple(p._node for p in parents if p._node is not None) if _grad_enabled else ()
    return _leaf(data, Node(data.dtype, links, bwd) if links else None)


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
    if root.grad is None:
        root.grad = np.ones_like(loss.data)
    _walk(root)


def _walk(root: Node) -> None:
    """Run every closure that ``root``'s gradient reaches, in reverse topological order."""
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
    while topo:
        node = topo.pop()
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)
            node.grad, node.bwd, node.parents = None, _freed, ()


def checkpoint(fn, x: Tensor, params: dict) -> Tensor:
    """``fn(x, params)`` as one op that holds none of the segment's activations.

    ``params`` maps names to the leaf Tensors ``fn`` reads.  The forward runs
    under ``no_grad``; the node keeps ``x``'s array and each parameter's array
    and node.  Backward rebuilds the leaves from those, runs ``fn`` again
    with recording on (from a fresh leaf when ``x`` needs a gradient), and
    walks the rebuilt graph from the incoming gradient, so the parameters'
    gradients reach their own nodes.  ``fn`` must be deterministic.  When no
    gradient can flow, this is ``fn(x, params)``.
    """
    sx = sink(x)
    held = {name: (t.data, sink(t)) for name, t in params.items()}
    if sx is None and all(node is None for _, node in held.values()):
        return fn(x, params)
    x_data = x.data
    with no_grad():
        out_data = fn(x, params).data

    def bwd(g):
        leaf = _leaf(x_data, None if sx is None else Node(x_data.dtype))
        out = fn(leaf, {name: _leaf(data, node) for name, (data, node) in held.items()})
        out._node.grad = g
        _walk(out._node)
        accumulate(sx, leaf.grad)

    return make_op(out_data, (x, *params.values()), bwd)


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


def abs_(a: Tensor) -> Tensor:
    """Elementwise absolute value; the subgradient at 0 is 0."""
    sa, a_data = sink(a), a.data

    def bwd(g):
        accumulate(sa, g * np.sign(a_data))

    return make_op(np.abs(a.data), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at 0 is 0.

    Backward keeps only where the output is positive, which is where the
    input is, packed one bit per element.
    """
    out_data = np.maximum(a.data, 0)
    sa = sink(a)
    bits = np.packbits(out_data > 0, axis=None) if sa is not None else None

    def bwd(g):
        mask = np.unpackbits(bits, count=g.size).view(bool).reshape(g.shape)
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


def mean_reduce(a: Tensor) -> Tensor:
    """Mean over all elements, as a scalar of ``a``'s dtype."""
    shape, n = a.data.shape, a.data.size
    sa = sink(a)

    def bwd(g):
        accumulate(sa, np.broadcast_to(g / n, shape))

    return make_op(np.asarray(a.data.mean(), dtype=a.data.dtype), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    """A view of ``a`` in a new shape; no op output is changed in place, so it is not copied."""
    shape = tuple(int(s) for s in shape)
    old = a.data.shape
    sa = sink(a)

    def bwd(g):
        accumulate(sa, g.reshape(old))

    return make_op(a.data.reshape(shape), (a,), bwd)


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


_AXIS_BY_NAME = {"u": 1, "v": 0}
# (offset, coefficient) taps of each order's stencil, offsets relative to
# the output line
_STENCILS = {1: ((1, 1.0), (0, -1.0)), 2: ((1, 1.0), (0, -2.0), (-1, 1.0))}


def spatial_gradients(a: Tensor, order: int, axis: str) -> Tensor:
    """Finite-difference image derivative along ``axis`` ('u'=width, 'v'=height).

    order 1: forward difference x[i+1] - x[i], last line zero.
    order 2: x[i+1] - 2 x[i] + x[i-1], first and last lines zero.
    Operates on the first two axes of an (H, W) or (H, W, C) tensor.
    """
    if axis not in _AXIS_BY_NAME:
        raise ValueError(f"spatial_gradients: axis must be 'u' or 'v', got {axis!r}")
    if order not in _STENCILS:
        raise ValueError(f"spatial_gradients: order must be 1 or 2, got {order}")
    if a.data.ndim not in (2, 3):
        raise ValueError(f"spatial_gradients: expected 2D or 3D tensor, got shape {a.data.shape}")
    ax = _AXIS_BY_NAME[axis]
    n = a.data.shape[ax]
    if n < order + 1:
        raise ValueError(f"spatial_gradients: extent {n} too small for order {order}")
    shape, dtype = a.data.shape, a.data.dtype
    taps, lo, m = _STENCILS[order], order - 1, n - order
    sa = sink(a)

    def lines(arr, offset):
        """The m lines of ``arr`` that tap ``offset`` meets for output lines lo..lo+m."""
        idx = [slice(None)] * len(shape)
        idx[ax] = slice(lo + offset, lo + offset + m)
        return arr[tuple(idx)]

    out_data = np.zeros_like(a.data)
    inner = lines(out_data, 0)
    inner.fill(-0.0)  # -0.0 + x is x for every x, signed zeros included
    for offset, coef in taps:
        inner += lines(a.data, offset) * coef

    def bwd(g):
        gi = lines(g, 0)
        gx = np.zeros(shape, dtype=dtype)
        for offset, coef in taps:
            lines(gx, offset)[...] += gi * coef
        accumulate(sa, gx)

    return make_op(out_data, (a,), bwd)


def _box3x3(x: np.ndarray) -> np.ndarray:
    """Sums of the 3x3 windows over the first two axes, edges replicated.

    One pass per axis adds each line's two neighbours, an edge line standing
    in for the one it lacks.  A pass's matrix is symmetric (tridiagonal, 2 at
    both ends of the diagonal), so the whole map is its own adjoint.
    """
    for axis in (0, 1):
        out = x.copy()
        o, v = np.swapaxes(out, 0, axis), np.swapaxes(x, 0, axis)
        o[1:] += v[:-1]
        o[:-1] += v[1:]
        o[0] += v[0]
        o[-1] += v[-1]
        x = out
    return x


def mean_pool3x3(a: Tensor) -> Tensor:
    """3x3 box mean over the first two axes with edge replication at borders.

    The box is one clamped 3-tap pass per axis (``_box3x3``), its own
    adjoint, so backward runs the same passes on the gradient.
    """
    if a.data.ndim not in (2, 3) or min(a.data.shape[:2]) < 3:
        raise ValueError(f"mean_pool3x3: expected a 2D or 3D tensor of at least 3x3, got shape {a.data.shape}")
    ninth = a.data.dtype.type(1.0 / 9.0)
    sa = sink(a)

    def bwd(g):
        accumulate(sa, _box3x3(g) * ninth)

    return make_op(_box3x3(a.data) * ninth, (a,), bwd)
