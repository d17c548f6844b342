"""Tensor engine: forward semantics, backward rules, the dead-code and frame-policy guards."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sssm import autodiff as ad
from sssm import convops, gradcheck, synth
from sssm.autodiff import Tensor, no_grad
from sssm.losses import LossWeights
from sssm.network import NetConfig, init_weights
from sssm.training import OptimizerState, TrainConfig, default_margin, train_step


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr), requires_grad=requires_grad, dtype=np.float64)


class TestTensorBasics:
    def test_dtype_coercion(self):
        # int input coerces to the float32 default; explicit float dtypes stick
        assert Tensor([1, 2, 3]).data.dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).data.dtype == np.float64
        assert Tensor(np.zeros(2), dtype=np.float32).data.dtype == np.float32

    def test_item_requires_scalar(self):
        assert Tensor(np.array(2.5)).item() == 2.5
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()


class TestForwardSemantics:
    def test_binary_ops_reject_shape_mismatch(self):
        a, b = t64(np.zeros((2, 3))), t64(np.zeros((3, 2)))
        for op in (ad.add, ad.sub, ad.mul, ad.div):
            with pytest.raises(ValueError):
                op(a, b)

    def test_binary_ops_reject_dtype_mismatch(self):
        a = Tensor(np.zeros(3), dtype=np.float32)
        b = Tensor(np.zeros(3), dtype=np.float64)
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_abs_value(self):
        np.testing.assert_array_equal(ad.abs_(t64([-3.0, 0.0, 2.0])).data, [3.0, 0.0, 2.0])

    def test_relu_clamps_negatives(self):
        np.testing.assert_array_equal(ad.relu(t64([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_mean_reduce_of_ones(self):
        assert ad.mean_reduce(t64(np.ones((4, 4)))).item() == 1.0

    def test_crop(self):
        x = t64(np.arange(16.0).reshape(4, 4))
        c = ad.crop(x, ((1, 3), (0, 2)))
        np.testing.assert_array_equal(c.data, [[4, 5], [8, 9]])


class TestSpatialOps:
    def test_spatial_gradients_constant_image(self):
        x = t64(np.full((4, 5, 2), 3.0))
        for order in (1, 2):
            for axis in ("u", "v"):
                np.testing.assert_array_equal(
                    ad.spatial_gradients(x, order, axis).data, 0.0
                )

    def test_spatial_gradients_linear_ramp(self):
        ramp = np.arange(6.0)[None, :, None] * np.ones((4, 1, 1))
        g1 = ad.spatial_gradients(t64(ramp), 1, "u").data
        np.testing.assert_array_equal(g1[:, :-1], 1.0)
        np.testing.assert_array_equal(g1[:, -1], 0.0)
        g2 = ad.spatial_gradients(t64(ramp), 2, "u").data
        np.testing.assert_array_equal(g2, 0.0)

    def test_second_order_matches_stencil(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 7, 1))
        g2 = ad.spatial_gradients(t64(x), 2, "u").data
        interior = x[:, 2:] - 2 * x[:, 1:-1] + x[:, :-2]
        np.testing.assert_allclose(g2[:, 1:-1], interior)
        np.testing.assert_array_equal(g2[:, [0, -1]], 0.0)

    def test_mean_pool_constant(self):
        np.testing.assert_allclose(ad.mean_pool3x3(t64(np.full((5, 5, 1), 2.5))).data, 2.5)

    def test_mean_pool_impulse(self):
        x = np.zeros((5, 5, 1))
        x[2, 2, 0] = 1.0
        out = ad.mean_pool3x3(t64(x)).data[:, :, 0]
        np.testing.assert_allclose(out[1:4, 1:4], 1 / 9)
        assert out[0].sum() == 0.0

    def test_mean_pool_matches_edge_replicated_box(self):
        x = np.random.default_rng(6).standard_normal((4, 5, 2))
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
        box = sum(xp[dy:dy + 4, dx:dx + 5] for dy in range(3) for dx in range(3)) / 9
        np.testing.assert_allclose(ad.mean_pool3x3(t64(x)).data, box, rtol=0, atol=1e-15)

    def test_mean_pool_backward_is_adjoint(self):
        rng = np.random.default_rng(7)
        x = t64(rng.standard_normal((4, 5, 2)), requires_grad=True)
        out = ad.mean_pool3x3(x)
        g = rng.standard_normal(out.data.shape)
        out._bwd(g)
        assert float((x.data * x.grad).sum()) == pytest.approx(float((out.data * g).sum()), rel=1e-12)


class TestBackward:
    def test_grad_of_mean_square(self):
        p = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        loss = ad.mean_reduce(ad.mul(p, p))
        ad.backward(loss)
        np.testing.assert_allclose(p.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.add(p, p))

    def test_diamond_graph_accumulates_both_paths(self):
        # loss = mean(x*x + x*x): d/dx = 4x/n
        x = t64(np.arange(1.0, 5.0), requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.mean_reduce(ad.add(y, y))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 4 * x.data / 4)

    def test_shared_leaf_in_two_ops(self):
        x = t64([2.0], requires_grad=True)
        loss = ad.mean_reduce(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_abs_subgradient_zero_at_zero(self):
        x = t64([-2.0, 0.0, 2.0], requires_grad=True)
        ad.backward(ad.mean_reduce(ad.abs_(x)))
        np.testing.assert_array_equal(x.grad, np.array([-1.0, 0.0, 1.0]) / 3)

    def test_no_grad_suspends_recording(self):
        x = t64([1.0], requires_grad=True)
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        loss = ad.mean_reduce(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0])

    def test_grad_not_aliased_to_upstream_buffer(self):
        # Two consumers of x: the first accumulate must copy, otherwise
        # the second += would corrupt the shared gradient buffer.
        x = t64([1.0, 2.0], requires_grad=True)
        y = ad.reshape(x, (2, 1))
        z = ad.reshape(x, (2, 1))
        loss = ad.mean_reduce(ad.add(y, z))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.array([2.0, 2.0]) / 2)

    def test_crop_backward_holds_one_full_size_gradient(self):
        # crop's backward scatters into one fresh full-size buffer; the
        # first accumulate must take it as the gradient, not copy it.
        x = t64(np.zeros((512, 512)), requires_grad=True)
        loss = ad.mean_reduce(ad.crop(x, ((0, 4), (0, 4))))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.data.nbytes
        assert x.grad.sum() == 16.0 / 16

    def test_second_backward_through_freed_graph_raises(self):
        # a graph kept after backward would take the gradient a second time
        x = t64([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.mean_reduce(y)
        ad.backward(loss)
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            ad.backward(loss)
        with pytest.raises(RuntimeError, match="freed"):
            ad.backward(ad.mean_reduce(ad.scale(y, 2.0)))
        np.testing.assert_array_equal(x.grad, first)

    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self):
        x = t64([1.0, 2.0], requires_grad=True)
        c = t64([3.0, 4.0])
        y = ad.mul(x, c)
        z = ad.relu(y)
        loss = ad.mean_reduce(z)
        ad.backward(loss)
        for node in (y, z, loss):
            assert node.grad is None and node._node.parents == ()
        np.testing.assert_array_equal(x.grad, np.array([3.0, 4.0]) / 2)
        assert c.grad is None  # a constant never gets one

    def test_backward_holds_few_gradients_at_once(self):
        # a chain of eight relus: freeing as the walk goes keeps about two
        # gradients alive, where keeping them all would hold eight
        def chain(x):
            y = x
            for _ in range(8):
                y = ad.relu(y)
            return ad.mean_reduce(y)

        x = t64(np.ones(1 << 17), requires_grad=True)
        loss = chain(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.data.nbytes
        np.testing.assert_array_equal(x.grad, 1.0 / x.data.size)

    def test_check_finite_toggle(self):
        x = t64([1.0], requires_grad=True)
        ad.set_check_finite(True)
        try:
            # The division by zero is the point; keep numpy quiet about it.
            with np.errstate(divide="ignore"), pytest.raises(FloatingPointError, match=r"\bdiv\b.*\(1,\)"):
                ad.div(x, t64([0.0]))
        finally:
            ad.set_check_finite(False)


class TestReluMask:
    """relu's backward keeps its output's sign as one bit per element."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (9,), (3, 5, 7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_passes_where_positive(self, shape, dtype):
        # exact zeros (either sign) take the subgradient 0
        x = np.resize([2.0, 0.0, -1.5, 0.25, -0.0, 3.0, -2.0], shape)
        x = Tensor(x, requires_grad=True, dtype=dtype)
        k = Tensor(np.random.default_rng(len(shape)).standard_normal(shape), dtype=dtype)
        ad.backward(ad.mean_reduce(ad.mul(ad.relu(x), k)))
        assert x.grad.dtype == dtype
        # the mean's upstream gradient 1/n, rounded to dtype as backward rounds it
        g = np.ones((), dtype) / x.data.size
        np.testing.assert_array_equal(x.grad, np.where(x.data > 0, g * k.data, 0))

    @pytest.mark.parametrize("n", [9, 105, 1000])
    def test_closure_holds_one_bit_per_element(self, n):
        y = ad.relu(Tensor(np.linspace(-1, 1, n), requires_grad=True, dtype=np.float64))
        held = [c.cell_contents for c in y._bwd.__closure__]
        assert sum(a.nbytes for a in held if isinstance(a, np.ndarray)) <= -(-n // 8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_composed_l1_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    xv = rng.uniform(-1, 1, size=(3, 4))
    yv = rng.uniform(-1, 1, size=(3, 4))
    # keep |x - y| away from the abs kink so central differences are valid
    gap = np.abs(xv - yv) < 0.05
    xv[gap] += 0.1
    x, y = t64(xv, requires_grad=True), t64(yv)
    ad.backward(ad.mean_reduce(ad.abs_(ad.sub(x, y))))
    h = 1e-6
    for idx in [(0, 0), (1, 2), (2, 3)]:
        orig = xv[idx]
        xv[idx] = orig + h
        fp = np.abs(xv - yv).mean()
        xv[idx] = orig - h
        fm = np.abs(xv - yv).mean()
        xv[idx] = orig
        num = (fp - fm) / (2 * h)
        np.testing.assert_allclose(x.grad[idx], num, atol=1e-6)


def test_every_public_op_is_called():
    """Dead-code guard over every module in ``src/sssm`` but ``gradcheck``.

    Every module-level function, private (``_``-prefixed) ones included,
    every public module-level class, and every ``Tensor`` method must be
    referenced (as a name, an attribute or an import alias) by the program
    in ``src/sssm`` or by the benchmark in ``perfbench``.  ``gradcheck``
    does not count: it checks ops, so it would keep any op alive.  Methods
    Python calls implicitly are exempt.
    """
    root = Path(__file__).resolve().parents[1]
    implicit = {"__init__", "__repr__", "__enter__", "__exit__"}
    # The documented switch for finding the op that first went non-finite;
    # it is flipped by hand when debugging, so no program path calls it.
    # The unfused volume build is the reference for criterion 2 and for the
    # fused ``volume_conv`` tests; perfbench names it only as a string.
    # ``d1_error`` is the per-pair D1 reference that ``test_metrics`` pins
    # the thresholds through; ``evaluate`` pools counts instead of calling it.
    allowed = {"set_check_finite", "build_feature_volume", "d1_error"}
    callers = [p for p in (root / "src" / "sssm").glob("*.py") if p.name != "gradcheck.py"]
    defined = set()
    for path in callers:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) or (
                    isinstance(node, ast.ClassDef) and not node.name.startswith("_")):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef) and node.name == "Tensor":
                defined.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
    assert {"autodiff.py", "metrics.py", "cli.py"} <= {p.name for p in callers}
    callers += (root / "perfbench").glob("*.py")
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(defined - implicit - allowed - used)
    assert not unused, f"nothing in src/sssm or perfbench calls {unused}"


def test_only_network_reads_the_scale_factor():
    """Frame-policy guard: ``network.forward`` pads a frame to the network's
    scales and crops its maps back, so no other module in ``src/sssm`` reads
    ``scale_factor`` to pad, crop or refuse a frame size itself."""
    root = Path(__file__).resolve().parents[1] / "src" / "sssm"
    readers = sorted(path.name for path in root.glob("*.py")
                     if any(isinstance(node, ast.Attribute) and node.attr == "scale_factor"
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == ["network.py"]


def test_only_online_adapt_calls_train_step():
    """One-loop guard: ``online_adapt`` is the only loop over training steps,
    so the loss-log rows and the checkpoint policy of ``sssm train`` and
    ``sssm adapt`` come from one place; ``train_from_scratch`` feeds it crops."""
    root = Path(__file__).resolve().parents[1] / "src" / "sssm"
    calls = []
    for path in sorted(root.glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text())):
            if isinstance(top, ast.FunctionDef):
                calls += [(path.name, top.name) for node in ast.walk(top)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", getattr(node.func, "attr", None)) == "train_step"]
    assert calls == [("training.py", "online_adapt")]


def test_every_op_of_a_training_step_has_its_own_oracle(monkeypatch):
    """Oracle-coverage guard: every op that a toy ``train_step`` records in
    the graph is also recorded by some ``gradcheck`` oracle other than the
    end-to-end ``pipeline`` check, so each backward rule is checked alone.

    An op is named by its backward closure's function, as ``make_op``
    names it in a non-finite error, except that ``conv2d`` and ``conv3d``,
    whose closures are both ``_conv_nd``'s, are told apart by rank.
    """
    recorded = []
    conv_nd = convops._conv_nd

    class Recording(ad.Node):
        __slots__ = ()

        def __init__(self, dtype, parents=(), bwd=None):
            super().__init__(dtype, parents, bwd)
            if bwd is not None:
                recorded.append(bwd.__qualname__.split(".<locals>")[0])

    def ranked_conv_nd(*args, nd):
        out = conv_nd(*args, nd=nd)
        if out.requires_grad:
            assert recorded[-1] == "_conv_nd"
            recorded[-1] = f"conv{nd}d"
        return out

    def ops_of(fn):
        recorded.clear()
        fn()
        return set(recorded)

    monkeypatch.setattr(ad, "Node", Recording)
    monkeypatch.setattr(convops, "_conv_nd", ranked_conv_nd)
    cfg = NetConfig.toy()
    weights = init_weights(cfg, seed=0)
    # a frame the network's scale factor does not divide, so padding and crop run too
    pair = synth.synth_pair(0, 34, 66, synth.constant_field(4.0))
    step = ops_of(lambda: train_step(weights, pair.left, pair.right,
                                     TrainConfig(crop_height=34, crop_width=66), LossWeights(),
                                     OptimizerState.fresh(weights), default_margin(cfg)))
    assert {"conv2d", "conv3d", "soft_argmin", "volume_conv", "warp"} <= step
    covered = set()
    for name, fn, _, _ in gradcheck.check_table():
        if name != "pipeline":
            covered |= ops_of(fn)
    assert not step - covered, f"only the pipeline oracle exercises {sorted(step - covered)}"
