"""Spans and counts recorded around calls into sssm's public functions.

The program is not edited: each wrapper replaces the module attribute that
its caller looks up, so ``network.conv3d`` is wrapped rather than
``convops.conv3d``, because ``network`` imports the name directly.  For the
primitives (the three convs, ``build_feature_volume`` and ``warp``) the
backward closure of the returned node is wrapped as well; composite
functions get forward spans only.

A span is ``[name, start, end, parent index or -1, op id]``.  Spans stay in
memory and are written out when the run ends.  Spans recorded while no op
is current (set-up, warm-up, checks) are kept but left out of the metrics.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import defaultdict

CONVS = ("conv2d", "conv3d", "deconv3d")

# Count keys that depend only on shapes, so every op of a run (and every run
# with the same seed) must give the same value.
EXACT_COUNTS = ("autodiff.nodes", "autodiff.out_bytes", "network.build_feature_volume.out_bytes",
                *(f"convops.{c}.{k}" for c in CONVS for k in ("calls", "flop")))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        if self.op is not None:
            self.counts[self.op, key] += value

    def timed(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside it."""

        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def primitive(self, name: str, gemm_flop=None):
        """After-hook for a primitive: count the call, time its backward.

        ``gemm_flop(args, node)`` gives the forward matrix-multiply flops.
        Backward runs one GEMM of the same size per differentiable input
        among the first two arguments (data and kernel).
        """

        def after(args, out):
            node = getattr(out, "values", out)
            flop = gemm_flop(args, node) if gemm_flop else 0
            self.count(f"{name}.calls", 1)
            self.count(f"{name}.flop", flop)
            self.count(f"{name}.out_bytes", node.data.nbytes)
            inner = node._bwd
            if inner is None:
                return
            bwd_flop = flop * sum(bool(t.requires_grad) for t in args[:2])

            def bwd(g):
                idx = self.enter(f"{name}.bwd")
                try:
                    inner(g)
                finally:
                    self.leave(idx)
                self.count(f"{name}.flop", bwd_flop)

            node._bwd = bwd

        return after

    def install(self) -> None:
        """Wrap every layer boundary the metrics name (see README.md)."""
        from sssm import autodiff, checkpoint, convops, data, imageio, losses, network, training

        def patch(owner, attr, name, after=None):
            setattr(owner, attr, self.timed(name, getattr(owner, attr), after))

        def gemm_flop(of_input):
            # One GEMM of (M, K) by (K, N): K * N is the kernel's size, and M
            # is the spatial size of a conv's output or of a deconv's input.
            def flop(args, node):
                small = args[0] if of_input else node
                return 2 * math.prod(small.data.shape[:-1]) * args[1].data.size

            return flop

        def saved(args, out):
            self.count("checkpoint.calls", 1)
            self.count("checkpoint.bytes", os.path.getsize(args[0]))

        for conv in CONVS:
            patch(network, conv, f"convops.{conv}.fwd", self.primitive(f"convops.{conv}", gemm_flop(conv == "deconv3d")))
        patch(network, "build_feature_volume", "network.build_feature_volume.fwd",
              self.primitive("network.build_feature_volume"))
        patch(losses, "warp", "losses.warp.fwd", self.primitive("losses.warp"))
        for attr in ("extract_features", "res_tdm", "soft_argmin"):
            patch(network, attr, f"network.{attr}")
        patch(training, "total_loss", "losses.total_loss.fwd")
        patch(losses, "ssim", "losses.ssim.fwd")
        patch(training, "reconstruction_error", "losses.reconstruction_error")
        patch(training, "train_step", "training.train_step")
        patch(training, "infer", "training.infer")
        patch(training.OptimizerState, "step", "training.optimizer_step")
        patch(autodiff, "backward", "autodiff.backward")
        patch(checkpoint, "save_arrays", "checkpoint.save_arrays", saved)
        patch(data.DatasetManifest, "load_pair", "data.load_pair")
        patch(imageio, "write_pfm", "imageio.write_pfm")
        for module in (autodiff, convops, network, losses):
            module.make_op = self._counting(module.make_op)

    def _counting(self, make_op):
        def wrapper(data, parents, bwd):
            self.count("autodiff.nodes", 1)
            self.count("autodiff.out_bytes", data.nbytes)
            return make_op(data, parents, bwd)

        return wrapper

    def summary(self, op_times: dict[int, tuple[float, float]]) -> tuple[dict, dict]:
        """Per-layer metrics over the given ops, plus the trace self-check.

        Times are means per op, so they add up to the mean latency; counts
        are medians per op.  ``op_times`` maps each successful op to its
        (start, end).
        """
        ops = sorted(op_times)
        n = len(ops)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own = defaultdict(float), defaultdict(float)
        top = defaultdict(float)
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op not in op_times:
                continue
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            if parent < 0:
                top[op] += t1 - t0

        def ms(name, table=total):
            return 1e3 * table[name] / n

        def per_op(key):
            return statistics.median(self.counts.get((op, key), 0.0) for op in ops)

        m = {
            "autodiff.backward.ms": (ms("autodiff.backward"), "ms"),
            "autodiff.backward.self_ms": (ms("autodiff.backward", own), "ms"),
            "autodiff.nodes": (per_op("autodiff.nodes"), "count"),
            "autodiff.out_mb": (per_op("autodiff.out_bytes") / 2 ** 20, "MiB"),
        }
        for conv in CONVS:
            name = f"convops.{conv}"
            busy = total[f"{name}.fwd"] + total[f"{name}.bwd"]
            flop = sum(self.counts.get((op, f"{name}.flop"), 0.0) for op in ops)
            m[f"{name}.calls"] = (per_op(f"{name}.calls"), "count")
            m[f"{name}.fwd_ms"] = (ms(f"{name}.fwd"), "ms")
            m[f"{name}.bwd_ms"] = (ms(f"{name}.bwd"), "ms")
            m[f"{name}.gflop"] = (per_op(f"{name}.flop") / 1e9, "computed_GFLOP")
            m[f"{name}.gflops"] = (flop / busy / 1e9 if busy else 0.0, "computed_GFLOP/s")
        vol = "network.build_feature_volume"
        saves = sum(self.counts.get((op, "checkpoint.calls"), 0.0) for op in ops)
        saved = sum(self.counts.get((op, "checkpoint.bytes"), 0.0) for op in ops)
        m.update({
            "network.extract_features.ms": (ms("network.extract_features"), "ms"),
            "network.extract_features.self_ms": (ms("network.extract_features", own), "ms"),
            f"{vol}.fwd_ms": (ms(f"{vol}.fwd"), "ms"),
            f"{vol}.bwd_ms": (ms(f"{vol}.bwd"), "ms"),
            f"{vol}.out_mb": (per_op(f"{vol}.out_bytes") / 2 ** 20, "MiB"),
            "network.res_tdm.ms": (ms("network.res_tdm"), "ms"),
            "network.res_tdm.self_ms": (ms("network.res_tdm", own), "ms"),
            "network.soft_argmin.ms": (ms("network.soft_argmin"), "ms"),
            "losses.total_loss.fwd_ms": (ms("losses.total_loss.fwd"), "ms"),
            "losses.warp.fwd_ms": (ms("losses.warp.fwd"), "ms"),
            "losses.warp.bwd_ms": (ms("losses.warp.bwd"), "ms"),
            "losses.ssim.fwd_ms": (ms("losses.ssim.fwd"), "ms"),
            "losses.reconstruction_error.ms": (ms("losses.reconstruction_error"), "ms"),
            "training.train_step.ms": (ms("training.train_step"), "ms"),
            "training.infer.ms": (ms("training.infer"), "ms"),
            "training.optimizer_step.ms": (ms("training.optimizer_step"), "ms"),
            "checkpoint.save_arrays.ms": (ms("checkpoint.save_arrays"), "ms"),
            "checkpoint.save_arrays.mb": (saved / saves / 2 ** 20 if saves else 0.0, "MiB"),
            "data.load_pair.ms": (ms("data.load_pair"), "ms"),
            "imageio.write_pfm.ms": (ms("imageio.write_pfm"), "ms"),
        })
        coverage = [top[op] / (op_times[op][1] - op_times[op][0]) for op in ops]
        unequal = sorted(key for key in EXACT_COUNTS
                         if len({self.counts.get((op, key), 0.0) for op in ops}) > 1)
        check = {
            "coverage_min": min(coverage),
            "coverage_max": max(coverage),
            "counts_unequal_across_ops": unequal,
        }
        check["ok"] = 0.9 <= check["coverage_min"] and check["coverage_max"] <= 1.0 and not unequal
        m["trace.coverage_min"] = (check["coverage_min"], "ratio")
        return m, check

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": [[op, key, v] for (op, key), v in self.counts.items()]}

