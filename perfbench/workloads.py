"""The benchmark's three workloads, each a closed loop with one client.

train-toy    ``training.train_from_scratch``, the loop ``sssm train`` runs
infer-wide   ``load_pair`` -> ``training.infer`` -> ``write_pfm`` for both
             maps, the loop ``sssm infer`` runs
adapt-shift  ``training.online_adapt`` from fresh seeded weights, writing
             every prediction as PFM, as ``sssm adapt`` does

README.md says why each one exists.  Inputs come from ``synth.write_dataset``
with the workload seed; the program sees only the manifest, the frames and
the config.  Weights start from the ``--toy`` preset's own seed, as the CLI
does, so the workload seed changes the data and nothing else.  Layer
functions are always called through their module attribute
(``training.infer``, not a bound name) so that the traced run's wrappers
see them.
"""

from __future__ import annotations

import csv
import itertools
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sssm import imageio, training
from sssm.autodiff import Tensor, no_grad
from sssm.config import RunConfig
from sssm.data import DatasetManifest
from sssm.losses import reconstruction_error, total_loss
from sssm.network import init_weights
from sssm.synth import write_dataset

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Size:
    height: int
    width: int
    field: str
    disparity_range: int = 16
    count: int = 8


SIZES = {
    "train-toy": Size(64, 128, "constant:3..8"),
    # D = 48 is 0.3 W, the paper's 160/512 ratio; the field spans 6..43 px.
    "infer-wide": Size(96, 160, "planar:6,0.2,0.05,44", disparity_range=48),
    # 66 x 130 is not a multiple of 4: infer pads, the adapter centre-crops.
    "adapt-shift": Size(66, 130, "split:3,9"),
}
SMOKE_SIZES = {
    "train-toy": Size(32, 64, "constant:3..8"),
    "infer-wide": Size(32, 64, "planar:2,0.2,0.05,18", disparity_range=20),
    "adapt-shift": Size(34, 66, "split:3,9"),
}


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    size: Size
    min_ops: int            # a run makes at least this many ops
    checkpoint_every: int
    tracer: object = None   # spans.Tracer in the traced run

    def set_op(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op = op


@dataclass
class Result:
    setup_s: list[float]                    # one duration per set-up repetition
    ops: dict[int, tuple[float, float]]     # successful op -> (start, end)
    failed: list[int]
    window: tuple[float, float]             # first op start, last op end
    minflt: int                             # minor page faults in the window
    train_loss: float
    warp_error: float
    checks: dict[str, bool]


class _TimeUp(Exception):
    """Raised at the first train step past the deadline to leave the loop."""


def _setup(ctx: Context, build) -> tuple[list[float], list]:
    """Run ``build(dir)`` SETUP_REPEATS times; return durations and results."""
    times, built = [], []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built.append(build(ctx.workdir / f"setup{rep}"))
        times.append(time.perf_counter() - t0)
    return times, built


def _dataset(ctx: Context, out: Path) -> DatasetManifest:
    s = ctx.size
    return DatasetManifest.load(write_dataset(out, s.count, ctx.seed, s.height, s.width, s.field))


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _report_failure(op: int) -> None:
    print(f"perfbench: op {op} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _timed_loop(ctx: Context, op) -> tuple[dict, list, tuple, int]:
    """Call ``op(i)`` back to back for ``seconds``, and at least ``min_ops`` times.

    An op that raises counts as failed, and the loop goes on.
    """
    ops, failed = {}, []
    faults = _minflt()
    start = time.perf_counter()
    end = start
    for i in itertools.count():
        if i >= ctx.min_ops and end - start >= ctx.seconds:
            break
        ctx.set_op(i)
        t0 = time.perf_counter()
        try:
            op(i)
        except Exception:
            failed.append(i)
            _report_failure(i)
        end = time.perf_counter()
        if i not in failed:
            ops[i] = (t0, end)
    ctx.set_op(None)
    return ops, failed, (start, end), _minflt() - faults


def _disparities_ok(d: np.ndarray, shape, d_max: int) -> bool:
    """Finite, of the frame's shape, and in [0, D] up to float32 rounding."""
    return (d.shape == tuple(shape) and bool(np.all(np.isfinite(d)))
            and d.min() >= 0.0 and d.max() <= d_max * (1 + 1e-5))


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _first(ops: dict, n: int) -> list[int]:
    return sorted(ops)[:n]


def train_toy(ctx: Context) -> Result:
    cfg = RunConfig.toy()
    size = ctx.size
    train = replace(cfg.train, crop_height=size.height, crop_width=size.width,
                    max_iterations=10 ** 9, checkpoint_every=ctx.checkpoint_every)
    margin = training.default_margin(cfg.net)

    def build(out):
        pairs = _dataset(ctx, out).load_all()
        weights = init_weights(cfg.net, seed=train.seed)
        # warm-up: iteration 0; the timed run resumes from iteration 1
        opt, _ = training.train_from_scratch(pairs, weights, replace(train, max_iterations=1),
                                             cfg.loss, margin=margin)
        return out, pairs, weights, opt

    setup_s, built = _setup(ctx, build)
    out, pairs, weights, opt = built[-1]

    marks: list[tuple[float, int]] = []   # (entry time, iteration) of each timed step
    step = training.train_step

    def boundary(weights, left, right, cfg_, lw, opt_, margin_):
        now = time.perf_counter()
        if len(marks) >= ctx.min_ops and now - marks[0][0] >= ctx.seconds:
            raise _TimeUp(now)
        ctx.set_op(len(marks))
        marks.append((now, opt_.iteration))
        return step(weights, left, right, cfg_, lw, opt_, margin_)

    failed = []
    faults = _minflt()
    training.train_step = boundary
    try:
        for segment in itertools.count():
            try:
                training.train_from_scratch(pairs, weights, train, cfg.loss, opt=opt, margin=margin,
                                            log_path=out / f"loss_log.{segment}.csv",
                                            checkpoint_path=out / "weights.sssmw")
            except _TimeUp as stop:
                stopped = stop.args[0]
                break
            except Exception:
                if not marks:
                    raise
                failed.append(len(marks) - 1)
                _report_failure(failed[-1])
                opt.iteration = max(opt.iteration, marks[-1][1] + 1)
    finally:
        training.train_step = step
        ctx.set_op(None)
    faults = _minflt() - faults
    ends = [t for t, _ in marks[1:]] + [stopped]
    ops = {k: (marks[k][0], ends[k]) for k in range(len(marks)) if k not in failed}

    rows = []
    for path in sorted(out.glob("loss_log.*.csv")):
        with open(path, newline="") as f:
            rows += [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    rows.sort(key=lambda r: r["iteration"])
    counted = rows[:ctx.min_ops]
    again = [training.infer(weights, pairs[0]) for _ in range(2)]
    checks = {
        "losses_finite": len(rows) >= len(ops) and all(math.isfinite(v) for r in rows for v in r.values()),
        "infer_bitwise_repeatable": _same(*again),
        "disparities_valid": all(_disparities_ok(d, pairs[0].shape, cfg.net.disparity_range)
                                 for d in again[0]),
        "checkpoints_written": (out / "weights.sssmw").is_file() or len(ops) < ctx.checkpoint_every,
    }
    return Result(
        setup_s=setup_s, ops=ops, failed=failed, window=(marks[0][0], stopped), minflt=faults,
        train_loss=float(np.mean([r["total"] for r in counted])),
        warp_error=float(np.mean([r["warp_error"] for r in counted])),
        checks=checks,
    )


def infer_wide(ctx: Context) -> Result:
    cfg = RunConfig.toy()
    net = replace(cfg.net, disparity_range=ctx.size.disparity_range)
    margin = training.default_margin(net)

    def build(out):
        manifest = _dataset(ctx, out)
        weights = init_weights(net, seed=cfg.train.seed)
        return out, manifest, weights, training.infer(weights, manifest.load_pair(0))

    setup_s, built = _setup(ctx, build)
    out, manifest, weights, _ = built[-1]
    pred = out / "pred"
    pred.mkdir()
    preds = {}

    def op(i):
        pair = manifest.load_pair(i % len(manifest))
        d_l, d_r = training.infer(weights, pair)
        imageio.write_pfm(pred / f"{i:04d}_dl.pfm", d_l)
        imageio.write_pfm(pred / f"{i:04d}_dr.pfm", d_r)
        preds[i] = (d_l, d_r)

    ops, failed, window, faults = _timed_loop(ctx, op)

    losses, errors = [], []
    for i in _first(ops, ctx.min_ops):
        pair = manifest.load_pair(i % len(manifest))
        d_l, d_r = preds[i]
        errors.append(reconstruction_error(pair.left, pair.right, d_l, d_r, margin))
        with no_grad():
            _, report = total_loss(Tensor(pair.left), Tensor(pair.right), Tensor(d_l), Tensor(d_r),
                                   cfg.loss, margin)
        losses.append(report.total)
    checks = {
        "losses_finite": all(math.isfinite(v) for v in losses + errors),
        "infer_bitwise_repeatable": all(_same(b[3], built[0][3]) for b in built),
        "disparities_valid": all(_disparities_ok(d, (ctx.size.height, ctx.size.width), net.disparity_range)
                                 for i in ops for d in preds[i]),
        "pfm_round_trip": all(_same(preds[i], [imageio.read_pfm(pred / f"{i:04d}_d{s}.pfm") for s in "lr"])
                              for i in ops),
    }
    return Result(setup_s=setup_s, ops=ops, failed=failed, window=window, minflt=faults,
                  train_loss=float(np.mean(losses)), warp_error=float(np.mean(errors)), checks=checks)


def adapt_shift(ctx: Context) -> Result:
    cfg = RunConfig.toy()
    train = cfg.train
    margin = training.default_margin(cfg.net)
    shape = (ctx.size.height, ctx.size.width)

    def build(out):
        manifest = _dataset(ctx, out)
        weights = init_weights(cfg.net, seed=train.seed)
        seen = []   # manifest index of every frame handed to the adapter

        def frames():
            for i in itertools.count():
                seen.append(i % len(manifest))
                yield manifest.load_pair(seen[-1])

        run = SimpleNamespace(out=out, manifest=manifest, weights=weights, seen=seen, stream=frames(),
                              opt=training.OptimizerState.fresh(weights),
                              reference=training.infer(weights, manifest.load_pair(0)))
        run.adapter = training.online_adapt(weights, run.stream, train, cfg.loss, opt=run.opt, margin=margin)
        run.first = next(run.adapter)   # warm-up: frame 0, outside the timed window
        (out / "pred").mkdir()
        imageio.write_pfm(out / "pred" / "0000_dl.pfm", run.first.d_left)
        imageio.write_pfm(out / "pred" / "0000_dr.pfm", run.first.d_right)
        return run

    setup_s, built = _setup(ctx, build)
    run = built[-1]
    results = {}

    def op(i):
        try:
            result = next(run.adapter)
        except Exception:
            # the generator is finished: carry on with the next frame
            run.adapter = training.online_adapt(run.weights, run.stream, train, cfg.loss, opt=run.opt,
                                                margin=margin)
            raise
        imageio.write_pfm(run.out / "pred" / f"{i + 1:04d}_dl.pfm", result.d_left)
        imageio.write_pfm(run.out / "pred" / f"{i + 1:04d}_dr.pfm", result.d_right)
        results[i] = (result, run.seen[-1])

    ops, failed, window, faults = _timed_loop(ctx, op)

    emitted = [run.first] + [results[i][0] for i in ops]
    counted = _first(ops, ctx.min_ops)
    errors = []
    for i in counted:
        result, index = results[i]
        pair = run.manifest.load_pair(index)
        errors.append(reconstruction_error(pair.left, pair.right, result.d_left, result.d_right, margin))
    checks = {
        "losses_finite": all(math.isfinite(v) for r in emitted
                             for v in (r.report.total, *r.report.terms().values())),
        "infer_bitwise_repeatable": all(_same(b.reference, built[0].reference) for b in built),
        "first_adapt_equals_infer": all(_same((b.first.d_left, b.first.d_right), b.reference) for b in built),
        "disparities_valid": all(_disparities_ok(d, shape, cfg.net.disparity_range)
                                 for r in emitted for d in (r.d_left, r.d_right)),
    }
    return Result(setup_s=setup_s, ops=ops, failed=failed, window=window, minflt=faults,
                  train_loss=float(np.mean([results[i][0].report.total for i in counted])),
                  warp_error=float(np.mean(errors)), checks=checks)


WORKLOADS = {"train-toy": train_toy, "infer-wide": infer_wide, "adapt-shift": adapt_shift}
