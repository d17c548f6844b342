"""Training loops: from-scratch optimisation and online self-adaptation.

One iteration runs the network on one pair's two views, evaluates the
warping losses, backpropagates and applies one RMSProp update.
``online_adapt`` is the one loop over them; ``train_from_scratch`` feeds it crops.

``infer``, ``train_step`` and ``online_adapt`` take frames of any size:
``network.forward`` owns the frame policy, so predictions and losses cover
the frame.

Determinism contract: the RNG for iteration i is seeded with (seed, i), so
a run is a pure function of (seed, initial weights, dataset) and resuming
from a checkpoint at iteration k reproduces the uninterrupted run exactly,
bit for bit, on the same platform with the same thread settings.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff, checkpoint
from .autodiff import Tensor, no_grad
from .data import StereoPair
# reconstruction_error is not called here: perfbench's traced run times it under this name
from .losses import LossReport, LossWeights, reconstruction_error, total_loss
from .network import NetConfig, NetworkWeights, forward

log = logging.getLogger(__name__)

LOG_COLUMNS = ("iteration", "lr", *(f.name for f in fields(LossReport)))
RMSPROP_DECAY = 0.9
RMSPROP_EPS = 1e-8


class NonFiniteLossError(RuntimeError):
    """Loss went NaN/inf; carries the per-term report for diagnosis."""

    def __init__(self, iteration: int, report: LossReport):
        terms = ", ".join(f"{k}={v!r}" for k, v in report.terms().items())
        super().__init__(
            f"non-finite loss at iteration {iteration}: total={report.total!r} ({terms})"
        )
        self.iteration = iteration
        self.report = report


@dataclass
class TrainConfig:
    """Optimisation hyperparameters and schedules.

    The learning rate drops once at ``lr_drop_iteration``; the smoothness
    weight switches from its small from-scratch value to the strong
    converged value at ``smooth_switch_iteration``.  Iterations count from
    zero, so iteration i uses the post-switch values iff i >= switch.
    """

    learning_rate: float = 1e-3
    dropped_learning_rate: float = 1e-4
    lr_drop_iteration: int = 5000
    max_iterations: int = 1000
    crop_height: int = 256
    crop_width: int = 512
    smooth_scratch: float = 0.001
    smooth_converged: float = 0.1
    smooth_switch_iteration: int = 5000
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "dropped_learning_rate", "smooth_scratch", "smooth_converged"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.smooth_scratch > 0.001:
            raise ValueError(
                f"smooth_scratch must be <= 0.001 (got {self.smooth_scratch}); a strong "
                "smoothness prior before the matcher locks on flattens everything"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.crop_height < 1 or self.crop_width < 1:
            raise ValueError("crop dims must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def lr_at(self, iteration: int) -> float:
        return self.learning_rate if iteration < self.lr_drop_iteration else self.dropped_learning_rate

    def smooth_at(self, iteration: int) -> float:
        return self.smooth_scratch if iteration < self.smooth_switch_iteration else self.smooth_converged


@dataclass
class OptimizerState:
    """RMSProp accumulator per parameter (keyed like ``NetworkWeights.params``)
    plus the global iteration count; the decay and epsilon are the constants
    ``RMSPROP_DECAY`` and ``RMSPROP_EPS``."""

    acc: dict[str, np.ndarray]
    iteration: int = 0

    @classmethod
    def fresh(cls, weights: NetworkWeights) -> "OptimizerState":
        return cls(acc={name: np.zeros_like(t.data) for name, t in weights.params.items()})

    def step(self, weights: NetworkWeights, lr: float) -> None:
        """acc <- decay*acc + (1-decay)*g^2;  p <- p - lr * g / sqrt(acc + eps).

        In place, through two scratch arrays per parameter, in the order
        ((1-decay)*g)*g and (lr*g) / sqrt(acc + eps).  The gradient is only
        read: it may alias another node's gradient or an upstream buffer.
        """
        for name, t in weights.params.items():
            g = t.grad
            a = self.acc[name]
            s, root = np.empty_like(a), np.empty_like(a)
            a *= a.dtype.type(RMSPROP_DECAY)
            np.multiply(g, a.dtype.type(1.0 - RMSPROP_DECAY), out=s)
            s *= g
            a += s
            np.add(a, a.dtype.type(RMSPROP_EPS), out=root)
            np.sqrt(root, out=root)
            np.multiply(g, t.data.dtype.type(lr), out=s)
            s /= root
            t.data -= s


def save_checkpoint(path, weights: NetworkWeights, opt: OptimizerState) -> None:
    """Write a run's whole state as one container, replacing ``path`` atomically.

    Records: every parameter by name, then its RMSProp accumulator as
    ``rmsprop/<name>``, then ``__iteration__``, one int64.
    """
    arrays = {n: t.data for n, t in weights.params.items()}
    arrays.update((f"rmsprop/{n}", a) for n, a in opt.acc.items())
    arrays["__iteration__"] = np.array([opt.iteration], dtype=np.int64)
    checkpoint.save_arrays(path, arrays)


def load_checkpoint(path, weights: NetworkWeights) -> OptimizerState:
    """Load a ``save_checkpoint`` file into ``weights``; return its optimizer state.

    Every record is checked before any parameter is assigned.  A missing or
    extra record, a shape or dtype unlike the parameter's, a weight that is
    not finite, an accumulator that is not finite and >= 0 (RMSProp takes
    its square root) or an ``__iteration__`` that is not one non-negative
    integer raises ValueError naming the file and the first bad record.
    """
    arrays = checkpoint.load_arrays(path)
    params = weights.params
    names = [*params, *(f"rmsprop/{n}" for n in params), "__iteration__"]
    known = set(names)
    missing = [n for n in names if n not in arrays]
    unexpected = [n for n in arrays if n not in known]
    if missing or unexpected:
        raise ValueError(
            f"{path}: records do not match the architecture (first missing "
            f"{missing[0] if missing else 'none'} of {len(missing)}, first unexpected "
            f"{unexpected[0] if unexpected else 'none'} of {len(unexpected)})"
        )
    counter = arrays["__iteration__"]
    if counter.dtype != np.int64 or counter.shape != (1,) or counter[0] < 0:
        raise ValueError(f"{path}: __iteration__ {counter.tolist()} ({counter.dtype}) "
                         "is not one non-negative integer")
    for name in names[:-1]:
        value, shape = arrays[name], params[name.removeprefix("rmsprop/")].data.shape
        if value.shape != shape or value.dtype != np.float32:
            raise ValueError(f"{path}: {name} has shape {value.shape} and dtype {value.dtype}, "
                             f"expected {shape} and float32")
        if name.startswith("rmsprop/"):
            if not np.all(np.isfinite(value) & (value >= 0)):
                raise ValueError(f"{path}: {name} holds a value that is not finite and >= 0")
        elif not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: {name} holds non-finite values")
    for name, t in params.items():
        t.data = arrays[name]
    return OptimizerState(acc={n: arrays[f"rmsprop/{n}"] for n in params},
                          iteration=int(counter[0]))


def train_step(weights: NetworkWeights, left: np.ndarray, right: np.ndarray,
               cfg: TrainConfig, lw: LossWeights, opt: OptimizerState,
               margin: int) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """One optimisation step on one frame; returns the report and the
    predictions, which are made before the update.

    Clears every parameter's gradient, then backpropagates through
    ``autodiff.backward``.  Raises NonFiniteLossError if any loss term is
    NaN or infinite, RuntimeError naming every parameter that no gradient
    reached (the loss does not depend on it), and FloatingPointError naming
    the first parameter whose gradient is not finite; all are raised before
    the weights or the RMSProp state are touched.
    """
    i = opt.iteration
    params = weights.params
    for t in params.values():
        t.grad = None
    d_l, d_r = forward(left, right, weights)
    live = replace(lw, w_smooth=cfg.smooth_at(i))
    total, report = total_loss(Tensor(left), Tensor(right), d_l, d_r, live, margin)
    if not all(np.isfinite(v) for v in astuple(report)):
        raise NonFiniteLossError(i, report)
    autodiff.backward(total)
    unreached = [name for name, t in params.items() if t.grad is None]
    if unreached:
        raise RuntimeError(f"no gradient reached {', '.join(unreached)} at iteration {i}")
    for name, t in params.items():
        if not np.isfinite(t.grad).all():
            raise FloatingPointError(f"non-finite gradient for {name} at iteration {i}")
    opt.step(weights, cfg.lr_at(i))
    opt.iteration = i + 1
    return report, d_l.data, d_r.data


def _crops(pairs: list[StereoPair], cfg: TrainConfig, opt: OptimizerState):
    """Seeded crops until cfg.max_iterations, each drawn at opt.iteration as the step before left it."""
    ch, cw = cfg.crop_height, cfg.crop_width
    while opt.iteration < cfg.max_iterations:
        rng = np.random.default_rng((cfg.seed, opt.iteration))
        pair = pairs[int(rng.integers(len(pairs)))]
        h, w = pair.shape
        if ch > h or cw > w:
            raise ValueError(f"crop {ch}x{cw} exceeds image {h}x{w}")
        y0 = int(rng.integers(0, h - ch + 1))
        x0 = int(rng.integers(0, w - cw + 1))
        yield StereoPair(np.ascontiguousarray(pair.left[y0:y0 + ch, x0:x0 + cw]),
                         np.ascontiguousarray(pair.right[y0:y0 + ch, x0:x0 + cw]))


def _log_prefix(path: Path, iteration: int) -> int:
    """Bytes of an existing loss log up to its first row at or past ``iteration``.

    The rows from there on were written after the checkpoint a run resumes
    from, as was a row cut short.  A header other than ``LOG_COLUMNS`` is
    refused, and so is a whole row (or blank line) with no iteration number.
    """
    columns = ",".join(LOG_COLUMNS)
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if header != columns.encode():
            raise ValueError(f"{path}: header {header.decode(errors='replace')!r} is not "
                             f"{columns!r}; refusing to append to it")
        end = fh.tell()
        for lineno, line in enumerate(iter(fh.readline, b""), start=2):
            field = line.split(b",", 1)[0].rstrip(b"\n")
            if line.endswith(b"\n") and not field.isdigit():
                raise ValueError(f"{path}:{lineno}: iteration field {field.decode(errors='replace')!r} "
                                 "is not an integer; refusing to append to it")
            if not line.endswith(b"\n") or int(field) >= iteration:
                break
            end = fh.tell()
    return end


class LossLog:
    """Incremental CSV writer; repr-formatted floats round-trip exactly.

    With ``resume_at`` k > 0 an existing file is continued: its rows below
    iteration k are kept, later ones are dropped, and new rows append.
    Rows live only in the file: ``LossLog(None)`` writes and keeps nothing.
    """

    def __init__(self, path=None, resume_at: int = 0):
        self._fh = None
        if path is not None:
            path = Path(path)
            if resume_at and path.is_file():
                os.truncate(path, _log_prefix(path, resume_at))
                self._fh = open(path, "a")
                return
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "w")
            self._fh.write(",".join(LOG_COLUMNS) + "\n")
            self._fh.flush()

    def record(self, iteration: int, lr: float, report: LossReport) -> None:
        """Write one train or adapt step as a row of ``LOG_COLUMNS``: every
        ``report`` field, ending with ``warp_error`` (reported, not summed)."""
        if self._fh is not None:
            floats = (repr(float(v)) for v in (lr, *astuple(report)))
            self._fh.write(",".join((str(iteration), *floats)) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def default_margin(config: NetConfig) -> int:
    """Border columns excluded from loss means: the disparity search range.

    Within that distance of the occlusion-side border, most candidate
    shifts sample outside the other view, so the photometric terms are
    uninformative there.
    """
    return config.disparity_range


def check_crop(net: NetConfig, cfg: TrainConfig, margin: int) -> None:
    """Refuse a training crop that the network or the loss margin cannot take.

    The crop must cover the losses' 3x3 window, be wider than the disparity
    range and leave columns inside the border margin.  Its size need not
    divide into the network's scales: ``network.forward`` owns the frame policy.
    """
    ch, cw = cfg.crop_height, cfg.crop_width
    if min(ch, cw) < 3:
        raise ValueError(f"crop {ch}x{cw} is smaller than the losses' 3x3 window")
    if net.disparity_range >= cw:
        raise ValueError(f"disparity_range {net.disparity_range} must be < crop width {cw}")
    if not 0 <= margin < cw:
        raise ValueError(f"border_margin {margin} must be in [0, {cw}) for crop width {cw}")


def train_from_scratch(pairs: list[StereoPair], weights: NetworkWeights, cfg: TrainConfig,
                       lw: LossWeights | None = None, opt: OptimizerState | None = None,
                       margin: int | None = None, log_path=None,
                       checkpoint_path=None) -> tuple[OptimizerState, LossLog]:
    """Optimise from the current weights until cfg.max_iterations.

    Starts at opt.iteration (pass a loaded optimizer to resume, which keeps
    the loss log's rows below it); ``online_adapt`` runs the steps on seeded
    crops and writes the log and the checkpoints when paths are given.
    """
    if not pairs:
        raise ValueError("train_from_scratch: empty dataset")
    margin = default_margin(weights.config) if margin is None else margin
    check_crop(weights.config, cfg, margin)
    opt = opt or OptimizerState.fresh(weights)
    logger = LossLog(log_path, resume_at=opt.iteration)
    try:
        for result in online_adapt(weights, _crops(pairs, cfg, opt), cfg, lw, opt, margin,
                                   logger, checkpoint_path):
            del result  # as in online_adapt: no step's maps are alive in the next one
    finally:
        logger.close()
    return opt, logger


def infer(weights: NetworkWeights, pair: StereoPair) -> tuple[np.ndarray, np.ndarray]:
    """Predict both disparity maps at any input size, without recording."""
    with no_grad():
        d_l, d_r = forward(pair.left, pair.right, weights)
    return d_l.data, d_r.data


@dataclass
class AdaptResult:
    """Output of one online-adaptation step: predict first, then update.
    ``report.warp_error`` (reported, not summed) scores the emitted maps."""

    index: int
    d_left: np.ndarray
    d_right: np.ndarray
    report: LossReport


def online_adapt(weights: NetworkWeights, pairs, cfg: TrainConfig,
                 lw: LossWeights | None = None, opt: OptimizerState | None = None,
                 margin: int | None = None, loss_log: LossLog | None = None,
                 checkpoint_path=None):
    """Self-improving inference: emit predictions, then learn from the pair.

    Yields an AdaptResult per input pair from one ``train_step``: the maps
    emitted are the ones its loss is taken on, made before the update, so
    the first result matches plain ``infer`` with the incoming weights and
    with learning rate 0 the whole stream is inference exactly.  The
    warping error, ``report.warp_error``, scores the emitted predictions.

    Each step logs (iteration, ``cfg.lr_at(iteration)``, report) to ``loss_log``;
    the state goes to ``checkpoint_path`` every ``cfg.checkpoint_every``
    iterations and after the last step.  A step that raises saves nothing.
    """
    lw = lw or LossWeights()
    opt = opt or OptimizerState.fresh(weights)
    margin = default_margin(weights.config) if margin is None else margin
    saved = opt.iteration
    for index, pair in enumerate(pairs):
        i = opt.iteration
        report, d_l, d_r = train_step(weights, pair.left, pair.right, cfg, lw, opt, margin)
        if loss_log is not None:
            loss_log.record(i, cfg.lr_at(i), report)
        if i % 100 == 0:
            log.info("iter %d total %.5f warp %.5f", i, report.total, report.warp_error)
        if (checkpoint_path is not None and cfg.checkpoint_every
                and opt.iteration % cfg.checkpoint_every == 0):
            save_checkpoint(checkpoint_path, weights, opt)
            saved = opt.iteration
        yield AdaptResult(index=index, d_left=d_l, d_right=d_r, report=report)
        del d_l, d_r  # maps the caller does not keep are freed before the next step
    if checkpoint_path is not None and opt.iteration != saved:
        save_checkpoint(checkpoint_path, weights, opt)
