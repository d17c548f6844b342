"""Training loops: from-scratch optimisation and online self-adaptation.

One iteration is: sample a pair and a crop, run the network on both views,
evaluate the warping losses, backpropagate, apply one RMSProp update.
Batch size is one pair by design.

``infer``, ``train_step`` and ``online_adapt`` share one frame policy: a
frame of any size is edge-padded up to the network's scale factor and both
disparity maps are cropped back, so predictions and losses cover the frame.

Determinism contract: the RNG for iteration i is seeded with (seed, i), so
a run is a pure function of (seed, initial weights, dataset) and resuming
from a checkpoint at iteration k reproduces the uninterrupted run exactly,
bit for bit, on the same platform with the same thread settings.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .autodiff import Tensor, crop, no_grad
from .data import StereoPair
from .losses import LossReport, LossWeights, reconstruction_error, total_loss
from .network import NetConfig, NetworkWeights, forward

log = logging.getLogger(__name__)

LOG_COLUMNS = ("iteration", "lr", *(f.name for f in fields(LossReport)), "warp_error")


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
        if self.learning_rate < 0 or self.dropped_learning_rate < 0:
            raise ValueError("learning rates must be >= 0")
        if self.smooth_scratch > 0.001:
            raise ValueError(
                f"smooth_scratch must be <= 0.001 (got {self.smooth_scratch}); a strong "
                "smoothness prior before the matcher locks on flattens everything"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.crop_height < 1 or self.crop_width < 1:
            raise ValueError("crop dims must be >= 1")

    def lr_at(self, iteration: int) -> float:
        return self.learning_rate if iteration < self.lr_drop_iteration else self.dropped_learning_rate

    def smooth_at(self, iteration: int) -> float:
        return self.smooth_scratch if iteration < self.smooth_switch_iteration else self.smooth_converged


@dataclass
class OptimizerState:
    """RMSProp accumulator per parameter plus the global iteration count."""

    acc: dict[str, np.ndarray]
    iteration: int = 0
    decay: float = 0.9
    eps: float = 1e-8

    @classmethod
    def fresh(cls, weights: NetworkWeights) -> "OptimizerState":
        return cls(acc={name: np.zeros_like(t.data) for name, t in weights.named().items()})

    def step(self, weights: NetworkWeights, lr: float) -> None:
        """acc <- decay*acc + (1-decay)*g^2;  p <- p - lr * g / sqrt(acc + eps)."""
        for name, t in weights.named().items():
            g = t.grad
            a = self.acc[name]
            a *= a.dtype.type(self.decay)
            a += a.dtype.type(1.0 - self.decay) * g * g
            t.data -= t.data.dtype.type(lr) * g / np.sqrt(a + a.dtype.type(self.eps))


def save_weights(path, weights: NetworkWeights) -> None:
    checkpoint.save_arrays(path, {n: t.data for n, t in weights.named().items()})


def load_weights(path, weights: NetworkWeights) -> None:
    """Load a checkpoint into an existing parameter set, strictly by name."""
    arrays = checkpoint.load_arrays(path)
    params = weights.named()
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise ValueError(
            f"{path}: parameter names do not match the architecture "
            f"(missing {missing or 'none'}, unexpected {unexpected or 'none'})"
        )
    for name, t in params.items():
        if arrays[name].shape != t.data.shape:
            raise ValueError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {t.data.shape}"
            )
        t.data = arrays[name].astype(t.data.dtype)


def save_optimizer(path, opt: OptimizerState) -> None:
    """Write the RMSProp accumulators and the iteration counter.

    The counter is stored as float32, which holds every integer only up to
    2^24; a larger one is refused before anything is written.
    """
    if opt.iteration > 2 ** 24:
        raise ValueError(f"save_optimizer: iteration {opt.iteration} exceeds 2^24, "
                         "the largest counter the float32 container stores exactly")
    arrays = dict(opt.acc)
    arrays["__iteration__"] = np.array([opt.iteration], dtype=np.float32)
    checkpoint.save_arrays(path, arrays)


def load_optimizer(path, weights: NetworkWeights) -> OptimizerState:
    """Load the state ``save_optimizer`` wrote, checked against ``weights``.

    Raises ValueError naming the file and the first offending record: a
    missing iteration counter, or an accumulator that is missing, extra or
    shaped unlike its parameter.
    """
    arrays = checkpoint.load_arrays(path)
    if "__iteration__" not in arrays:
        raise ValueError(f"{path}: optimizer state has no __iteration__ record")
    iteration = int(arrays.pop("__iteration__")[0])
    params = weights.named()
    for name, t in params.items():
        if name not in arrays:
            raise ValueError(f"{path}: optimizer state has no accumulator for {name}")
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"{path}: optimizer state for {name} has shape "
                             f"{arrays[name].shape}, expected {t.data.shape}")
    extra = [name for name in arrays if name not in params]
    if extra:
        raise ValueError(f"{path}: optimizer state has an accumulator for {extra[0]}, "
                         "which is not a parameter")
    return OptimizerState(acc=arrays, iteration=iteration)


def _forward_frame(weights: NetworkWeights, left, right) -> tuple[Tensor, Tensor]:
    """Both disparity maps of a frame by the frame policy; divisible frames go straight through."""
    h, w = left.shape[:2]
    sf = weights.config.scale_factor
    if not (h % sf or w % sf):
        return forward(left, right, weights)
    pads = ((0, -h % sf), (0, -w % sf), (0, 0))
    d_l, d_r = forward(np.pad(left, pads, mode="edge"), np.pad(right, pads, mode="edge"), weights)
    return crop(d_l, ((0, h), (0, w))), crop(d_r, ((0, h), (0, w)))


def train_step(weights: NetworkWeights, left: np.ndarray, right: np.ndarray,
               cfg: TrainConfig, lw: LossWeights, opt: OptimizerState,
               margin: int) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """One optimisation step on one frame; returns the report and the
    predictions, which are made before the update.

    Raises NonFiniteLossError if any loss term is NaN or infinite, and
    FloatingPointError naming the first parameter whose gradient is; both
    are raised before the weights or the RMSProp state are touched.
    """
    i = opt.iteration
    weights.tape.zero_grad()
    d_l, d_r = _forward_frame(weights, left, right)
    live = replace(lw, w_smooth=cfg.smooth_at(i))
    total, report = total_loss(Tensor(left), Tensor(right), d_l, d_r, live, margin)
    if not all(np.isfinite(v) for v in astuple(report)):
        raise NonFiniteLossError(i, report)
    weights.tape.backward(total)
    for name, t in weights.named().items():
        if not np.isfinite(t.grad).all():
            raise FloatingPointError(f"non-finite gradient for {name} at iteration {i}")
    opt.step(weights, cfg.lr_at(i))
    opt.iteration = i + 1
    return report, d_l.data, d_r.data


def _crop_pair(pair: StereoPair, rng: np.random.Generator, ch: int, cw: int):
    h, w = pair.shape
    if ch > h or cw > w:
        raise ValueError(f"crop {ch}x{cw} exceeds image {h}x{w}")
    y0 = int(rng.integers(0, h - ch + 1))
    x0 = int(rng.integers(0, w - cw + 1))
    return (
        np.ascontiguousarray(pair.left[y0:y0 + ch, x0:x0 + cw]),
        np.ascontiguousarray(pair.right[y0:y0 + ch, x0:x0 + cw]),
    )


def _format_row(row: dict) -> str:
    return ",".join(
        str(row[c]) if c == "iteration" else repr(float(row[c])) for c in LOG_COLUMNS
    )


def _log_prefix(path: Path, iteration: int) -> int:
    """Bytes of an existing loss log up to its first row at or past ``iteration``.

    The rows from there on were written after the checkpoint a run resumes
    from, as was a row cut short.  A header other than ``LOG_COLUMNS`` is
    refused.
    """
    columns = ",".join(LOG_COLUMNS)
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if header != columns.encode():
            raise ValueError(f"{path}: header {header.decode(errors='replace')!r} is not "
                             f"{columns!r}; refusing to append to it")
        end = fh.tell()
        for line in iter(fh.readline, b""):
            if not line.endswith(b"\n") or int(line.split(b",", 1)[0]) >= iteration:
                break
            end = fh.tell()
    return end


class LossLog:
    """Incremental CSV writer; repr-formatted floats round-trip exactly.

    With ``resume_at`` k > 0 an existing file is continued: its rows below
    iteration k are kept, later ones are dropped, and new rows append.
    ``rows`` holds only the rows this writer appended.
    """

    def __init__(self, path=None, resume_at: int = 0):
        self.rows: list[dict] = []
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

    def record(self, iteration: int, lr: float, report: LossReport, warp_error: float) -> None:
        """Log one train or adapt step."""
        self.append({"iteration": iteration, "lr": lr, **asdict(report), "warp_error": warp_error})

    def append(self, row: dict) -> None:
        self.rows.append(row)
        if self._fh is not None:
            self._fh.write(_format_row(row) + "\n")
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


def train_from_scratch(pairs: list[StereoPair], weights: NetworkWeights, cfg: TrainConfig,
                       lw: LossWeights | None = None, opt: OptimizerState | None = None,
                       margin: int | None = None, log_path=None,
                       checkpoint_path=None) -> tuple[OptimizerState, LossLog]:
    """Optimise from the current weights until cfg.max_iterations.

    Starts at opt.iteration (pass a loaded optimizer to resume, which keeps
    the loss log's earlier rows); writes the loss log incrementally and
    checkpoints every cfg.checkpoint_every iterations plus at the end when
    paths are given.
    """
    if not pairs:
        raise ValueError("train_from_scratch: empty dataset")
    cw = cfg.crop_width
    sf = weights.config.scale_factor
    if cfg.crop_height % sf or cw % sf:
        raise ValueError(f"crop {cfg.crop_height}x{cw} must be divisible by {sf}")
    if weights.config.disparity_range >= cw:
        raise ValueError(f"disparity_range {weights.config.disparity_range} must be < crop width {cw}")
    lw = lw or LossWeights()
    opt = opt or OptimizerState.fresh(weights)
    margin = default_margin(weights.config) if margin is None else margin
    logger = LossLog(log_path, resume_at=opt.iteration)
    try:
        while opt.iteration < cfg.max_iterations:
            i = opt.iteration
            rng = np.random.default_rng((cfg.seed, i))
            pair = pairs[int(rng.integers(len(pairs)))]
            left, right = _crop_pair(pair, rng, cfg.crop_height, cw)
            report, d_l, d_r = train_step(weights, left, right, cfg, lw, opt, margin)
            warp_err = reconstruction_error(left, right, d_l, d_r, margin)
            logger.record(i, cfg.lr_at(i), report, warp_err)
            if i % 100 == 0:
                log.info("iter %d total %.5f warp %.5f", i, report.total, warp_err)
            done = opt.iteration
            if checkpoint_path is not None and (
                done == cfg.max_iterations
                or (cfg.checkpoint_every and done % cfg.checkpoint_every == 0)
            ):
                save_weights(checkpoint_path, weights)
                save_optimizer(str(checkpoint_path) + ".opt", opt)
    finally:
        logger.close()
    return opt, logger


def infer(weights: NetworkWeights, pair: StereoPair) -> tuple[np.ndarray, np.ndarray]:
    """Predict both disparity maps at any input size, without recording."""
    with no_grad():
        d_l, d_r = _forward_frame(weights, pair.left, pair.right)
    return d_l.data, d_r.data


@dataclass
class AdaptResult:
    """Output of one online-adaptation step: predict first, then update."""

    index: int
    d_left: np.ndarray
    d_right: np.ndarray
    report: LossReport
    warp_error: float


def online_adapt(weights: NetworkWeights, pairs, cfg: TrainConfig,
                 lw: LossWeights | None = None, opt: OptimizerState | None = None,
                 margin: int | None = None):
    """Self-improving inference: emit predictions, then learn from the pair.

    Yields an AdaptResult per input pair from one ``train_step``: the maps
    emitted are the ones its loss is taken on, made before the update, so
    the first result matches plain ``infer`` with the incoming weights and
    with learning rate 0 the whole stream is inference exactly.  The
    warping error scores the emitted predictions.
    """
    lw = lw or LossWeights()
    opt = opt or OptimizerState.fresh(weights)
    margin = default_margin(weights.config) if margin is None else margin
    for index, pair in enumerate(pairs):
        report, d_l, d_r = train_step(weights, pair.left, pair.right, cfg, lw, opt, margin)
        warp_err = reconstruction_error(pair.left, pair.right, d_l, d_r, margin)
        yield AdaptResult(index=index, d_left=d_l, d_right=d_r, report=report, warp_error=warp_err)
