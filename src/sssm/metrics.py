"""Disparity accuracy metrics and the evaluation report.

D1 and end-point error compare against ground truth over its valid pixels;
the warping error needs no ground truth at all and doubles as the
self-supervised progress signal during training.
"""

from __future__ import annotations

from dataclasses import fields, make_dataclass

import numpy as np

from .data import DisparityGT
from .losses import reconstruction_error

D1_THRESHOLDS = ((0.5, False), (1.0, False), (3.0, True))
# EvalReport's field for each threshold's rate: d1_05, d1_10, d1_30
D1_FIELDS = tuple("d1_" + f"{threshold:.1f}".replace(".", "") for threshold, _ in D1_THRESHOLDS)


def _valid_errors(predicted: np.ndarray, gt: DisparityGT) -> tuple[np.ndarray, np.ndarray]:
    if predicted.shape != gt.values.shape:
        raise ValueError(f"prediction shape {predicted.shape} != gt shape {gt.values.shape}")
    if not np.any(gt.valid):
        raise ValueError("no valid ground-truth pixels")
    err = np.abs(predicted.astype(np.float64) - gt.values.astype(np.float64))
    return err, gt.valid


def _bad_pixels(err: np.ndarray, gt: DisparityGT, threshold: float, relative: bool) -> np.ndarray:
    """Pixels off by more than ``threshold`` px (and, if ``relative``, by more than 5%)."""
    bad = err > threshold
    if relative:
        bad &= err > 0.05 * gt.values
    return bad


def d1_error(predicted: np.ndarray, gt: DisparityGT, threshold: float, relative: bool = False) -> float:
    """Percentage of valid pixels whose error exceeds ``threshold`` px.

    With ``relative`` the pixel must also be off by more than 5% of the
    true disparity, the usual convention for loose thresholds.
    """
    if threshold <= 0:
        raise ValueError("d1_error: threshold must be positive")
    err, valid = _valid_errors(predicted, gt)
    return float(100.0 * _bad_pixels(err, gt, threshold, relative)[valid].mean())


def epe(predicted: np.ndarray, gt: DisparityGT) -> float:
    """Mean absolute disparity error over valid pixels."""
    err, valid = _valid_errors(predicted, gt)
    return float(err[valid].mean())


class _EvalReportBase:
    """Aggregate metrics over an evaluation set (pixel-weighted).

    Fields, in CSV order: pairs, valid_pixels, epe, one D1 percentage per
    ``D1_THRESHOLDS`` entry (named by ``D1_FIELDS``) and warp_error.
    """

    def to_csv_row(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))

    def to_text(self) -> str:
        lines = [
            f"pairs evaluated: {self.pairs}",
            f"valid GT pixels: {self.valid_pixels}",
            f"EPE: {self.epe:.4f} px",
            *(f"D1({threshold}px): {getattr(self, name):.2f}%"
              for (threshold, _), name in zip(D1_THRESHOLDS, D1_FIELDS)),
            f"warping error: {self.warp_error:.6f}",
        ]
        return "\n".join(lines)


EvalReport = make_dataclass(
    "EvalReport",
    [("pairs", int), ("valid_pixels", int), ("epe", float), *((name, float) for name in D1_FIELDS),
     ("warp_error", float)],
    bases=(_EvalReportBase,),
    namespace={"__module__": __name__, "__doc__": _EvalReportBase.__doc__},
)
_D1_COLUMNS = {name: f"d1_{threshold}" for (threshold, _), name in zip(D1_THRESHOLDS, D1_FIELDS)}
EvalReport.CSV_HEADER = ",".join(_D1_COLUMNS.get(f.name, f.name) for f in fields(EvalReport))


def evaluate(entries, margin: int = 0) -> EvalReport:
    """Aggregate over (pair, d_left, d_right) triples; gt must be present.

    D1/EPE pool all valid pixels across pairs; the warping error averages
    per-pair values.
    """
    total_valid = 0
    err_sum = 0.0
    bad_counts = [0] * len(D1_THRESHOLDS)
    warp_sum = 0.0
    n = 0
    for pair, d_left, d_right in entries:
        if pair.gt is None:
            raise ValueError("evaluate: pair has no ground truth")
        err, valid = _valid_errors(d_left, pair.gt)
        total_valid += int(valid.sum())
        err_sum += float(err[valid].sum())
        for j, (thr, rel) in enumerate(D1_THRESHOLDS):
            bad_counts[j] += int(_bad_pixels(err, pair.gt, thr, rel)[valid].sum())
        warp_sum += reconstruction_error(pair.left, pair.right, d_left, d_right, margin)
        n += 1
    if n == 0:
        raise ValueError("evaluate: empty evaluation set")
    return EvalReport(
        pairs=n,
        valid_pixels=total_valid,
        epe=err_sum / total_valid,
        **{name: 100.0 * bad / total_valid for name, bad in zip(D1_FIELDS, bad_counts)},
        warp_error=warp_sum / n,
    )
