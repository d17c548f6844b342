"""Dataset records: stereo pairs, ground truth, and the manifest format.

A manifest is a text file listing one pair per line, paths relative to the
manifest's directory:

    left.ppm right.ppm [gt.pgm]

Blank lines and '#' comments are skipped.  Ground truth is optional and
only used for evaluation; training never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import imageio


@dataclass
class DisparityGT:
    """Reference disparity for the left view plus its validity mask."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape != self.valid.shape:
            raise ValueError(
                f"DisparityGT: values {self.values.shape} / valid {self.valid.shape} must be equal 2D shapes"
            )
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("DisparityGT: disparities must be finite and non-negative")


@dataclass
class StereoPair:
    """A rectified pair as float32 (H, W, 3) images in [0, 1]."""

    left: np.ndarray
    right: np.ndarray
    gt: DisparityGT | None = None

    def __post_init__(self):
        for name, img in (("left", self.left), ("right", self.right)):
            if img.ndim != 3 or img.shape[2] != 3:
                raise ValueError(f"StereoPair.{name}: expected (H, W, 3), got shape {img.shape}")
            if not np.all(np.isfinite(img)):
                raise ValueError(f"StereoPair.{name}: non-finite pixels")
            if img.min() < 0.0 or img.max() > 1.0:
                raise ValueError(f"StereoPair.{name}: pixel values outside [0, 1]")
        if self.left.shape != self.right.shape:
            raise ValueError(f"StereoPair: left {self.left.shape} vs right {self.right.shape}")
        if self.gt is not None and self.gt.values.shape != self.left.shape[:2]:
            raise ValueError(
                f"StereoPair: gt shape {self.gt.values.shape} vs image {self.left.shape[:2]}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[:2]


def load_gt(path) -> DisparityGT:
    values, valid = imageio.read_gt_pgm(path)
    return DisparityGT(values=values, valid=valid)


@dataclass
class ManifestRecord:
    left_path: Path
    right_path: Path
    gt_path: Path | None = None


class DatasetManifest:
    """Parsed manifest with eager existence and dimension validation."""

    def __init__(self, records: list[ManifestRecord], path: Path | None = None):
        if not records:
            raise ValueError(f"{path or 'manifest'}: no records")
        self.records = records
        self.path = path

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(str(path))
        root = path.parent
        records = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 paths, got {len(fields)}")
            rec = ManifestRecord(
                left_path=root / fields[0],
                right_path=root / fields[1],
                gt_path=root / fields[2] if len(fields) == 3 else None,
            )
            for p in (rec.left_path, rec.right_path, rec.gt_path):
                if p is not None and not p.is_file():
                    raise FileNotFoundError(str(p))
            lw, lh = imageio.peek_pnm(rec.left_path)[1:3]
            for side, p in (("right", rec.right_path), ("gt", rec.gt_path)):
                w, h = imageio.peek_pnm(p)[1:3] if p is not None else (lw, lh)
                if (w, h) != (lw, lh):
                    raise ValueError(f"{path}:{lineno}: {side} is {w}x{h} but left is {lw}x{lh}")
            records.append(rec)
        return cls(records, path)

    def __len__(self) -> int:
        return len(self.records)

    def load_pair(self, index: int) -> StereoPair:
        rec = self.records[index]
        gt = load_gt(rec.gt_path) if rec.gt_path is not None else None
        return StereoPair(
            left=imageio.read_image(rec.left_path),
            right=imageio.read_image(rec.right_path),
            gt=gt,
        )

    def load_all(self) -> list[StereoPair]:
        return [self.load_pair(i) for i in range(len(self))]
