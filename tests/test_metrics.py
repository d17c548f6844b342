"""Disparity accuracy metrics: counting oracles and aggregation."""

import pickle

import numpy as np
import pytest

from sssm import synth
from sssm.data import DisparityGT, StereoPair
from sssm.losses import reconstruction_error
from sssm.metrics import EvalReport, d1_error, epe, evaluate


def _gt(values, valid=None):
    values = np.asarray(values, dtype=np.float32)
    if valid is None:
        valid = np.ones(values.shape, dtype=bool)
    return DisparityGT(values=values, valid=np.asarray(valid, dtype=bool))


class TestD1:
    def test_perfect_prediction_is_zero_percent(self):
        gt = _gt(np.full((4, 6), 3.0))
        assert d1_error(gt.values.copy(), gt, threshold=1.0) == 0.0

    def test_everything_wrong_is_hundred_percent(self):
        gt = _gt(np.full((4, 6), 3.0))
        assert d1_error(np.full((4, 6), 9.0, np.float32), gt, threshold=1.0) == 100.0

    def test_half_wrong_counts_exactly(self):
        gt = _gt(np.zeros((2, 4)))
        pred = np.zeros((2, 4), dtype=np.float32)
        pred[:, :2] = 5.0
        assert d1_error(pred, gt, threshold=1.0) == 50.0

    def test_threshold_is_strict_inequality(self):
        gt = _gt(np.zeros((1, 4)))
        pred = np.array([[1.0, 1.0 + 1e-5, 0.5, 2.0]], dtype=np.float64)
        # Errors of exactly the threshold do not count as outliers.
        assert d1_error(pred, gt, threshold=1.0) == 50.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        gt = _gt(rng.uniform(0, 10, (8, 8)))
        pred = gt.values + rng.normal(0, 1.5, (8, 8))
        rates = [d1_error(pred, gt, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_constant_offset_invariance(self):
        # Shifting both prediction and GT by the same constant leaves the
        # absolute-threshold rate unchanged.
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 5, (6, 6))
        noise = rng.normal(0, 1, (6, 6))
        r1 = d1_error(base + noise, _gt(base), 1.0)
        r2 = d1_error(base + 10 + noise, _gt(base + 10), 1.0)
        assert r1 == r2

    def test_relative_flag_excuses_large_disparities(self):
        gt = _gt([[100.0, 1.0]])
        pred = np.array([[104.0, 5.0]])
        # Both are 4 px off; only the small-disparity pixel exceeds 5%.
        assert d1_error(pred, gt, 3.0, relative=False) == 100.0
        assert d1_error(pred, gt, 3.0, relative=True) == 50.0

    def test_invalid_pixels_ignored(self):
        valid = np.array([[True, False], [True, False]])
        gt = _gt(np.zeros((2, 2)), valid)
        pred = np.array([[0.0, 99.0], [0.0, 99.0]], dtype=np.float32)
        assert d1_error(pred, gt, 1.0) == 0.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            d1_error(np.zeros((2, 2)), _gt(np.zeros((2, 2))), 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            d1_error(np.zeros((2, 3)), _gt(np.zeros((2, 2))), 1.0)

    def test_rejects_all_invalid_gt(self):
        gt = _gt(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="valid"):
            d1_error(np.zeros((2, 2)), gt, 1.0)


class TestEpe:
    def test_perfect_is_zero(self):
        gt = _gt(np.full((3, 3), 2.0))
        assert epe(gt.values.copy(), gt) == 0.0

    def test_constant_offset_is_that_offset(self):
        gt = _gt(np.full((3, 3), 2.0))
        assert epe(gt.values + 0.7, gt) == pytest.approx(0.7, abs=1e-7)

    def test_matches_brute_mean(self):
        rng = np.random.default_rng(2)
        gt = _gt(rng.uniform(0, 8, (5, 7)), rng.random((5, 7)) > 0.4)
        pred = gt.values.astype(np.float64) + rng.normal(0, 2, (5, 7))
        expected = np.abs(pred - gt.values)[gt.valid].mean()
        assert epe(pred, gt) == pytest.approx(expected, rel=1e-12)


class TestWarpingError:
    def test_zero_for_identical_views_at_zero_disparity(self):
        img = synth.band_limited_texture(np.random.default_rng(0), 10, 14)
        pair = StereoPair(left=img, right=img.copy())
        zeros = np.zeros((10, 14), dtype=np.float32)
        assert reconstruction_error(pair.left, pair.right, zeros, zeros) == pytest.approx(0.0, abs=1e-7)

    def test_small_at_true_disparity_on_synthetic_pair(self):
        pair = synth.synth_pair(3, 16, 40, synth.constant_field(4.0))
        d = np.full((16, 40), 4.0, dtype=np.float32)
        assert reconstruction_error(pair.left, pair.right, d, d, margin=4) < 1e-3

    def test_wrong_disparity_scores_worse(self):
        pair = synth.synth_pair(3, 16, 40, synth.constant_field(4.0))
        good = np.full((16, 40), 4.0, dtype=np.float32)
        bad = np.full((16, 40), 9.0, dtype=np.float32)
        assert (reconstruction_error(pair.left, pair.right, bad, bad, margin=9)
                > 10 * reconstruction_error(pair.left, pair.right, good, good, margin=9))

    def test_needs_no_ground_truth(self):
        img = synth.band_limited_texture(np.random.default_rng(1), 8, 12)
        pair = StereoPair(left=img, right=img.copy())
        zeros = np.zeros((8, 12), dtype=np.float32)
        reconstruction_error(pair.left, pair.right, zeros, zeros)  # must not raise


class TestEvaluate:
    def _entries(self, n=3, seed=0):
        entries = []
        for i in range(n):
            pair = synth.synth_pair((seed, i), 12, 24, synth.constant_field(2.0 + i))
            d = np.full((12, 24), 2.0 + i, dtype=np.float32)
            entries.append((pair, d, d))
        return entries

    def test_perfect_predictions(self):
        report = evaluate(self._entries(), margin=5)
        assert report.pairs == 3
        assert report.epe == pytest.approx(0.0, abs=1e-7)
        assert report.d1_05 == 0.0
        assert report.d1_10 == 0.0
        assert report.d1_30 == 0.0
        assert report.warp_error < 1e-3

    def test_pixel_weighted_pooling(self):
        # One pair predicted perfectly, one entirely wrong: pooled D1 is the
        # valid-pixel-weighted mix, not the per-pair average.
        p0 = synth.synth_pair(0, 10, 20, synth.constant_field(2.0))
        p1 = synth.synth_pair(1, 10, 20, synth.constant_field(4.0))
        good = np.full((10, 20), 2.0, dtype=np.float32)
        bad = np.full((10, 20), 14.0, dtype=np.float32)
        report = evaluate([(p0, good, good), (p1, bad, bad)], margin=4)
        v0 = int(p0.gt.valid.sum())
        v1 = int(p1.gt.valid.sum())
        assert report.valid_pixels == v0 + v1
        assert report.d1_10 == pytest.approx(100.0 * v1 / (v0 + v1))
        assert report.epe == pytest.approx(10.0 * v1 / (v0 + v1))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([])

    def test_missing_gt_rejected(self):
        img = synth.band_limited_texture(np.random.default_rng(0), 6, 8)
        pair = StereoPair(left=img, right=img.copy())
        zeros = np.zeros((6, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="ground truth"):
            evaluate([(pair, zeros, zeros)])

    def test_report_text_format(self):
        report = evaluate(self._entries(n=1), margin=5)
        text = report.to_text()
        assert "EPE: 0.0000 px" in text
        assert "D1(0.5px): 0.00%" in text
        assert "D1(1.0px): 0.00%" in text
        assert "D1(3.0px): 0.00%" in text
        assert "pairs evaluated: 1" in text

    def test_report_csv_round_trip(self):
        report = evaluate(self._entries(n=2), margin=5)
        row = report.to_csv_row()
        fields = row.split(",")
        assert len(fields) == len(EvalReport.CSV_HEADER.split(","))
        assert int(fields[0]) == 2
        # repr() serialisation reparses to the exact float.
        assert float(fields[2]) == report.epe
        assert float(fields[6]) == report.warp_error

    def test_csv_header_and_text_are_pinned(self):
        # eval.csv and the printed report keep their exact format
        assert EvalReport.CSV_HEADER == "pairs,valid_pixels,epe,d1_0.5,d1_1.0,d1_3.0,warp_error"
        report = EvalReport(pairs=2, valid_pixels=40, epe=0.25, d1_05=12.5, d1_10=5.0, d1_30=2.5,
                            warp_error=0.0125)
        assert report.to_csv_row() == "2,40,0.25,12.5,5.0,2.5,0.0125"
        assert report.to_text() == ("pairs evaluated: 2\nvalid GT pixels: 40\nEPE: 0.2500 px\n"
                                    "D1(0.5px): 12.50%\nD1(1.0px): 5.00%\nD1(3.0px): 2.50%\n"
                                    "warping error: 0.012500")
        assert pickle.loads(pickle.dumps(report)) == report
