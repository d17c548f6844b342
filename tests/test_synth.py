"""Synthetic stereo pair generation: geometry, determinism, dataset export."""

import numpy as np
import pytest

from sssm import synth
from sssm.data import DatasetManifest
from sssm.losses import TO_LEFT, resample_horizontal


class TestTexture:
    def test_shape_dtype_and_range(self):
        tex = synth.band_limited_texture(np.random.default_rng(0), 24, 40)
        assert tex.shape == (24, 40, 3)
        assert tex.dtype == np.float32
        assert tex.min() >= 0.0 and tex.max() <= 1.0

    def test_centered_with_visible_contrast(self):
        tex = synth.band_limited_texture(np.random.default_rng(1), 48, 64)
        assert abs(tex.mean() - 0.5) < 0.05
        # Flat images carry no matching signal; require real variation.
        assert tex.std() > 0.02

    def test_deterministic_per_rng_seed(self):
        a = synth.band_limited_texture(np.random.default_rng(7), 16, 16)
        b = synth.band_limited_texture(np.random.default_rng(7), 16, 16)
        np.testing.assert_array_equal(a, b)


class TestFields:
    def test_constant_field_values(self):
        d = synth.constant_field(4.5)(np.random.default_rng(0), 5, 9)
        assert d.shape == (5, 9)
        np.testing.assert_array_equal(d, np.float32(4.5))

    def test_constant_field_rejects_negative(self):
        with pytest.raises(ValueError):
            synth.constant_field(-0.1)

    def test_planar_field_is_affine_then_clipped(self):
        d = synth.planar_field(1.0, 0.5, 0.25, 6.0)(np.random.default_rng(0), 4, 8)
        assert d[0, 0] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(2.0)
        assert d[2, 0] == pytest.approx(1.5)
        assert d.max() <= 6.0

    def test_split_field_halves(self):
        d = synth.split_field(2.0, 5.0)(np.random.default_rng(0), 3, 8)
        np.testing.assert_array_equal(d[:, :4], np.float32(2.0))
        np.testing.assert_array_equal(d[:, 4:], np.float32(5.0))


class TestFieldSpec:
    def test_constant_spec(self):
        d = synth.parse_field_spec("constant:3")(np.random.default_rng(0), 2, 4)
        np.testing.assert_array_equal(d, np.float32(3.0))

    def test_constant_range_spec_samples_per_pair(self):
        build = synth.parse_field_spec("constant:2..6")
        values = {float(build(np.random.default_rng(s), 1, 1)[0, 0]) for s in range(8)}
        assert len(values) > 1
        assert all(2.0 <= v <= 6.0 for v in values)

    def test_planar_spec(self):
        d = synth.parse_field_spec("planar:1,0.5,0,8")(np.random.default_rng(0), 1, 4)
        np.testing.assert_allclose(d[0], [1.0, 1.5, 2.0, 2.5])

    def test_split_spec(self):
        d = synth.parse_field_spec("split:1,3")(np.random.default_rng(0), 2, 4)
        np.testing.assert_array_equal(d, [[1, 1, 3, 3], [1, 1, 3, 3]])

    @pytest.mark.parametrize(
        "spec",
        ["gradient:1", "constant:", "constant:6..2", "constant:-1..2",
         "planar:1,2", "split:1", "constant:abc", "split:-2,3", "split:2,-3", "split:nan,1",
         "split:1,inf", "planar:0,1,0,-1", "planar:nan,0,0,4", "constant:nan", "constant:inf",
         "constant:0..inf"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            synth.parse_field_spec(spec)


class TestSynthPair:
    def test_zero_disparity_means_identical_views(self):
        pair = synth.synth_pair(0, 16, 24, synth.constant_field(0.0))
        np.testing.assert_array_equal(pair.left, pair.right)
        np.testing.assert_array_equal(pair.gt.values, 0.0)
        assert pair.gt.valid.all()

    def test_left_view_is_right_resampled_at_gt(self):
        pair = synth.synth_pair(3, 20, 32, synth.constant_field(4.25))
        rebuilt = resample_horizontal(pair.right, pair.gt.values + 4.25 * ~pair.gt.valid, TO_LEFT)
        np.testing.assert_allclose(rebuilt, pair.left, atol=1e-6)

    def test_integer_disparity_is_exact_shift(self):
        k = 3
        pair = synth.synth_pair(5, 10, 20, synth.constant_field(float(k)))
        np.testing.assert_allclose(pair.left[:, k:], pair.right[:, :-k], atol=1e-6)

    def test_validity_marks_unmatched_left_border(self):
        pair = synth.synth_pair(1, 6, 12, synth.constant_field(3.0))
        assert not pair.gt.valid[:, :3].any()
        assert pair.gt.valid[:, 3:].all()
        # Invalid pixels carry the zero sentinel, matching the GT file format.
        np.testing.assert_array_equal(pair.gt.values[:, :3], 0.0)

    def test_reconstruction_error_small_at_true_disparity(self):
        pair = synth.synth_pair(9, 24, 48, synth.constant_field(5.5))
        rebuilt = resample_horizontal(pair.right, np.full((24, 48), 5.5, np.float32), TO_LEFT)
        err = np.abs(rebuilt - pair.left)[:, 6:]
        assert err.max() < 1e-3

    def test_same_seed_same_pair(self):
        a = synth.synth_pair((11, 2), 12, 16, synth.constant_field(2.0))
        b = synth.synth_pair((11, 2), 12, 16, synth.constant_field(2.0))
        np.testing.assert_array_equal(a.left, b.left)
        np.testing.assert_array_equal(a.right, b.right)
        np.testing.assert_array_equal(a.gt.values, b.gt.values)

    def test_different_seeds_differ(self):
        a = synth.synth_pair(0, 12, 16, synth.constant_field(2.0))
        b = synth.synth_pair(1, 12, 16, synth.constant_field(2.0))
        assert np.abs(a.right - b.right).max() > 1e-3

    def test_field_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            synth.synth_pair(0, 8, 8, lambda rng, h, w: np.zeros((h, w + 1), np.float32))


class TestWriteDataset:
    def test_writes_loadable_manifest(self, tmp_path):
        mpath = synth.write_dataset(tmp_path / "ds", count=3, seed=0, h=12, w=20,
                                    field_spec="constant:2.5")
        assert mpath == tmp_path / "ds" / "manifest.txt"
        manifest = DatasetManifest.load(mpath)
        assert len(manifest) == 3
        pair = manifest.load_pair(1)
        assert pair.shape == (12, 20)
        gt = pair.gt.values[pair.gt.valid]
        np.testing.assert_allclose(gt, 2.5, atol=0.5 / 256.0 + 1e-6)

    def test_gt_survives_quantization_within_step(self, tmp_path):
        mpath = synth.write_dataset(tmp_path / "ds", count=1, seed=4, h=10, w=24,
                                    field_spec="planar:0.5,0.25,0,8")
        pair = DatasetManifest.load(mpath).load_pair(0)
        expected = synth.planar_field(0.5, 0.25, 0.0, 8.0)(np.random.default_rng(0), 10, 24)
        err = np.abs(pair.gt.values - expected)[pair.gt.valid]
        assert err.max() <= 0.5 / 256.0 + 1e-6

    def test_deterministic_per_seed(self, tmp_path):
        a = synth.write_dataset(tmp_path / "a", count=2, seed=5, h=8, w=12,
                                field_spec="constant:1..3")
        b = synth.write_dataset(tmp_path / "b", count=2, seed=5, h=8, w=12,
                                field_spec="constant:1..3")
        for name in ("0000_left.ppm", "0001_right.ppm", "0000_gt.pgm"):
            assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()

    @pytest.mark.parametrize("kw, name", [
        ({"count": 0}, "count"), ({"seed": -1}, "seed"), ({"h": 0}, "height"), ({"w": 1}, "width"),
        ({"field_spec": "split:-2,3"}, "split:-2,3"),
    ])
    def test_input_that_cannot_work_is_refused_before_writing(self, tmp_path, kw, name):
        args = {"count": 1, "seed": 0, "h": 8, "w": 12, "field_spec": "constant:1", **kw}
        with pytest.raises(ValueError, match=name):
            synth.write_dataset(tmp_path / "ds", **args)
        assert not (tmp_path / "ds").exists()
