"""File format round trips, parse diagnostics, and manifest loading."""

import gc
import struct
import warnings

import numpy as np
import pytest

from sssm import checkpoint, imageio
from sssm.data import DatasetManifest, DisparityGT, StereoPair


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestImageRoundTrip:
    def test_ppm_round_trip_is_byte_identical(self, tmp_path):
        src = tmp_path / "a.ppm"
        dst = tmp_path / "b.ppm"
        img = _rng(1).random((13, 17, 3)).astype(np.float32)
        imageio.write_image(src, img)
        imageio.write_image(dst, imageio.read_image(src))
        assert dst.read_bytes() == src.read_bytes()

    def test_pgm_round_trip_is_byte_identical(self, tmp_path):
        src = tmp_path / "a.pgm"
        dst = tmp_path / "b.pgm"
        img = _rng(2).random((9, 11)).astype(np.float32)
        imageio.write_image(src, img)
        # Grayscale reads back as (H, W, 3); collapsing any channel must
        # reproduce the original file.
        back = imageio.read_image(src)
        imageio.write_image(dst, back[:, :, 0])
        assert dst.read_bytes() == src.read_bytes()

    def test_grayscale_replicates_channels(self, tmp_path):
        path = tmp_path / "g.pgm"
        imageio.write_image(path, _rng(3).random((6, 7)).astype(np.float32))
        img = imageio.read_image(path)
        assert img.shape == (6, 7, 3)
        np.testing.assert_array_equal(img[:, :, 0], img[:, :, 1])
        np.testing.assert_array_equal(img[:, :, 0], img[:, :, 2])

    def test_known_bytes_scale_to_unit_range(self, tmp_path):
        path = tmp_path / "tiny.ppm"
        payload = bytes([0, 0, 0, 255, 255, 255, 128, 64, 192, 1, 2, 3])
        path.write_bytes(b"P6\n2 2\n255\n" + payload)
        img = imageio.read_image(path)
        assert img.dtype == np.float32
        np.testing.assert_allclose(img[0, 0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(img[0, 1], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(img[1, 0], np.array([128, 64, 192]) / 255.0, rtol=1e-6)

    def test_write_clips_out_of_range_values(self, tmp_path):
        path = tmp_path / "c.ppm"
        img = np.array([[[-0.5, 0.5, 1.5]]], dtype=np.float32)
        imageio.write_image(path, img)
        np.testing.assert_allclose(imageio.read_image(path)[0, 0], [0.0, 0.5, 1.0], atol=1e-2)

    def test_header_comments_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # magic\n# a comment line\n  2\t1 # dims\n255\n" + bytes(6))
        img = imageio.read_image(path)
        assert img.shape == (1, 2, 3)

    def test_peek_reads_header_only(self, tmp_path):
        path = tmp_path / "p.ppm"
        imageio.write_image(path, np.zeros((4, 5, 3), dtype=np.float32))
        magic, w, h, maxval = imageio.peek_pnm(path)
        assert (magic, w, h, maxval) == (b"P6", 5, 4, 255)


class TestImageParseErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(imageio.ParseError) as exc:
            imageio.read_image(path)
        assert exc.value.path == str(path)
        assert "byte offset" in str(exc.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n1")
        with pytest.raises(imageio.ParseError) as exc:
            imageio.read_image(path)
        assert "byte offset" in str(exc.value)

    def test_non_numeric_dimension(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\nwide 1\n255\n\x00\x00\x00")
        with pytest.raises(imageio.ParseError):
            imageio.read_image(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "x.ppm"
        header = b"P6\n2 2\n255\n"
        path.write_bytes(header + bytes(5))  # needs 12 payload bytes
        with pytest.raises(imageio.ParseError) as exc:
            imageio.read_image(path)
        # The offset points at where reading stopped: end of the short file.
        assert exc.value.offset == len(header) + 5
        assert str(exc.value.offset) in str(exc.value)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(imageio.ParseError) as exc:
            imageio.read_image(path)
        assert "255" in str(exc.value)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n0 1\n255\n")
        with pytest.raises(imageio.ParseError):
            imageio.read_image(path)


class TestGtPgm:
    def test_known_encoding(self, tmp_path):
        # Stored sample 512 at scale 256 decodes to 2.0 px; stored 0 is
        # the invalid marker.
        path = tmp_path / "gt.pgm"
        payload = np.array([512, 0], dtype=">u2").tobytes()
        path.write_bytes(b"P5\n2 1\n65535\n" + payload)
        values, valid = imageio.read_gt_pgm(path)
        np.testing.assert_array_equal(valid, [[True, False]])
        np.testing.assert_allclose(values, [[2.0, 0.0]])

    def test_round_trip_within_quantization(self, tmp_path):
        path = tmp_path / "gt.pgm"
        values = _rng(4).uniform(0.0, 40.0, size=(10, 12)).astype(np.float32)
        valid = _rng(5).random((10, 12)) > 0.3
        imageio.write_gt_pgm(path, values, valid)
        back_values, back_valid = imageio.read_gt_pgm(path)
        np.testing.assert_array_equal(back_valid, valid)
        err = np.abs(back_values - values)[valid]
        # Codes round to the nearest 1/256 px step.
        assert err.max() <= 0.5 / 256.0 + 1e-7

    def test_invalid_pixels_read_back_as_zero(self, tmp_path):
        path = tmp_path / "gt.pgm"
        values = np.full((3, 3), 7.5, dtype=np.float32)
        valid = np.zeros((3, 3), dtype=bool)
        valid[1, 1] = True
        imageio.write_gt_pgm(path, values, valid)
        back_values, back_valid = imageio.read_gt_pgm(path)
        assert back_values[0, 0] == 0.0
        assert back_values[1, 1] == pytest.approx(7.5)
        np.testing.assert_array_equal(back_valid, valid)

    def test_out_of_range_write_rejected(self, tmp_path):
        path = tmp_path / "gt.pgm"
        with pytest.raises(ValueError, match="encodable"):
            imageio.write_gt_pgm(path, np.full((2, 2), 300.0))

    def test_negative_write_rejected(self, tmp_path):
        path = tmp_path / "gt.pgm"
        with pytest.raises(ValueError, match="encodable"):
            imageio.write_gt_pgm(path, np.full((2, 2), -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_write_rejected_before_opening(self, tmp_path, bad):
        # stored as 0, a NaN would read back as "no ground truth here"
        path = tmp_path / "gt.pgm"
        values = np.full((2, 3), 4.0, dtype=np.float32)
        values[1, 2] = bad
        with pytest.raises(ValueError, match="1 non-finite"):
            imageio.write_gt_pgm(path, values, np.ones((2, 3), bool))
        assert not path.exists()

    def test_eight_bit_file_rejected(self, tmp_path):
        path = tmp_path / "gt.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x07")
        with pytest.raises(imageio.ParseError):
            imageio.read_gt_pgm(path)

    def test_color_file_rejected(self, tmp_path):
        path = tmp_path / "gt.pgm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(imageio.ParseError):
            imageio.read_gt_pgm(path)


class TestPfm:
    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "d.pfm"
        values = _rng(6).standard_normal((7, 5)).astype(np.float32)
        imageio.write_pfm(path, values)
        back = imageio.read_pfm(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.pfm"
        imageio.write_pfm(path, np.zeros((3, 4), dtype=np.float32))
        assert path.read_bytes().startswith(b"Pf\n4 3\n-1.0\n")

    def test_single_value_payload_is_little_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        imageio.write_pfm(path, np.array([[3.5]], dtype=np.float32))
        data = path.read_bytes()
        assert data == b"Pf\n1 1\n-1.0\n" + np.float32(3.5).tobytes()

    def test_rows_are_stored_bottom_up(self, tmp_path):
        path = tmp_path / "d.pfm"
        values = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        imageio.write_pfm(path, values)
        raw = np.frombuffer(path.read_bytes()[-16:], dtype="<f4").reshape(2, 2)
        np.testing.assert_array_equal(raw, values[::-1])

    def test_positive_scale_reads_as_big_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = np.array([[2.25]], dtype=">f4").tobytes()
        path.write_bytes(b"Pf\n1 1\n1.0\n" + payload)
        np.testing.assert_array_equal(imageio.read_pfm(path), [[2.25]])

    @pytest.mark.parametrize("scale", [b"0.0", b"-0", b"nan", b"inf", b"-inf", b"x1"])
    def test_scale_without_endianness_rejected_at_its_offset(self, tmp_path, scale):
        # a zero, non-finite or unreadable scale has no sign to give the
        # payload's byte order; read as big-endian, 2.25 would come back
        # as a tiny subnormal
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + np.float32(2.25).tobytes())
        with pytest.raises(imageio.ParseError, match="bad PFM scale") as exc:
            imageio.read_pfm(path)
        assert exc.value.offset == len(b"Pf\n1 1\n")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + bytes(12))
        with pytest.raises(imageio.ParseError):
            imageio.read_pfm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        header = b"Pf\n2 2\n-1.0\n"
        path.write_bytes(header + bytes(8))
        with pytest.raises(imageio.ParseError, match="payload needs 16 bytes, found 8") as exc:
            imageio.read_pfm(path)
        # as for the PNM readers: where reading stopped, the end of the short file
        assert exc.value.offset == len(header) + 8


class TestCheckpoint:
    def test_round_trip_preserves_values_and_order(self, tmp_path):
        path = tmp_path / "w.bin"
        rng = _rng(7)
        arrays = {
            "feat/l01/w": rng.standard_normal((3, 3, 3, 8)).astype(np.float32),
            "feat/l01/b": np.zeros(8, dtype=np.float32),
            "scalar": np.float32(4.25).reshape(()),
            "__iteration__": np.array([2 ** 53 + 1], dtype=np.int64),
        }
        checkpoint.save_arrays(path, arrays)
        back = checkpoint.load_arrays(path)
        assert list(back) == list(arrays)
        for name in arrays:
            assert back[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(back[name], arrays[name])

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.float16, np.bool_])
    def test_other_dtypes_refused_at_save(self, tmp_path, dtype):
        path = tmp_path / "w.bin"
        with pytest.raises(ValueError, match=r"w\.bin: record 'y' has dtype .*float32 and int64 only"):
            checkpoint.save_arrays(path, {"x": np.ones(2, np.float32), "y": np.ones(2, dtype)})
        assert list(tmp_path.iterdir()) == []

    def test_unknown_dtype_tag_refused(self, tmp_path):
        path = tmp_path / "w.bin"
        checkpoint.save_arrays(path, {"x": np.ones(2, dtype=np.float32)})
        data = bytearray(path.read_bytes())
        tag_at = len(checkpoint.MAGIC) + 4 + 1  # after the name length and "x"
        assert data[tag_at:tag_at + 1] == b"f"
        data[tag_at] = ord("d")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"w\.bin: record 'x' has unknown dtype tag b'd' at byte {tag_at}"):
            checkpoint.load_arrays(path)

    def test_undecodable_name_names_file_and_offset(self, tmp_path):
        path = tmp_path / "w.bin"
        checkpoint.save_arrays(path, {"x": np.ones(2, dtype=np.float32)})
        data = bytearray(path.read_bytes())
        name_at = len(checkpoint.MAGIC) + 4
        data[name_at] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"w\.bin: record name at byte {name_at} is not utf-8"):
            checkpoint.load_arrays(path)

    def test_round_trip_is_byte_stable(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        arrays = {"x": _rng(8).random((4, 5)).astype(np.float32)}
        checkpoint.save_arrays(a, arrays)
        checkpoint.save_arrays(b, checkpoint.load_arrays(a))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOTAMAGIC")
        with pytest.raises(ValueError, match="magic"):
            checkpoint.load_arrays(path)
        path.write_bytes(b"SSSMW1\n")  # the float32-only format before dtype tags
        with pytest.raises(ValueError, match="bad magic b'SSSMW1"):
            checkpoint.load_arrays(path)

    def test_truncation_reports_position(self, tmp_path):
        path = tmp_path / "w.bin"
        checkpoint.save_arrays(path, {"x": np.ones((2, 2), dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="byte"):
            checkpoint.load_arrays(path)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "w.bin"
        checkpoint.save_arrays(path, {"x": np.ones((2, 2), dtype=np.float32)})
        old = path.read_bytes()

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("write failed")

        # The first record is written before the second one fails.
        with pytest.raises(RuntimeError, match="write failed"):
            checkpoint.save_arrays(path, {"y": np.zeros(64, dtype=np.float32), "z": Unwritable()})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["w.bin"]

    def test_extents_whose_product_wraps_in_int64_are_a_truncated_payload(self, tmp_path):
        # 2^21 * 2^21 * 2^22 = 2^64 wraps to 0 in int64; the exact count makes
        # the missing payload a truncation that names the file and the record
        path = tmp_path / "w.bin"
        path.write_bytes(checkpoint.MAGIC + struct.pack("<I", 1) + b"a" + b"f"
                         + struct.pack("<4I", 3, 2 ** 21, 2 ** 21, 2 ** 22) + b"\0" * 8)
        with pytest.raises(ValueError, match=r"w\.bin: truncated while reading payload of 'a'"):
            checkpoint.load_arrays(path)

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        checkpoint.save_arrays(path, {"x": np.ones(2, dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data + data[len(checkpoint.MAGIC):])
        with pytest.raises(ValueError, match="duplicate"):
            checkpoint.load_arrays(path)


def test_readers_close_their_files(tmp_path):
    rng = _rng(3)
    checkpoint.save_arrays(tmp_path / "w.sssmw", {"a": rng.standard_normal((2, 3)).astype(np.float32)})
    imageio.write_image(tmp_path / "c.ppm", rng.uniform(0, 1, (4, 5, 3)))
    imageio.write_image(tmp_path / "g.pgm", rng.uniform(0, 1, (4, 5)))
    imageio.write_gt_pgm(tmp_path / "gt.pgm", rng.uniform(0, 9, (4, 5)))
    imageio.write_pfm(tmp_path / "d.pfm", rng.uniform(0, 9, (4, 5)).astype(np.float32))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        checkpoint.load_arrays(tmp_path / "w.sssmw")
        imageio.read_image(tmp_path / "c.ppm")
        imageio.read_image(tmp_path / "g.pgm")
        imageio.peek_pnm(tmp_path / "c.ppm")
        imageio.read_gt_pgm(tmp_path / "gt.pgm")
        imageio.read_pfm(tmp_path / "d.pfm")
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, leaks


def _write_pair(root, stem, shape=(6, 8)):
    h, w = shape
    rng = np.random.default_rng(abs(hash(stem)) % (2**32))
    left = rng.random((h, w, 3)).astype(np.float32)
    right = rng.random((h, w, 3)).astype(np.float32)
    imageio.write_image(root / f"{stem}_l.ppm", left)
    imageio.write_image(root / f"{stem}_r.ppm", right)
    return f"{stem}_l.ppm {stem}_r.ppm"


class TestManifest:
    def test_load_order_is_stable(self, tmp_path):
        lines = [_write_pair(tmp_path, s) for s in ("aa", "bb", "cc")]
        mpath = tmp_path / "manifest.txt"
        mpath.write_text("# header comment\n" + "\n".join(lines) + "\n\n")
        manifest = DatasetManifest.load(mpath)
        assert len(manifest) == 3
        assert [r.left_path.name for r in manifest.records] == ["aa_l.ppm", "bb_l.ppm", "cc_l.ppm"]

    def test_load_pair_returns_validated_pair(self, tmp_path):
        line = _write_pair(tmp_path, "aa")
        gt = np.full((6, 8), 1.5, dtype=np.float32)
        imageio.write_gt_pgm(tmp_path / "aa_gt.pgm", gt)
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(f"{line} aa_gt.pgm\n")
        pair = DatasetManifest.load(mpath).load_pair(0)
        assert isinstance(pair, StereoPair)
        assert pair.shape == (6, 8)
        assert isinstance(pair.gt, DisparityGT)
        np.testing.assert_allclose(pair.gt.values, 1.5)

    def test_missing_file_is_eager_error(self, tmp_path):
        mpath = tmp_path / "manifest.txt"
        mpath.write_text("missing_l.ppm missing_r.ppm\n")
        with pytest.raises(FileNotFoundError):
            DatasetManifest.load(mpath)

    def test_dimension_mismatch_rejected(self, tmp_path):
        imageio.write_image(tmp_path / "l.ppm", np.zeros((4, 4, 3), dtype=np.float32))
        imageio.write_image(tmp_path / "r.ppm", np.zeros((4, 5, 3), dtype=np.float32))
        mpath = tmp_path / "manifest.txt"
        mpath.write_text("l.ppm r.ppm\n")
        with pytest.raises(ValueError, match="4x4"):
            DatasetManifest.load(mpath)

    def test_gt_dimension_mismatch_rejected_naming_the_line(self, tmp_path):
        line = _write_pair(tmp_path, "aa", shape=(24, 40))
        imageio.write_gt_pgm(tmp_path / "aa_gt.pgm", np.ones((24, 41), dtype=np.float32))
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(f"# one pair\n{line} aa_gt.pgm\n")
        with pytest.raises(ValueError, match="manifest.txt:2: gt is 41x24 but left is 40x24"):
            DatasetManifest.load(mpath)

    def test_wrong_field_count_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.txt"
        mpath.write_text("only_one_path.ppm\n")
        with pytest.raises(ValueError, match="expected 2 or 3"):
            DatasetManifest.load(mpath)

    def test_empty_manifest_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.txt"
        mpath.write_text("# nothing but comments\n")
        with pytest.raises(ValueError, match="no records"):
            DatasetManifest.load(mpath)
