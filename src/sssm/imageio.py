"""Binary PNM image files and PFM float maps.

Images travel as 8-bit binary PPM (P6) or PGM (P5) and are exposed as
float32 in [0, 1] (value = byte / 255).  Ground-truth disparity uses the
16-bit big-endian PGM convention: stored = round(disparity * 256), stored
0 means "no ground truth here".  Float disparity maps are written as
grayscale PFM ("Pf"), little-endian, rows bottom-up.

Parse failures raise ParseError carrying the byte offset of the problem.
"""

from __future__ import annotations

import numpy as np

GT_SCALE = 256.0

_WHITESPACE = b" \t\n\r\x0b\x0c"


class ParseError(ValueError):
    """Malformed image file; ``offset`` is the failing byte position."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} at byte offset {offset}")
        self.path = str(path)
        self.offset = int(offset)


def _header_tokens(buf: bytes, count: int, path) -> tuple[list[bytes], int]:
    """First ``count`` whitespace/comment-delimited tokens and payload offset.

    The payload starts after exactly one whitespace byte following the last
    header token, per the binary PNM convention.
    """
    pos = 0
    tokens = []
    while len(tokens) < count:
        while pos < len(buf):
            if buf[pos] in _WHITESPACE:
                pos += 1
            elif buf[pos:pos + 1] == b"#":
                nl = buf.find(b"\n", pos)
                pos = len(buf) if nl < 0 else nl + 1
            else:
                break
        if pos >= len(buf):
            raise ParseError(path, "truncated header", pos)
        start = pos
        while pos < len(buf) and buf[pos] not in _WHITESPACE and buf[pos:pos + 1] != b"#":
            pos += 1
        tokens.append(buf[start:pos])
    if pos >= len(buf):
        raise ParseError(path, "missing payload", pos)
    if buf[pos] not in _WHITESPACE:
        raise ParseError(path, "expected whitespace before payload", pos)
    return tokens, pos + 1


def _parse_pnm(path) -> tuple[bytes, int, int, int, bytes, int]:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 2 or buf[:1] != b"P":
        raise ParseError(path, "not a PNM file", 0)
    tokens, payload_at = _header_tokens(buf, 4, path)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ParseError(path, f"unsupported magic {magic!r}", 0)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ParseError(path, f"non-numeric header field in {tokens[1:]}", payload_at) from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ParseError(path, f"bad dimensions {width}x{height} maxval {maxval}", payload_at)
    return magic, width, height, maxval, buf, payload_at


def _payload(path, buf: bytes, offset: int, nbytes: int) -> bytes:
    got = len(buf) - offset
    if got < nbytes:
        raise ParseError(path, f"payload needs {nbytes} bytes, found {got}", len(buf))
    return buf[offset:offset + nbytes]


def peek_pnm(path) -> tuple[bytes, int, int, int]:
    """(magic, width, height, maxval) without touching the payload."""
    magic, w, h, maxval, _, _ = _parse_pnm(path)
    return magic, w, h, maxval


def read_image(path) -> np.ndarray:
    """Load an 8-bit P6/P5 file as float32 (H, W, 3) in [0, 1].

    Grayscale input is replicated across the three channels.
    """
    magic, w, h, maxval, buf, at = _parse_pnm(path)
    if maxval != 255:
        raise ParseError(path, f"images must be 8-bit (maxval 255), got {maxval}", at)
    if magic == b"P6":
        raw = np.frombuffer(_payload(path, buf, at, 3 * w * h), dtype=np.uint8)
        pixels = raw.reshape(h, w, 3)
    else:
        raw = np.frombuffer(_payload(path, buf, at, w * h), dtype=np.uint8)
        pixels = np.repeat(raw.reshape(h, w, 1), 3, axis=2)
    return (pixels.astype(np.float32) / np.float32(255.0)).astype(np.float32)


def write_image(path, image: np.ndarray) -> None:
    """Write float [0, 1] pixels as binary PPM (H, W, 3) or PGM (H, W).

    Quantisation is round(value * 255), so read_image -> write_image
    reproduces the original file byte for byte.
    """
    if image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
    elif image.ndim == 2:
        magic = b"P5"
    else:
        raise ValueError(f"write_image: expected (H, W, 3) or (H, W), got shape {image.shape}")
    h, w = image.shape[:2]
    quantised = np.rint(np.clip(image.astype(np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(quantised.tobytes())


def read_gt_pgm(path) -> tuple[np.ndarray, np.ndarray]:
    """Load 16-bit big-endian PGM ground truth: (disparity f32, valid bool).

    Stored zeros mark pixels without ground truth; their disparity reads
    as 0 with valid=False.
    """
    magic, w, h, maxval, buf, at = _parse_pnm(path)
    if magic != b"P5" or maxval != 65535:
        raise ParseError(path, f"ground truth must be P5 maxval 65535, got {magic!r} {maxval}", at)
    stored = np.frombuffer(_payload(path, buf, at, 2 * w * h), dtype=">u2").reshape(h, w)
    valid = stored > 0
    values = (stored.astype(np.float32) / np.float32(GT_SCALE)) * valid
    return values.astype(np.float32), valid


def write_gt_pgm(path, values: np.ndarray, valid: np.ndarray | None = None) -> None:
    """Write disparity as 16-bit big-endian PGM, quantised to 1/GT_SCALE px.

    Invalid pixels store 0.  Valid disparities that quantise to 0 are
    unrepresentable in this encoding and come back invalid.  Non-finite
    ones are refused, as storing 0 would mark them "no ground truth".
    """
    if values.ndim != 2:
        raise ValueError(f"write_gt_pgm: expected (H, W) disparity, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"write_gt_pgm: {np.count_nonzero(~np.isfinite(values))} non-finite disparities")
    h, w = values.shape
    stored = np.rint(values.astype(np.float64) * GT_SCALE)
    if np.any((stored < 0) | (stored > 65535)):
        raise ValueError("write_gt_pgm: disparity out of encodable range [0, 255.996]")
    stored = stored.astype(np.uint16)
    if valid is not None:
        stored = stored * valid.astype(np.uint16)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (w, h))
        f.write(stored.astype(">u2").tobytes())


def read_pfm(path) -> np.ndarray:
    """Load a grayscale PFM ("Pf") as float32 (H, W), top-down rows.  The
    scale's sign is the byte order (negative: little), so a zero or non-finite one is refused."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:2] != b"Pf":
        raise ParseError(path, f"expected Pf magic, got {buf[:2]!r}", 0)
    tokens, at = _header_tokens(buf, 4, path)
    try:
        w, h = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ParseError(path, f"bad PFM dimensions {tokens[1:3]}", at) from None
    if w < 1 or h < 1:
        raise ParseError(path, f"bad PFM dimensions {w}x{h}", at)
    try:
        scale = float(tokens[3])
    except ValueError:
        scale = float("nan")
    if not (np.isfinite(scale) and scale):
        # the scale token ends one whitespace byte before the payload
        raise ParseError(path, f"bad PFM scale {tokens[3]!r}", at - 1 - len(tokens[3]))
    dtype = "<f4" if scale < 0 else ">f4"
    rows = np.frombuffer(_payload(path, buf, at, 4 * w * h), dtype=dtype).reshape(h, w)
    return np.flipud(rows).astype(np.float32)


def write_pfm(path, values: np.ndarray) -> None:
    """Write float32 (H, W) as grayscale PFM, little-endian, rows bottom-up."""
    if values.ndim != 2:
        raise ValueError(f"write_pfm: expected (H, W), got shape {values.shape}")
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n%d %d\n-1.0\n" % (w, h))
        f.write(np.flipud(values.astype("<f4")).tobytes())
