"""Flat binary container of named, typed arrays (magic SSSMW2).

Layout: the 7-byte magic "SSSMW2\\n", then one record per array in dict
order.  A record is

    u32  name length          (little-endian)
    ...  name bytes           (utf-8)
    u8   dtype tag            ("f" float32, "i" int64)
    u32  rank
    u32  extent per axis
    ...  payload              (little-endian, row-major)

A save refuses any other dtype and a load any other tag; round trips are
bit-exact.  ``training.save_checkpoint`` writes a run's whole state (every
parameter, its RMSProp accumulator and the iteration) as one such file.  A
save writes a temporary file beside ``path`` and renames it into place, so
a crash mid-write leaves the previous file whole.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"SSSMW2\n"
# dtype tag -> payload dtype, and back from the native dtype
DTYPES = {b"f": np.dtype("<f4"), b"i": np.dtype("<i8")}
_TAGS = {dt.newbyteorder("="): tag for tag, dt in DTYPES.items()}


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float32 or int64 arrays in dict order, replacing ``path`` atomically."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(MAGIC)
            for name, arr in arrays.items():
                data = np.asarray(arr)
                tag = _TAGS.get(data.dtype)
                if tag is None:
                    raise ValueError(f"{path}: record {name!r} has dtype {data.dtype}; "
                                     "the container holds float32 and int64 only")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(tag)
                f.write(struct.pack("<I", data.ndim))
                f.write(struct.pack(f"<{data.ndim}I", *data.shape))
                f.write(data.astype(DTYPES[tag], copy=False).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a container back into an ordered name -> float32 or int64 array dict."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic {buf[:len(MAGIC)]!r}, expected {MAGIC!r}")
    pos = len(MAGIC)
    out: dict[str, np.ndarray] = {}

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path}: truncated while reading {what} at byte {pos}")
        chunk = buf[pos:pos + n]
        pos += n
        return chunk

    while pos < len(buf):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        start = pos
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: record name at byte {start} is not utf-8") from None
        tag = take(1, f"dtype tag of {name!r}")
        if tag not in DTYPES:
            raise ValueError(f"{path}: record {name!r} has unknown dtype tag {tag!r} at byte {pos - 1}")
        dtype = DTYPES[tag]
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        count = math.prod(shape)
        data = np.frombuffer(take(dtype.itemsize * count, f"payload of {name!r}"), dtype=dtype)
        if name in out:
            raise ValueError(f"{path}: duplicate record {name!r}")
        out[name] = data.reshape(shape).astype(dtype.newbyteorder("="))
    return out
