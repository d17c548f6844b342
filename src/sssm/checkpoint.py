"""Flat binary weight container (magic SSSMW1).

Layout: the 7-byte magic "SSSMW1\\n", then one record per array in
registration order.  A record is

    u32  name length          (little-endian)
    ...  name bytes           (utf-8)
    u32  rank
    u32  extent per axis
    ...  float32 payload      (little-endian, row-major)

Every parameter appears exactly once; round trips are bit-exact.  A save
writes a temporary file beside ``path`` and renames it into place, so a
crash mid-write leaves the previous file whole.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"SSSMW1\n"


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float32 arrays in dict order, replacing ``path`` atomically."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(MAGIC)
            for name, arr in arrays.items():
                data = np.ascontiguousarray(arr, dtype="<f4")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<I", data.ndim))
                f.write(struct.pack(f"<{data.ndim}I", *data.shape))
                f.write(data.tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a container back into an ordered name -> float32 array dict."""
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
        name = take(name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        count = int(np.prod(shape)) if rank else 1
        data = np.frombuffer(take(4 * count, f"payload of {name!r}"), dtype="<f4")
        if name in out:
            raise ValueError(f"{path}: duplicate record {name!r}")
        out[name] = data.reshape(shape).astype(np.float32)
    return out
