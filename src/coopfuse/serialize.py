"""Flat binary parameter files.

Layout: magic ``CATP``, version u32, count u32, then per parameter:
name length u16, name bytes (utf-8), rank u8, one u32 per dim, payload as
little-endian f64. All integers little-endian.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import Parameter

MAGIC = b"CATP"
VERSION = 1


def save_params(path, params: dict[str, Parameter]) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, len(params))
    for name, p in params.items():
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb))
        out += nb
        arr = np.ascontiguousarray(p.data, dtype="<f8")
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        out += arr.data
    Path(path).write_bytes(out)


def load_params(path) -> dict[str, np.ndarray]:
    """Read a parameter file as read-only views of its bytes; a malformed, truncated
    or nonfinite file, or one that names a parameter twice, raises ValueError."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ValueError(f"bad parameter file magic {buf[:4]!r}, expected {MAGIC!r}")
    try:
        return _decode(buf)
    except struct.error as e:
        raise ValueError(f"truncated parameter file ({len(buf)} bytes): {e}") from e


def _decode(buf: bytes) -> dict[str, np.ndarray]:
    version, count = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        raise ValueError(f"unsupported parameter file version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off:off + nlen].decode("utf-8")
        if name in out:
            raise ValueError(f"parameter {name!r} appears twice in the parameter file")
        off += nlen
        (rank,) = struct.unpack_from("<B", buf, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}I", buf, off) if rank else ()
        off += 4 * rank
        n = math.prod(dims)
        if off + 8 * n > len(buf):
            raise ValueError(f"truncated parameter file: {name!r} needs {8 * n} payload "
                             f"bytes at offset {off}, file has {len(buf)}")
        arr = np.frombuffer(buf, dtype="<f8", count=n, offset=off).reshape(dims)
        if not np.isfinite(arr).all():
            raise ValueError(f"nonfinite value in parameter {name!r}")
        off += 8 * n
        out[name] = arr
    if off != len(buf):
        raise ValueError(f"trailing bytes in parameter file: {len(buf) - off}")
    return out


def assign_params(params: dict[str, Parameter], values: dict[str, np.ndarray]) -> None:
    """Load values into an existing parameter dict, validating names and shapes."""
    missing = set(params) - set(values)
    extra = set(values) - set(params)
    if missing or extra:
        raise ValueError(f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, p in params.items():
        v = values[name]
        if v.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name}: file {v.shape} vs model {p.data.shape}")
        p.data = np.array(v, dtype=np.float64, order="C")
