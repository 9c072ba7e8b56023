"""CCT1 binary tensor format.

Layout: magic ``CCT1``, u8 rank, rank little-endian u32 dims, then the
values as little-endian float32 in row-major order. Values are downcast
to float32 on write and upcast to float64 on read; writing what a read
produced is byte-stable. A write whose float32 values are not all finite
(NaN, inf, or |x| beyond the float32 range) is refused before any byte
is written.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"CCT1"


class FormatError(ValueError):
    """Raised for malformed CCT1 payloads."""


def write_cct1(path, array):
    array = np.asarray(array, dtype=np.float64)
    if array.ndim > 255:
        raise FormatError("rank exceeds CCT1 limit")
    with np.errstate(over="ignore"):
        payload = array.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise FormatError(f"{path}: non-finite value in float32 payload")
    payload = payload.tobytes()
    header = MAGIC + struct.pack("<B", array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    Path(path).write_bytes(header + payload)


def read_cct1(path):
    blob = Path(path).read_bytes()
    if len(blob) < 5 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: missing CCT1 magic")
    rank = blob[4]
    head_end = 5 + 4 * rank
    if len(blob) < head_end:
        raise FormatError(f"{path}: truncated header")
    dims = struct.unpack(f"<{rank}I", blob[5:head_end])
    n = int(np.prod(dims, dtype=np.int64)) if rank else 1
    body = blob[head_end:]
    if len(body) != 4 * n:
        raise FormatError(f"{path}: payload size {len(body)} != {4 * n}")
    data = np.frombuffer(body, dtype="<f4").astype(np.float64)
    return data.reshape(dims)
