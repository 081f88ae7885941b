"""16-bit grayscale PNG encoder whose rows cycle through filter types 0-4.

Row y uses filter y mod 5 (None, Sub, Up, Average, Paeth), so decoding runs
every branch of the reader's per-byte unfilter loop, unlike a filter-0 file.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
BPP = 2  # bytes per 16-bit gray sample


def _chunk(ctype: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(ctype + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", crc)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_gray16(samples: np.ndarray) -> bytes:
    """PNG bytes for a 2-D uint16 array."""
    if samples.ndim != 2 or samples.dtype != np.uint16:
        raise ValueError(f"expected a 2-D uint16 array, got {samples.dtype} {samples.shape}")
    h, w = samples.shape
    raw = samples.astype(">u2").view(np.uint8).reshape(h, w * BPP).astype(np.int32)
    left = np.zeros_like(raw)
    left[:, BPP:] = raw[:, :-BPP]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    up_left = np.zeros_like(raw)
    up_left[1:, BPP:] = raw[:-1, :-BPP]
    predictors = (np.zeros_like(raw), left, up, (left + up) >> 1, _paeth(left, up, up_left))
    filters = np.arange(h) % 5
    rows = np.empty((h, w * BPP + 1), dtype=np.uint8)
    rows[:, 0] = filters
    for ftype, pred in enumerate(predictors):
        sel = filters == ftype
        rows[sel, 1:] = (raw[sel] - pred[sel]) & 0xFF
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    return (SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(rows.tobytes()))
            + _chunk(b"IEND", b""))
