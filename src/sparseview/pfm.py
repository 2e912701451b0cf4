"""Portable float map (PFM) reader/writer for single-channel depth maps.

Canonical form written here: header `Pf`, `<width> <height>`, scale `-1.0`
(little-endian float32), pixel rows stored bottom-to-top. Invalid depths are
encoded as 0.0.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .depth_filter import DepthMap
from .errors import MalformedLine


def _read_header_token(f, path: str) -> bytes:
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise MalformedLine(1, "truncated header", path)
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def read_pfm(path: str) -> DepthMap:
    with open(path, "rb") as f:
        magic = _read_header_token(f, path)
        if magic != b"Pf":
            raise MalformedLine(1, f"expected Pf header, got {magic!r}", path)
        try:
            width = int(_read_header_token(f, path))
            height = int(_read_header_token(f, path))
            scale = float(_read_header_token(f, path))
        except ValueError as exc:
            raise MalformedLine(2, f"bad dimensions or scale: {exc}", path) from exc
        if width <= 0 or height <= 0:
            raise MalformedLine(2, "nonpositive dimensions", path)
        # the scale's sign gives the byte order; its magnitude is not used
        if not math.isfinite(scale) or scale == 0:
            raise MalformedLine(3, f"scale must be finite and nonzero, got {scale}", path)
        dtype = "<f4" if scale < 0 else ">f4"
        # checked before reading, so a header claiming a huge map allocates nothing
        if 4 * width * height > os.fstat(f.fileno()).st_size - f.tell():
            raise MalformedLine(3, "truncated pixel data", path)
        data = f.read(4 * width * height)
        grid = np.frombuffer(data, dtype=dtype).reshape(height, width)
    return DepthMap(np.flipud(grid).astype(np.float64))


def write_pfm(path: str, depth: DepthMap) -> None:
    values = np.array(depth.values, dtype=np.float64, copy=True)
    values[~np.isfinite(values)] = 0.0
    grid = np.flipud(values).astype("<f4")
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{depth.width} {depth.height}\n".encode())
        f.write(b"-1.0\n")
        f.write(grid.tobytes())
