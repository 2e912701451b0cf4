"""Portable float map (PFM) reader/writer for single-channel depth maps.

Canonical form written here: header `Pf`, `<width> <height>`, scale `-1.0`
(little-endian float32), pixel rows stored bottom-to-top. Non-finite depths,
and finite depths beyond the float32 range, are encoded as 0.0; any other
value is written as it is, so an invalid depth of -1.0 reads back as -1.0.
A map is read as the native-endian float32 the file stores, with no
widening. numpy is imported by the reader and the writer, not by this module.
"""

from __future__ import annotations

import math
import os

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
    import numpy as np

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
        extra = os.fstat(f.fileno()).st_size - f.tell() - 4 * width * height
        if extra < 0:
            raise MalformedLine(3, "truncated pixel data", path)
        if extra > 0:
            raise MalformedLine(3, f"{extra} bytes after the {width}x{height} pixel data", path)
        data = f.read(4 * width * height)
        grid = np.frombuffer(data, dtype=dtype).reshape(height, width)
    # the one copy: rows flipped to top-to-bottom, a big-endian file byteswapped
    return DepthMap(np.flipud(grid).astype(np.float32, order="C"))


def write_pfm(path: str, depth: DepthMap) -> None:
    import numpy as np

    # the one copy: rows flipped to bottom-to-top and cast to little-endian
    # float32; a finite depth beyond float32's range casts to inf, so the
    # invalid pixels are zeroed after the cast. The copy is forced: a float32
    # map whose flip is already contiguous would otherwise be zeroed in place
    with np.errstate(over="ignore"):
        grid = np.array(np.flipud(depth.values), dtype="<f4", order="C")
    grid[~np.isfinite(grid)] = 0.0
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{depth.width} {depth.height}\n".encode())
        f.write(b"-1.0\n")
        f.write(grid)
