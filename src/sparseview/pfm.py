"""Portable float map (PFM) reader/writer for single-channel depth maps.

Canonical form written here: header `Pf`, `<width> <height>`, scale `-1.0`
(little-endian float32), pixel rows stored bottom-to-top. Non-finite depths,
and finite depths beyond the float32 range, are encoded as 0.0; any other
value is written as it is, so an invalid depth of -1.0 reads back as -1.0.
A map is read as the native-endian float32 the file stores, with no
widening.

Both directions stream the raster through one band of `BAND_ROWS` rows, the
depth filter's band height: a reader holds the map it returns plus one band,
a writer one band plus its mask.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import depth_filter
from .errors import MalformedLine

# longer than any header token a valid file has: `Pf`, a width or height that
# fits in memory, a float scale
_MAX_TOKEN = 64


def _read_header_token(f, path: str, line_no: int) -> bytes:
    tok = bytearray()
    while True:
        c = f.read(1)
        if not c:
            raise MalformedLine(line_no, "truncated header", path)
        if c.isspace():
            if tok:
                return bytes(tok)
            continue
        if len(tok) == _MAX_TOKEN:
            raise MalformedLine(line_no, f"header token longer than {_MAX_TOKEN} bytes", path)
        tok += c


def read_pfm(path: str) -> depth_filter.DepthMap:
    with open(path, "rb") as f:
        magic = _read_header_token(f, path, 1)
        if magic != b"Pf":
            raise MalformedLine(1, f"expected Pf header, got {magic!r}", path)
        try:
            width = int(_read_header_token(f, path, 2))
            height = int(_read_header_token(f, path, 2))
            scale = float(_read_header_token(f, path, 3))
        except ValueError as exc:
            raise MalformedLine(2, f"bad dimensions or scale: {exc}", path) from exc
        if width <= 0 or height <= 0:
            raise MalformedLine(2, "nonpositive dimensions", path)
        # the scale's sign gives the byte order; its magnitude is not used
        if not math.isfinite(scale) or scale == 0:
            raise MalformedLine(3, f"scale must be finite and nonzero, got {scale}", path)
        # checked before reading, so a header claiming a huge map allocates nothing
        extra = os.fstat(f.fileno()).st_size - f.tell() - 4 * width * height
        if extra < 0:
            raise MalformedLine(3, "truncated pixel data", path)
        if extra > 0:
            raise MalformedLine(3, f"{extra} bytes after the {width}x{height} pixel data", path)
        values = np.empty((height, width), dtype=np.float32)
        rows = depth_filter.BAND_ROWS
        band = np.empty((min(rows, height), width), dtype="<f4" if scale < 0 else ">f4")
        # file rows run bottom-to-top: each band fills the rows above the last
        for stop in range(height, 0, -rows):
            n = min(rows, stop)
            chunk = band[:n]
            if f.readinto(chunk) != chunk.nbytes:
                raise MalformedLine(3, "truncated pixel data", path)
            # rows flipped into place; a big-endian band is byteswapped by the copy
            np.copyto(values[stop - n : stop], chunk[::-1])
    return depth_filter.DepthMap(values)


def write_pfm(path: str, depth: depth_filter.DepthMap) -> None:
    values = depth.values
    rows = depth_filter.BAND_ROWS
    band = np.empty((min(rows, depth.height), depth.width), dtype="<f4")
    mask = np.empty(band.shape, dtype=bool)
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{depth.width} {depth.height}\n".encode())
        f.write(b"-1.0\n")
        for stop in range(depth.height, 0, -rows):
            n = min(rows, stop)
            chunk, invalid = band[:n], mask[:n]
            # rows flipped to bottom-to-top and cast to little-endian float32;
            # a finite depth beyond float32's range casts to inf, so the
            # invalid pixels are zeroed after the cast
            with np.errstate(over="ignore"):
                np.copyto(chunk, values[stop - n : stop][::-1])
            np.isfinite(chunk, out=invalid)
            np.logical_not(invalid, out=invalid)
            np.copyto(chunk, 0.0, where=invalid)
            f.write(chunk)
