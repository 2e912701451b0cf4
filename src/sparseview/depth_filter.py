"""Monocular-guided filtering of multi-view-stereo depth maps.

The geometric depth is aligned to the monocular prior by a global scale
s = med(mono) / med(geom) over jointly valid pixels, then pixels are rejected
where either the normalized depth discrepancy

    |s*geom - mono| / (s*geom)

or the normalized gradient discrepancy

    | |grad(mono)|/mono - |grad(s*geom)|/(s*geom) |

exceeds its threshold. The prior is guidance only: surviving pixels keep
their original (unscaled) depth values.

`filter_depth` works out each map's validity mask once; the discrepancy
kernels compute on every pixel, and only pixels with a usable comparison
count. The map is filtered in bands of `BAND_ROWS` rows on a thread pool
with one worker per CPU this process may run on (numpy releases the GIL in
these kernels). Each band also reads one halo row above and below, so the
gradients and their stencils see the same neighbours as on the whole map:
the output bytes do not depend on the band height or the worker count.

numpy (and its BLAS thread pool) is imported inside the functions that
compute with it, so importing this module, or the CLI, loads neither.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, InvalidSpec, NoValidOverlap, TooSmall

if TYPE_CHECKING:
    import numpy as np


def _valid(values: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.isfinite(values) & (values > 0)


@dataclass
class DepthMap:
    """Row-major depth grid; a pixel is valid iff its value is finite and > 0."""

    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError(f"depth map must be a non-empty 2-D array, not {self.values.shape}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return _valid(self.values)


@dataclass(frozen=True)
class FilterConfig:
    # thresholds are implementation defaults tuned on the synthetic fixtures
    tau_depth: float = 0.25
    tau_grad: float = 0.10

    def __post_init__(self):
        for name in ("tau_depth", "tau_grad"):
            if not getattr(self, name) > 0:
                raise InvalidSpec(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass
class FilterReport:
    scale_s: float
    removed_by_depth: int
    removed_by_grad: int
    removed_total: int
    kept: int


def _masked_median(values: np.ndarray, mask: np.ndarray) -> np.floating:
    import numpy as np

    # the masked copy is this call's own, so the median may reorder it
    return np.median(values[mask], overwrite_input=True)


def median_scale(geom: np.ndarray, mono: np.ndarray, joint: np.ndarray) -> float:
    """Scale aligning geometric depth to the monocular prior,
    med(mono)/med(geom) over the pixels `joint` selects (all valid in both).
    The two medians run concurrently. A ratio that overflows or underflows
    float64 raises NoValidOverlap."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    with ThreadPoolExecutor(1) as pool:
        med_geom = pool.submit(_masked_median, geom, joint)
        med_mono = _masked_median(mono, joint)
        with np.errstate(over="ignore", under="ignore"):
            s = float(med_mono / med_geom.result())
    if not (math.isfinite(s) and s > 0):
        raise NoValidOverlap(f"scale med(mono)/med(geom) = {s!r} is not a positive finite number")
    return s


def depth_discrepancy(geom: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Normalized |geom - mono| / geom at every pixel; meaningful only where
    both maps are valid. A ratio beyond float64 is inf."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.abs(geom - mono) / geom


def _stencil_valid(valid: np.ndarray) -> np.ndarray:
    """Pixels whose central/one-sided difference stencil touches only valid
    pixels, along both axes."""
    import numpy as np

    ok = np.ones_like(valid)
    for axis in (0, 1):
        v, o = np.moveaxis(valid, axis, 0), np.moveaxis(ok, axis, 0)  # o is a view of ok
        o[1:-1] &= v[2:] & v[:-2]
        o[0] &= v[0] & v[1]
        o[-1] &= v[-1] & v[-2]
    return ok


def _normalized_gradient(values: np.ndarray) -> np.ndarray:
    import numpy as np

    gy, gx = np.gradient(values)
    return np.hypot(gx, gy) / values


def gradient_discrepancy(geom: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Difference of normalized gradient magnitudes at every pixel; meaningful
    only where both maps are valid and so is every pixel of the difference
    stencil. Both dimensions must be at least 2."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.abs(_normalized_gradient(mono) - _normalized_gradient(geom))


BAND_ROWS = 128  # 64 loses most of the two-thread gain; half maps raise the peak


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _filter_band(
    geom: np.ndarray,
    mono: np.ndarray,
    valid_mono: np.ndarray,
    s: float,
    config: FilterConfig,
    out: np.ndarray,
    r0: int,
) -> tuple[int, int, int]:
    """Filter rows [r0, r0 + BAND_ROWS) of `geom` into the same rows of `out`;
    returns the band's (removed_by_depth, removed_by_grad, removed_total)."""
    import numpy as np

    height = geom.shape[0]
    r1 = min(r0 + BAND_ROWS, height)
    lo, hi = max(r0 - 1, 0), min(r1 + 1, height)
    rows = slice(r0 - lo, r1 - lo)  # the band's own rows inside its halo
    mono, valid_mono = mono[lo:hi], valid_mono[lo:hi]
    # numpy's error state is per thread; scaling can overflow or underflow a
    # pixel out of the valid set
    with np.errstate(over="ignore", under="ignore"):
        scaled = geom[lo:hi] * s
    valid_scaled = _valid(scaled)
    joint = (valid_scaled & valid_mono)[rows]
    by_depth = joint & (depth_discrepancy(scaled[rows], mono[rows]) > config.tau_depth)
    by_grad = joint & _stencil_valid(valid_scaled)[rows] & _stencil_valid(valid_mono)[rows]
    by_grad &= gradient_discrepancy(scaled, mono)[rows] > config.tau_grad
    removed = by_depth | by_grad
    out[r0:r1] = np.where(removed, 0.0, geom[r0:r1])
    return tuple(int(np.count_nonzero(m)) for m in (by_depth, by_grad, removed))


def filter_depth(
    d_geom: DepthMap, d_mono: DepthMap, config: FilterConfig = FilterConfig()
) -> tuple[DepthMap, FilterReport]:
    """Invalidate geometric-depth pixels inconsistent with the prior.

    Surviving pixels keep their original depth; removed pixels become 0.
    A pixel with no usable comparison (prior invalid there, or gradient
    stencil contaminated) is kept.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    geom, mono = d_geom.values, d_mono.values
    if geom.shape != mono.shape:
        raise DimensionMismatch(
            f"{d_geom.width}x{d_geom.height} vs {d_mono.width}x{d_mono.height}"
        )
    valid_geom, valid_mono = d_geom.valid_mask, d_mono.valid_mask
    joint = valid_geom & valid_mono
    if not joint.any():
        raise NoValidOverlap("no jointly valid pixels")
    if min(geom.shape) < 2:
        raise TooSmall("gradients need width and height >= 2")

    s = median_scale(geom, mono, joint)
    out = np.empty_like(geom)
    starts = range(0, geom.shape[0], BAND_ROWS)
    band = partial(_filter_band, geom, mono, valid_mono, s, config, out)
    with ThreadPoolExecutor(min(_usable_cpus(), len(starts))) as pool:
        by_depth, by_grad, removed_total = map(sum, zip(*pool.map(band, starts)))

    report = FilterReport(
        scale_s=s,
        removed_by_depth=by_depth,
        removed_by_grad=by_grad,
        removed_total=removed_total,
        kept=int(np.count_nonzero(valid_geom)) - removed_total,
    )
    return DepthMap(out), report
