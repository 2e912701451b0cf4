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
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NoValidOverlap, TooSmall


def _valid(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (values > 0)


@dataclass
class DepthMap:
    """Row-major depth grid; a pixel is valid iff its value is finite and > 0."""

    values: np.ndarray

    def __post_init__(self):
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


def median_scale(geom: np.ndarray, mono: np.ndarray, joint: np.ndarray) -> float:
    """Scale aligning geometric depth to the monocular prior,
    med(mono)/med(geom) over the pixels `joint` selects (all valid in both)."""
    return float(np.median(mono[joint]) / np.median(geom[joint]))


def depth_discrepancy(geom: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Normalized |geom - mono| / geom at every pixel; meaningful only where
    both maps are valid."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(geom - mono) / geom


def _stencil_valid(valid: np.ndarray) -> np.ndarray:
    """Pixels whose central/one-sided difference stencil touches only valid
    pixels, along both axes."""
    ok = np.ones_like(valid)
    for axis in (0, 1):
        v, o = np.moveaxis(valid, axis, 0), np.moveaxis(ok, axis, 0)  # o is a view of ok
        o[1:-1] &= v[2:] & v[:-2]
        o[0] &= v[0] & v[1]
        o[-1] &= v[-1] & v[-2]
    return ok


def _normalized_gradient(values: np.ndarray) -> np.ndarray:
    gy, gx = np.gradient(values)
    return np.hypot(gx, gy) / values


def gradient_discrepancy(geom: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Difference of normalized gradient magnitudes at every pixel; meaningful
    only where both maps are valid and so is every pixel of the difference
    stencil. Both dimensions must be at least 2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(_normalized_gradient(mono) - _normalized_gradient(geom))


def filter_depth(
    d_geom: DepthMap, d_mono: DepthMap, config: FilterConfig = FilterConfig()
) -> tuple[DepthMap, FilterReport]:
    """Invalidate geometric-depth pixels inconsistent with the prior.

    Surviving pixels keep their original depth; removed pixels become 0.
    A pixel with no usable comparison (prior invalid there, or gradient
    stencil contaminated) is kept.
    """
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
    scaled = geom * s
    valid_scaled = _valid(scaled)
    # scaling can overflow or underflow a pixel out of the valid set
    joint = valid_scaled & valid_mono
    by_depth = joint & (depth_discrepancy(scaled, mono) > config.tau_depth)
    by_grad = joint & _stencil_valid(valid_scaled) & _stencil_valid(valid_mono)
    by_grad &= gradient_discrepancy(scaled, mono) > config.tau_grad
    removed = by_depth | by_grad

    removed_total = int(removed.sum())
    report = FilterReport(
        scale_s=s,
        removed_by_depth=int(by_depth.sum()),
        removed_by_grad=int(by_grad.sum()),
        removed_total=removed_total,
        kept=int(valid_geom.sum()) - removed_total,
    )
    return DepthMap(np.where(removed, 0.0, geom)), report
