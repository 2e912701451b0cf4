"""Monocular-guided filtering of multi-view-stereo depth maps.

The geometric depth is aligned to the monocular prior by a global scale
s = med(mono) / med(geom) over jointly valid pixels, then pixels are rejected
where either the normalized depth discrepancy

    |s*geom - mono| / (s*geom)

or the normalized gradient discrepancy

    | |grad(mono)|/mono - |grad(s*geom)|/(s*geom) |

exceeds its threshold. The prior is guidance only: surviving pixels keep
their original (unscaled) depth values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NoValidOverlap, TooSmall


@dataclass
class DepthMap:
    """Row-major depth grid; a pixel is valid iff its value is finite and > 0."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("depth map dimensions must be positive")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.height, self.width):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.height}, {self.width})"
            )

    @property
    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values) & (self.values > 0)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "DepthMap":
        values = np.asarray(values, dtype=np.float64)
        return cls(width=values.shape[1], height=values.shape[0], values=values)


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


def _check_dims(a: DepthMap, b: DepthMap) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatch(
            f"{a.width}x{a.height} vs {b.width}x{b.height}"
        )


def median_scale(d_geom: DepthMap, d_mono: DepthMap) -> float:
    """Scale aligning geometric depth to the monocular prior,
    med(mono)/med(geom) over the jointly valid pixel set."""
    _check_dims(d_geom, d_mono)
    joint = d_geom.valid_mask & d_mono.valid_mask
    if not joint.any():
        raise NoValidOverlap("no jointly valid pixels")
    return float(np.median(d_mono.values[joint]) / np.median(d_geom.values[joint]))


def depth_discrepancy(d_geom_scaled: DepthMap, d_mono: DepthMap) -> np.ndarray:
    """Normalized |scaled_geom - mono| / scaled_geom; NaN where either map
    is invalid."""
    _check_dims(d_geom_scaled, d_mono)
    joint = d_geom_scaled.valid_mask & d_mono.valid_mask
    out = np.full(d_geom_scaled.values.shape, np.nan)
    g = d_geom_scaled.values[joint]
    m = d_mono.values[joint]
    out[joint] = np.abs(g - m) / g
    return out


def _stencil_valid(valid: np.ndarray) -> np.ndarray:
    """Pixels whose central/one-sided difference stencil touches only valid
    pixels, along both axes."""
    ok = np.zeros_like(valid)
    for axis in (0, 1):
        v = np.moveaxis(valid, axis, 0)
        o = np.empty_like(v)
        o[1:-1] = v[2:] & v[:-2]
        o[0] = v[0] & v[1]
        o[-1] = v[-1] & v[-2]
        if axis == 0:
            ok = o
        else:
            ok &= np.moveaxis(o, 0, axis)
    return ok


def _normalized_gradient(values: np.ndarray) -> np.ndarray:
    gy, gx = np.gradient(values)
    return np.hypot(gx, gy) / values


def gradient_discrepancy(d_geom_scaled: DepthMap, d_mono: DepthMap) -> np.ndarray:
    """Difference of normalized gradient magnitudes; NaN where invalid or
    where the difference stencil touches an invalid pixel."""
    _check_dims(d_geom_scaled, d_mono)
    if d_geom_scaled.width < 2 or d_geom_scaled.height < 2:
        raise TooSmall("gradients need width and height >= 2")
    vg, vm = d_geom_scaled.valid_mask, d_mono.valid_mask
    ok = vg & vm & _stencil_valid(vg) & _stencil_valid(vm)
    with np.errstate(divide="ignore", invalid="ignore"):
        rg = _normalized_gradient(d_geom_scaled.values)
        rm = _normalized_gradient(d_mono.values)
        delta = np.abs(rm - rg)
    out = np.full(delta.shape, np.nan)
    out[ok] = delta[ok]
    return out


def filter_depth(
    d_geom: DepthMap, d_mono: DepthMap, config: FilterConfig = FilterConfig()
) -> tuple[DepthMap, FilterReport]:
    """Invalidate geometric-depth pixels inconsistent with the prior.

    Surviving pixels keep their original depth; removed pixels become 0.
    A pixel with no usable comparison (prior invalid there, or gradient
    stencil contaminated) is kept.
    """
    s = median_scale(d_geom, d_mono)
    scaled = DepthMap.from_array(d_geom.values * s)
    delta = depth_discrepancy(scaled, d_mono)
    delta_grad = gradient_discrepancy(scaled, d_mono)

    by_depth = ~np.isnan(delta) & (delta > config.tau_depth)
    by_grad = ~np.isnan(delta_grad) & (delta_grad > config.tau_grad)
    removed = by_depth | by_grad

    out_values = np.where(removed, 0.0, d_geom.values)
    initially_valid = int(d_geom.valid_mask.sum())
    report = FilterReport(
        scale_s=s,
        removed_by_depth=int(by_depth.sum()),
        removed_by_grad=int(by_grad.sum()),
        removed_total=int(removed.sum()),
        kept=initially_valid - int(removed.sum()),
    )
    return DepthMap.from_array(out_values), report
