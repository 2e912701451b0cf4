"""Monocular-guided filtering of multi-view-stereo depth maps.

The geometric depth is aligned to the monocular prior by a global scale
s = med(mono) / med(geom) over jointly valid pixels, then pixels are rejected
where either the normalized depth discrepancy

    |s*geom - mono| / (s*geom)

or the normalized gradient discrepancy

    | |grad(mono)|/mono - |grad(s*geom)|/(s*geom) |

exceeds its threshold. The prior is guidance only: surviving pixels keep
their original (unscaled) depth values.

The gradient test decides |n(mono) - n(s*geom)| > tau_grad, with
n = hypot(gx, gy)/v over np.gradient's (gy, gx), bit for bit as that float64
formula does, but runs libm's hypot only where the answer is close. A fast
n = sqrt(gx*gx + gy*gy)/v gives d = |nm - ng|, and its answer d > tau stands
wherever |d - tau| > 2**-40 (nm + ng), a bound on the two paths' difference
derived next to `gradient_discrepancy`. np.hypot runs on the few pixels
inside it, on any whose fast value overflowed, and on a whole band whose tau,
or gated depths against tau, are so small that underflow could matter.

A map is held in the dtype it arrives in: float32 as a PFM stores it,
float64 from anything else. The validity masks and the medians work on the
stored values, which float64 holds exactly, and every band step that
computes takes a float64 loop over them (the scaling, the differences and
the divisions), so every comparison is made in float64 and no float64 copy
of a map is made: a float32 map gives the bytes and report the same map
cast to float64 gives, and the output keeps the input's dtype.

`filter_depth` holds whole-map masks only until the median scale is known,
and takes the two medians one after the other, so one masked copy is live
at a time. The map is then filtered in bands of `BAND_ROWS` rows on a
thread pool with one worker per CPU this process may run on (numpy
releases the GIL in these kernels). Each worker draws band starts from one
shared iterator and computes every band-sized step into a scratch set the
calling thread allocated for it once per call, so no band allocates an
array of its own size. Each band works out the masks of its own rows; the
depth kernel computes on every pixel, and only pixels with a usable
comparison count. Each band also reads one halo row above and below, so
the gradients and their stencils see the same neighbours as on the whole
map: the output bytes do not depend on the band height or the worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _usable_cpus
from .errors import DimensionMismatch, InvalidSpec, NoValidOverlap, TooSmall


def _valid(values: np.ndarray, out: np.ndarray | None = None,
           tmp: np.ndarray | None = None) -> np.ndarray:
    """isfinite(values) & (values > 0), into `out` with `tmp` as scratch
    (new arrays where None)."""
    valid = np.isfinite(values, out=out)
    valid &= np.greater(values, 0, out=tmp)
    return valid


@dataclass
class DepthMap:
    """Row-major depth grid; a pixel is valid iff its value is finite and > 0.
    A float32 array (as a PFM stores it) is kept as given and any other input
    becomes float64; the filter compares in float64 either way."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        self.values = values
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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidSpec(f"{name} must be a finite number > 0, got {value!r}")


@dataclass
class FilterReport:
    scale_s: float
    removed_by_depth: int
    removed_by_grad: int
    removed_total: int
    kept: int


def _masked_median(values: np.ndarray, mask: np.ndarray) -> np.float64:
    """np.median of values[mask] taken in float64, with no float64 copy: the
    stored dtype is partitioned, and the middle one or two values are
    averaged by np.mean in float64, as np.median averages a float64 array.
    `mask` selects at least one value and no NaN."""
    picked = values[mask]  # this call's own copy, so the partition may reorder it
    half = picked.size // 2
    picked.partition(half)
    middle = [picked[half]]
    if picked.size % 2 == 0:
        # the lower middle value is the largest of the partition's lower half,
        # found without a second selection pass
        middle.insert(0, picked[:half].max())
    return np.mean(np.array(middle, dtype=np.float64))


def median_scale(geom: np.ndarray, mono: np.ndarray, joint: np.ndarray) -> float:
    """Scale aligning geometric depth to the monocular prior,
    med(mono)/med(geom) over the pixels `joint` selects (all valid in both).
    The medians are taken one after the other on the calling thread, so one
    masked copy is live at a time. A ratio that overflows or underflows
    float64 raises NoValidOverlap."""
    med_geom = _masked_median(geom, joint)
    med_mono = _masked_median(mono, joint)
    with np.errstate(over="ignore", under="ignore"):
        s = float(med_mono / med_geom)
    if not (math.isfinite(s) and s > 0):
        raise NoValidOverlap(f"scale med(mono)/med(geom) = {s!r} is not a positive finite number")
    return s


def depth_discrepancy(
    geom: np.ndarray, mono: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Normalized |geom - mono| / geom at every pixel, taken in float64 into
    `out` (a new array where None); meaningful only where both maps are
    valid. A ratio beyond float64 is inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = np.subtract(geom, mono, out=out, dtype=np.float64)
        np.abs(delta, out=delta)
        return np.divide(delta, geom, out=delta)


def _stencil_valid(valid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pixels whose central/one-sided difference stencil touches only valid
    pixels, along both axes, into the bool array `out`."""
    out.fill(True)
    for axis in (0, 1):
        v, o = np.moveaxis(valid, axis, 0), np.moveaxis(out, axis, 0)  # o is a view of out
        # each neighbour in turn, so no step makes a temporary
        o[1:-1] &= v[2:]
        o[1:-1] &= v[:-2]
        for edge, inner in ((0, 1), (-1, -2)):
            o[edge] &= v[edge]
            o[edge] &= v[inner]
    return out


def _axis_gradient(values: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """np.gradient's unit-spacing difference of `values` along `axis`, taken
    in float64 into the C-ordered float64 `out` (so g below is a view):
    (f[i+1] - f[i-1]) / 2.0 inside, f[1] - f[0] and f[-1] - f[-2] at the
    edges (np.gradient divides those by 1.0)."""
    # inside: one pass over the flat arrays, neighbours `step` elements apart;
    # along rows it also writes across row ends, which the edges overwrite
    step = values.shape[1] if axis == 0 else 1
    f, g = values.ravel(), out.ravel()
    np.subtract(f[2 * step :], f[: -2 * step], out=g[step:-step], dtype=np.float64)
    g[step:-step] *= 0.5  # the same bits as / 2.0
    f, g = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[1], f[0], out=g[0], dtype=np.float64)
    np.subtract(f[-1], f[-2], out=g[-1], dtype=np.float64)
    return out


def _gradient_norm(values: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sqrt(gx*gx + gy*gy) / values at every pixel, in float64, into `out`;
    gy is taken in `tmp`."""
    norm = _axis_gradient(values, 1, out)
    norm *= norm
    gy = _axis_gradient(values, 0, tmp)
    gy *= gy
    norm += gy
    np.sqrt(norm, out=norm)
    return np.divide(norm, values, out=norm)


def _exact_norm_at(values: np.ndarray, pixels: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """np.hypot(gx, gy) / values at the given (row, column) pixels, each
    difference taken as `_axis_gradient` takes it on the whole array."""
    def difference(axis):
        i, n = pixels[axis], values.shape[axis]
        ahead, behind = list(pixels), list(pixels)
        ahead[axis], behind[axis] = np.minimum(i + 1, n - 1), np.maximum(i - 1, 0)
        # a step of 2 inside, 1 at an edge
        delta = np.subtract(values[tuple(ahead)], values[tuple(behind)], dtype=np.float64)
        return delta / (ahead[axis] - behind[axis])

    return np.hypot(difference(1), difference(0)) / values[pixels]


# The fast answer d > tau, from d = |nm - ng| with n = sqrt(gx*gx + gy*gy) / v,
# is the exact one (np.hypot in place of sqrt) wherever
#     |d - tau| > margin = (nm + ng) * 2**-40,
# provided tau >= _MIN_TAU and tau * vmin >= _MIN_TAU_DEPTH, vmin the smallest
# depth `where` selects; otherwise every selected pixel takes the exact path.
# - Rounding. Both paths share gx, gy and v, and with u = 2**-53 each n is
#   within 3u n of |(gx, gy)| / v: the squares, their sum and the sqrt, or
#   libm hypot's 1 ulp, then the division. With the roundings of nm - ng and
#   d - tau the two d differ by about 12u (nm + ng) at most, far under the
#   margin however much nm - ng cancels.
# - Underflow. A square under 2**-1022 is off by up to 2**-1075, which moves
#   sqrt by up to 2**-537; a subnormal hypot is off by up to 2**-1074; either
#   moves n by that over v. A subnormal quotient n is off by up to 2**-1075.
#   Under the guard these terms sum to less than 2**-55 tau, so they can flip
#   only a d within 2**-54 tau of tau, and there nm + ng >= d > tau / 2 puts
#   the margin far above them.
# - Overflow. A square or a sum that overflows makes n, d or the margin inf
#   or NaN, and `~(|d - tau| > margin)` sends that pixel to the exact path.
_MARGIN = 2.0**-40
_MIN_TAU = 2.0**-900
_MIN_TAU_DEPTH = 2.0**-480


def gradient_discrepancy(
    geom: np.ndarray,
    mono: np.ndarray,
    tau: float,
    where: np.ndarray,
    scratch: tuple[np.ndarray, ...],
) -> np.ndarray:
    """True where `where` holds and the normalized gradient discrepancy
    |hypot(grad mono)/mono - hypot(grad geom)/geom| exceeds `tau` (finite,
    >= 0), decided bit for bit as that float64 formula decides it, gradients
    as np.gradient takes them. np.hypot runs only on pixels whose fast
    answer is within the margin above. Both dimensions must be at least 2.
    `scratch` is three C-ordered float64 arrays and two bool arrays of
    `where`'s shape that the call works in; the answer is the first bool
    array."""
    nm, ng, tmp, over, near = scratch
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        vmin = np.minimum(np.min(geom, where=where, initial=np.inf),
                          np.min(mono, where=where, initial=np.inf))
        # False on a NaN or nonpositive depth too
        if tau >= _MIN_TAU and tau * vmin >= _MIN_TAU_DEPTH:
            _gradient_norm(mono, nm, tmp)
            _gradient_norm(geom, ng, tmp)
            margin = np.add(nm, ng, out=tmp)
            margin *= _MARGIN
            d = np.subtract(nm, ng, out=nm)
            np.abs(d, out=d)
            np.greater(d, tau, out=over)
            d -= tau
            np.abs(d, out=d)
            np.greater(d, margin, out=near)
            np.greater(where, near, out=near)  # where & ~(|d - tau| > margin)
            over &= where
        else:
            over.fill(False)
            near = where
        if near.any():
            pixels = np.nonzero(near)
            exact = np.abs(_exact_norm_at(mono, pixels) - _exact_norm_at(geom, pixels))
            over[pixels] = exact > tau
    return over


# The one band height of the depth pipeline: `pfm` reads and writes maps in
# bands of these rows too. A worker's scratch is four float64 and four bool
# arrays of its band's rows and halo, allocated once per call. Measured on
# the bench's 1080p pairs (2 vCPUs, two workers, 4 runs), peak RSS of a
# two-call filter-depth round and two filter_depth calls' median time,
# 16 / 32 / 64 rows: 56.5-56.9 / 58.7-59.0 / 62.9-63.1 MiB and
# 90-99 / 72-84 / 75-86 ms
BAND_ROWS = 32


def _band_scratch(rows: int, width: int) -> tuple[np.ndarray, ...]:
    """One worker's scratch for bands of up to `rows` rows, halo included:
    four float64 arrays, then four bool arrays, each C-ordered."""
    return (*(np.empty((rows, width)) for _ in range(4)),
            *(np.empty((rows, width), dtype=bool) for _ in range(4)))


def _filter_band(
    geom: np.ndarray,
    mono: np.ndarray,
    s: float,
    config: FilterConfig,
    out: np.ndarray,
    scratch: tuple[np.ndarray, ...],
    r0: int,
) -> tuple[int, int, int]:
    """Filter rows [r0, r0 + BAND_ROWS) of `geom` into the same rows of `out`,
    computing in `scratch` (`_band_scratch`, for at least the band and its
    halo); returns the band's (removed_by_depth, removed_by_grad,
    removed_total)."""
    height = geom.shape[0]
    r1 = min(r0 + BAND_ROWS, height)
    lo, hi = max(r0 - 1, 0), min(r1 + 1, height)
    rows = slice(r0 - lo, r1 - lo)  # the band's own rows inside its halo
    scaled, nm, ng, tmp, joint, gated, by_depth, near = (a[: hi - lo] for a in scratch)
    mono = mono[lo:hi]
    # numpy's error state is per thread; scaling can overflow or underflow a
    # pixel out of the valid set (a float32 * s would stay float32)
    with np.errstate(over="ignore", under="ignore"):
        np.multiply(geom[lo:hi], s, out=scaled, dtype=np.float64)
    _valid(scaled, joint, gated)
    joint &= _valid(mono, gated, near)
    by_depth = np.greater(depth_discrepancy(scaled[rows], mono[rows], nm[rows]),
                          config.tau_depth, out=by_depth[rows])
    by_depth &= joint[rows]
    gated = _stencil_valid(joint, gated)
    gated &= joint  # the stencil of an AND is the AND of stencils
    gated[: rows.start] = False  # the halo rows are the neighbouring bands'
    gated[rows.stop :] = False
    # joint is spent, so its array takes the gradient test's answer
    by_grad = gradient_discrepancy(scaled, mono, config.tau_grad, gated,
                                   (nm, ng, tmp, joint, near))[rows]
    removed = np.logical_or(by_depth, by_grad, out=near[rows])
    np.copyto(out[r0:r1], geom[r0:r1])
    np.copyto(out[r0:r1], 0.0, where=removed)
    return tuple(int(np.count_nonzero(m)) for m in (by_depth, by_grad, removed))


def filter_depth(
    d_geom: DepthMap, d_mono: DepthMap, config: FilterConfig = FilterConfig()
) -> tuple[DepthMap, FilterReport]:
    """Invalidate geometric-depth pixels inconsistent with the prior.

    Surviving pixels keep their original depth; removed pixels become 0.
    A pixel with no usable comparison (prior invalid there, or gradient
    stencil contaminated) is kept. The filtered map has `d_geom`'s dtype.
    """
    geom, mono = d_geom.values, d_mono.values
    if geom.shape != mono.shape:
        raise DimensionMismatch(
            f"{d_geom.width}x{d_geom.height} vs {d_mono.width}x{d_mono.height}"
        )
    # the only whole-map mask, dropped once the scale is known
    joint = d_geom.valid_mask
    valid_geom_count = int(np.count_nonzero(joint))
    joint &= d_mono.valid_mask
    if not joint.any():
        raise NoValidOverlap("no jointly valid pixels")
    if min(geom.shape) < 2:
        raise TooSmall("gradients need width and height >= 2")

    s = median_scale(geom, mono, joint)
    del joint
    out = np.empty_like(geom)
    height, width = geom.shape
    starts = range(0, height, BAND_ROWS)
    # every worker's scratch comes from this thread, once per call
    scratches = [_band_scratch(min(BAND_ROWS + 2, height), width)
                 for _ in range(min(_usable_cpus(), len(starts)))]
    band = partial(_filter_band, geom, mono, s, config, out)
    shared = iter(starts)  # each start goes to the first worker that asks

    def work(scratch):
        return [band(scratch, r0) for r0 in shared]

    with ThreadPoolExecutor(len(scratches)) as pool:
        counts = [c for done in pool.map(work, scratches) for c in done]
    by_depth, by_grad, removed_total = map(sum, zip(*counts))

    report = FilterReport(
        scale_s=s,
        removed_by_depth=by_depth,
        removed_by_grad=by_grad,
        removed_total=removed_total,
        kept=valid_geom_count - removed_total,
    )
    return DepthMap(out), report
