import hashlib
import os
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from conftest import CHILD_ENV, ONE_CPU, traced_peak
from oracles import filter_depth_reference
from sparseview import depth_filter, synth
from sparseview.cli import run
from sparseview.depth_filter import (
    DepthMap,
    FilterConfig,
    depth_discrepancy,
    filter_depth,
    gradient_discrepancy,
    median_scale,
)
from sparseview.errors import DimensionMismatch, InvalidSpec, NoValidOverlap, TooSmall
from sparseview.synth import SynthSpec, gen_depth_fixture


def smooth_map(rng, h=16, w=16):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return 4.0 + rng.random() * xs / w + rng.random() * ys / h + 0.2 * np.sin(xs / 3.0)


def test_depth_map_is_a_nonempty_2d_float_array():
    d = DepthMap([[1, 2, 3], [4, 5, 6]])
    assert d.values.dtype == np.float64
    assert (d.width, d.height) == (3, 2)
    # a float32 map is kept as the array it is; float64 too; any other is float64
    for dtype in (np.float32, np.float64):
        values = np.ones((2, 3), dtype=dtype)
        assert DepthMap(values).values is values
    for other in (np.ones((2, 3), dtype=np.int32), np.ones((2, 3), dtype=np.float16)):
        assert DepthMap(other).values.dtype == np.float64
    for bad in (np.ones(3), np.ones((0, 3)), np.ones((2, 2, 1))):
        with pytest.raises(ValueError):
            DepthMap(bad)


def scale_of(geom, mono):
    return filter_depth(DepthMap(geom), DepthMap(mono))[1].scale_s


class TestMedianScale:
    def test_constant_maps(self):
        everywhere = np.ones((2, 2), dtype=bool)
        assert median_scale(np.full((2, 2), 4.0), np.full((2, 2), 2.0), everywhere) == 0.5

    def test_identity(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        assert scale_of(a, a) == 1.0

    def test_even_length_median(self):
        geom = [[1.0, 2.0], [3.0, 100.0]]
        mono = [[2.0, 4.0], [6.0, 8.0]]
        # med_geom = 2.5, med_mono = 5
        assert scale_of(geom, mono) == pytest.approx(2.0)

    def test_joint_valid_set_only(self):
        geom = [[1.0, 0.0], [3.0, 9.0]]
        mono = [[2.0, 5.0], [6.0, 0.0]]
        # joint valid pixels: (0,0) and (1,0) -> med_geom 2, med_mono 4
        assert scale_of(geom, mono) == pytest.approx(2.0)

    def test_no_overlap(self):
        with pytest.raises(NoValidOverlap):
            scale_of([[0.0, 1.0]], [[1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            scale_of([[1.0]], [[1.0, 2.0]])


class TestDepthDiscrepancy:
    def test_basic_ratio(self):
        delta = depth_discrepancy(np.array([[10.0]]), np.array([[12.0]]))
        assert delta[0, 0] == pytest.approx(0.2)

    def test_identity_zero(self):
        a = np.array([[3.0, 4.0]])
        assert np.allclose(depth_discrepancy(a, a), 0.0)

    def test_large_ratio(self):
        delta = depth_discrepancy(np.array([[5.0]]), np.array([[20.0]]))
        assert delta[0, 0] == pytest.approx(3.0)

    def test_invalid_prior_pixel_kept(self):
        geom = np.full((3, 3), 5.0)
        geom[1, 1] = 50.0  # a depth outlier, but the prior has no depth there
        mono = np.full((3, 3), 5.0)
        mono[1, 1] = 0.0
        assert depth_discrepancy(geom, mono)[1, 1] > FilterConfig().tau_depth
        filtered, report = filter_depth(DepthMap(geom), DepthMap(mono))
        assert np.array_equal(filtered.values, geom)
        assert report.removed_total == 0 and report.kept == 9


def everywhere(shape):
    return np.ones(shape, dtype=bool)


def scratch(shape):
    """What `gradient_discrepancy` works in: three float64 arrays and two
    bool arrays of `shape`."""
    return (*(np.empty(shape) for _ in range(3)), *(np.empty(shape, dtype=bool) for _ in range(2)))


class TestGradientDiscrepancy:
    def test_constant_maps_zero(self):
        a = np.full((4, 4), 3.0)
        b = np.full((4, 4), 9.0)
        # tau 0 takes the exact path and finds every discrepancy exactly 0
        for tau in (0.0, 1e-9):
            assert not gradient_discrepancy(a, b, tau, everywhere(a.shape), scratch(a.shape)).any()

    def test_scaled_map_zero(self):
        rng = np.random.default_rng(0)
        below = np.nextafter(1e-9, 0.0)  # no True at this tau: every discrepancy < 1e-9
        for _ in range(10):
            base = smooth_map(rng)
            c = rng.uniform(0.2, 5.0)
            assert not gradient_discrepancy(base, c * base, below, everywhere(base.shape),
                                            scratch(base.shape)).any()

    def test_any_memory_layout(self):
        rng = np.random.default_rng(3)
        geom, mono = smooth_map(rng, 9, 24), smooth_map(rng, 9, 24)

        def formula(g, m):
            return np.abs(np.hypot(*np.gradient(m)[::-1]) / m - np.hypot(*np.gradient(g)[::-1]) / g)

        for layout in (np.ascontiguousarray, np.asfortranarray, lambda a: a[:, ::2]):
            g, m = layout(geom), layout(mono)
            tau = float(np.median(formula(g, m)))
            expected = formula(g, m) > tau
            over = gradient_discrepancy(g, m, tau, everywhere(g.shape), scratch(g.shape))
            assert np.array_equal(over, expected)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            scale_of([[1.0, 2.0]], [[1.0, 2.0]])

    def test_error_order(self):
        # a pair with all three faults names the shapes; without the mismatch
        # it names the missing overlap before the size
        with pytest.raises(DimensionMismatch):
            scale_of([[0.0, 0.0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(NoValidOverlap):
            scale_of([[0.0, 0.0]], [[0.0, 0.0]])

    def test_stencil_contamination_kept(self):
        geom = np.full((4, 4), 5.0)
        geom[1, 1] = 0.0  # invalid
        mono = np.full((4, 4), 5.0)
        over = gradient_discrepancy(geom, mono, FilterConfig().tau_grad, everywhere((4, 4)),
                                    scratch((4, 4)))
        # the hole's stencil neighbours see a large gradient, yet have no
        # usable comparison, so they are kept
        for r, c in ((0, 1), (2, 1), (1, 0), (1, 2)):
            assert over[r, c]
        assert not gradient_discrepancy(geom, mono, 0.0, everywhere((4, 4)), scratch((4, 4)))[3, 3]
        filtered, report = filter_depth(DepthMap(geom), DepthMap(mono))
        assert np.array_equal(filtered.values, geom)
        assert report.removed_total == 0 and report.kept == 15


class TestFilterDepth:
    def test_under_threshold_kept(self):
        geom = DepthMap(np.full((4, 4), 10.0))
        mono_vals = np.full((4, 4), 10.0)
        mono_vals[0, 0] = 12.0  # delta 0.2 after s=1 alignment? medians shift s slightly
        mono = DepthMap(mono_vals)
        cfg = FilterConfig(tau_depth=0.25, tau_grad=10.0)
        filtered, report = filter_depth(geom, mono, cfg)
        assert filtered.valid_mask[0, 0]
        assert report.removed_by_depth == 0

    def test_identity_keeps_everything(self):
        rng = np.random.default_rng(1)
        base = smooth_map(rng)
        filtered, report = filter_depth(DepthMap(base), DepthMap(base))
        assert report.removed_total == 0
        assert report.kept == base.size
        assert np.array_equal(filtered.values, base)

    def test_values_preserved_not_scaled(self):
        rng = np.random.default_rng(2)
        base = smooth_map(rng)
        filtered, _ = filter_depth(DepthMap(base), DepthMap(3.0 * base))
        kept = filtered.valid_mask
        assert np.array_equal(filtered.values[kept], base[kept])

    def test_blob_fixture_removed(self):
        spec = SynthSpec(seed=7)
        geom, mono, blob = gen_depth_fixture(spec)
        filtered, report = filter_depth(geom, mono)
        removed = geom.valid_mask & ~filtered.valid_mask
        for r, c in blob:
            assert removed[r, c]
        outside = int(removed.sum()) - len(blob)
        # only blob-border gradient pixels may go besides the blob itself
        assert outside <= 0.02 * (geom.values.size - len(blob))

    def test_zero_area_blob_removes_nothing(self, monkeypatch):
        monkeypatch.setattr(synth, "BLOB_SIZE", (0, 0))
        spec = SynthSpec(seed=7)
        geom, mono, blob = gen_depth_fixture(spec)
        assert blob == set()
        _, report = filter_depth(geom, mono)
        assert report.removed_total == 0

    def test_threshold_monotonicity(self):
        spec = SynthSpec(seed=3)
        geom, mono, _ = gen_depth_fixture(spec)
        _, loose = filter_depth(geom, mono, FilterConfig(tau_depth=0.6, tau_grad=0.3))
        _, tight = filter_depth(geom, mono, FilterConfig(tau_depth=0.1, tau_grad=0.05))
        assert loose.removed_total <= tight.removed_total

    def test_geom_scale_invariant_mask(self):
        spec = SynthSpec(seed=11)
        geom, mono, _ = gen_depth_fixture(spec)
        masks = []
        for factor in (0.1, 1.0, 10.0):
            filtered, _ = filter_depth(DepthMap(geom.values * factor), mono)
            masks.append(filtered.valid_mask)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])

    def test_mono_scale_invariant_mask(self):
        spec = SynthSpec(seed=11)
        geom, mono, _ = gen_depth_fixture(spec)
        masks = []
        for factor in (0.3, 1.0, 2.7):
            filtered, _ = filter_depth(geom, DepthMap(mono.values * factor))
            masks.append(filtered.valid_mask)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])

    def test_report_accounting(self):
        spec = SynthSpec(seed=5)
        geom, mono, _ = gen_depth_fixture(spec)
        _, report = filter_depth(geom, mono)
        assert report.removed_total <= report.removed_by_depth + report.removed_by_grad
        assert report.kept + report.removed_total == int(geom.valid_mask.sum())


# (geom, mono): a scale med(mono)/med(geom) of inf, then of 0.0
OUT_OF_RANGE_SCALES = [
    (np.full((4, 4), 1e-300), np.full((4, 4), 1e300)),
    (np.full((4, 4), 1e300), np.full((4, 4), 1e-300)),
]


@pytest.mark.parametrize("geom,mono", OUT_OF_RANGE_SCALES, ids=["overflow", "underflow"])
def test_scale_outside_float64_raises(geom, mono):
    with pytest.raises(NoValidOverlap, match="scale"):
        filter_depth(DepthMap(geom), DepthMap(mono))


def test_overflow_leaks_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # s = 1e10 overflows the two 1e300 pixels, which leave the valid set and are kept
        geom = np.array([[1e-10, 1e300], [1e-10, 1e-10]] * 2)
        filtered, report = filter_depth(DepthMap(geom), DepthMap(np.ones((4, 2))))
        assert np.array_equal(filtered.values, geom)
        assert report.scale_s == 1e10 and report.removed_total == 0
        # a depth discrepancy that overflows to inf removes its pixel
        geom, mono = np.ones((4, 4)), np.ones((4, 4))
        geom[0, 0], mono[0, 0] = 1e-10, 1e300
        filtered, report = filter_depth(DepthMap(geom), DepthMap(mono))
        assert report.removed_by_depth == 1 and filtered.values[0, 0] == 0.0
        # the kernels called on their own overflow quietly too
        assert depth_discrepancy(geom, mono)[0, 0] == np.inf
        gradient_discrepancy(np.array([[1e308, -1e308], [1.0, 1.0]]), np.ones((2, 2)), 0.1,
                             everywhere((2, 2)), scratch((2, 2)))
        # squares that overflow on the fast path are decided on the exact one
        over = gradient_discrepancy(np.array([[1e308, 1.0], [1.0, 1.0]]), np.ones((2, 2)), 0.1,
                                    everywhere((2, 2)), scratch((2, 2)))
        assert over.tolist() == [[True, True], [True, False]]


def test_config_rejects_nonpositive_thresholds():
    with pytest.raises(InvalidSpec):
        FilterConfig(tau_depth=0.0)
    with pytest.raises(InvalidSpec):
        FilterConfig(tau_grad=-1.0)
    # an infinite threshold would switch its test off
    for name in ("tau_depth", "tau_grad"):
        with pytest.raises(InvalidSpec, match=name):
            FilterConfig(**{name: float("inf")})


def _smooth_pair():
    """A seeded 6x6 pair, every pixel valid, so every pixel is gated."""
    rng = np.random.default_rng(0)
    geom = rng.uniform(1.0, 2.0, (6, 6))
    return geom, geom * rng.uniform(0.8, 1.2, (6, 6))


def _spike_pair():
    """3x3 maps whose one gated pixel is a 1e300 centre over four valid
    neighbours near 1e-13 (the corners are invalid), so its normalized
    gradients are subnormal and 2**-40 (nm + ng) underflows to 0. Both maps
    hold the same values, so s is 1."""
    a, b, c, d = (float.fromhex(x) for x in ("0x1.b87f07a937964p-43", "0x1.2359ae48d0c2ap-43",
                                           "0x1.61b52f675920fp-43", "0x1.6d47e2c5c6ceap-43"))
    geom = np.zeros((3, 3))
    geom[1, 1] = 1e300
    mono = geom.copy()
    geom[0, 1], geom[2, 1], geom[1, 0], geom[1, 2] = a, b, c, d
    mono[0, 1], mono[2, 1], mono[1, 0], mono[1, 2] = a, c, b, d
    return geom, mono


def _fast_and_exact(geom, mono):
    """|d| of the pair by sqrt(gx*gx + gy*gy)/v and by np.hypot(gx, gy)/v."""
    with np.errstate(all="ignore"):  # the spike pair's edges overflow
        (fast_g, exact_g), (fast_m, exact_m) = (
            (np.sqrt(gx * gx + gy * gy) / v, np.hypot(gx, gy) / v)
            for v in (geom, mono) for gy, gx in [np.gradient(v)]
        )
        return np.abs(fast_m - fast_g), np.abs(exact_m - exact_g)


@pytest.mark.parametrize("pair", [_smooth_pair, _spike_pair], ids=["smooth", "subnormal"])
def test_a_discrepancy_at_tau_is_decided_exactly(monkeypatch, pair):
    geom, mono = pair()
    s = filter_depth_reference(geom, mono, 0.25, 0.1)[1]["scale_s"]
    fast, exact = _fast_and_exact(geom * s, mono)
    gated = np.zeros(geom.shape, dtype=bool)
    gated[1:-1, 1:-1] = True  # every pixel of either pair keeps its stencil here
    p = tuple(int(i[0]) for i in np.nonzero(gated & (fast > exact)))
    # a few ulps apart: the fast answer d > tau is True, the exact one False
    tau = exact[p]
    assert fast[p] - tau <= 8 * np.spacing(tau)

    seen = []
    exact_norm_at = depth_filter._exact_norm_at

    def spy(values, pixels):
        seen.extend(zip(*(i.tolist() for i in pixels)))
        return exact_norm_at(values, pixels)

    monkeypatch.setattr(depth_filter, "_exact_norm_at", spy)
    config = FilterConfig(tau_grad=tau)
    filtered, report = filter_depth(DepthMap(geom), DepthMap(mono), config)
    # one band, so the band's pixel coordinates are the map's; each pixel is
    # seen once per map, and at most 4 of them are near tau
    assert p in seen and len(seen) <= 2 * 4
    expected, expected_report = filter_depth_reference(geom, mono, config.tau_depth, tau)
    assert filtered.values.tobytes() == expected.tobytes()
    assert asdict(report) == expected_report


def _float32_sensitive_pair(kind):
    """A float32 pair whose decisions float32 arithmetic would change.
    "overflow": s = 2 scales a 3e38 depth outlier to 6e38, beyond float32's
    range, so in float32 it and its four neighbours' stencils leave the valid
    set and are kept. "underflow": depths near 1e-20 step by about 1e-23, so
    every float32 square of a gradient underflows to 0 and sqrt(gx*gx +
    gy*gy) reads 0 in float32, where the normalized gradients are about 2e-3
    in float64 and equal in the two maps."""
    if kind == "overflow":
        geom = np.full((4, 4), 1e38, dtype=np.float32)
        geom[1, 1] = 3e38
        return geom, np.full((4, 4), 2e38, dtype=np.float32)
    ys, xs = np.mgrid[0:6, 0:7]
    geom = 1.0 + 1e-3 * xs + 2e-3 * ys
    return geom.astype(np.float32), (1e-20 * geom).astype(np.float32)


@pytest.mark.parametrize("kind", ["overflow", "underflow"])
def test_float32_maps_are_decided_in_float64(kind):
    geom, mono = _float32_sensitive_pair(kind)
    config = FilterConfig(tau_grad=1e-4)
    with np.errstate(over="ignore", under="ignore"):
        if kind == "overflow":
            assert np.isinf(geom[1, 1] * np.float32(2.0))
        else:
            gy, gx = np.gradient(mono)
            assert gx.dtype == np.float32 and not np.any(gx * gx) and not np.any(gy * gy)
    filtered, report = filter_depth(DepthMap(geom), DepthMap(mono), config)
    expected, expected_report = filter_depth_reference(
        geom.astype(np.float64), mono.astype(np.float64), config.tau_depth, config.tau_grad
    )
    assert filtered.values.dtype == np.float32
    assert filtered.values.astype(np.float64).tobytes() == expected.tobytes()
    assert asdict(report) == expected_report
    # float64 removes the outlier and its neighbours, and keeps the whole ramp
    removed = (1, 4, 5) if kind == "overflow" else (0, 0, 0)
    assert (report.removed_by_depth, report.removed_by_grad, report.removed_total) == removed


def _write_raw_pfm(path, values):
    """PFM bytes straight from the values, so NaN and inf reach the reader
    (write_pfm encodes every non-finite depth as 0)."""
    grid = np.flipud(np.asarray(values, dtype=np.float64)).astype("<f4")
    height, width = grid.shape
    path.write_bytes(f"Pf\n{width} {height}\n-1.0\n".encode() + grid.tobytes())


def _hand_built_pair():
    """A 7x8 ramp pair with NaN, +-inf, 0 and negative pixels in either map, an
    interior hole in the geometric map whose gradient stencil reaches valid
    pixels, a depth outlier and a local gradient outlier."""
    ys, xs = np.mgrid[0:7, 0:8].astype(np.float64)
    geom = 4.0 + 0.5 * xs + 0.25 * ys
    mono = 2.5 * geom
    geom[0, 0], geom[0, 7], geom[6, 0] = np.nan, np.inf, -np.inf
    geom[6, 7], geom[5, 2] = -3.0, 0.0
    geom[3, 4] = 0.0  # the hole: (2, 4), (4, 4), (3, 3), (3, 5) lose their stencil
    geom[1, 2] *= 1.8  # depth outlier
    geom[5, 5] *= 1.2  # under the default depth threshold, over the gradient one
    mono[2, 6], mono[4, 1], mono[6, 3] = np.nan, 0.0, -np.inf
    return geom, mono


def _tall_pair():
    """A seeded 300x9 pair of float32-representable values, so the PFM round
    trip keeps them, tall enough to cross the filter's band edges: rows 128
    and 256 start a band at 32, 64 or 128 rows a band.
    Each of rows 126-129 and 254-257, around those edges, holds one NaN, 0,
    +-inf or negative pixel in either map; depth and gradient outliers are
    strewn over the whole pair."""
    rng = np.random.default_rng(300)
    ys, xs = np.mgrid[0:300, 0:9].astype(np.float64)
    geom = 3.0 + 0.01 * ys + 0.2 * xs + 0.3 * np.sin(ys / 7.0) + rng.normal(0.0, 0.005, (300, 9))
    mono = 1.7 * geom * (1.0 + rng.normal(0.0, 0.005, (300, 9)))
    geom[rng.random((300, 9)) < 0.04] *= 1.6
    geom[rng.random((300, 9)) < 0.04] *= 1.15
    bad = [np.nan, 0.0, np.inf, -np.inf, -2.0]
    for i, r in enumerate([*range(126, 130), *range(254, 258)]):
        geom[r, rng.integers(9)] = bad[i % 5]
        mono[r, rng.integers(9)] = bad[(i + 2) % 5]
    return geom.astype(np.float32).astype(np.float64), mono.astype(np.float32).astype(np.float64)


FILTER_GOLDEN_DIGEST = "52ce8abfae92cf2fa9ffda72d298d3eea70a86dce4963860038e7b36f7827f84"


def test_filter_depth_golden(tmp_path):
    """sha256 of the output PFM and --report JSON of `filter-depth` at two
    threshold pairs, on two synthetic fixtures, the hand-built pair and the
    tall pair."""
    pairs = []
    for seed in (4, 9):
        fix = tmp_path / f"fix{seed}"
        assert run(["synth", "--kind", "depth", "--seed", str(seed), "--out", str(fix),
                    "--quiet"]) == 0
        pairs.append((fix / "geom.pfm", fix / "mono.pfm"))
    geom, mono = _hand_built_pair()
    _write_raw_pfm(tmp_path / "hand_geom.pfm", geom)
    _write_raw_pfm(tmp_path / "hand_mono.pfm", mono)
    pairs.append((tmp_path / "hand_geom.pfm", tmp_path / "hand_mono.pfm"))
    geom, mono = _tall_pair()
    _write_raw_pfm(tmp_path / "tall_geom.pfm", geom)
    _write_raw_pfm(tmp_path / "tall_mono.pfm", mono)
    pairs.append((tmp_path / "tall_geom.pfm", tmp_path / "tall_mono.pfm"))

    h = hashlib.sha256()
    for i, (g, m) in enumerate(pairs):
        for tau_depth, tau_grad in (("0.25", "0.10"), ("0.12", "0.04")):
            out, report = tmp_path / f"out{i}.pfm", tmp_path / f"report{i}.json"
            assert run(["filter-depth", "--geom", str(g), "--mono", str(m), "--out", str(out),
                        "--report", str(report), "--tau-depth", tau_depth,
                        "--tau-grad", tau_grad, "--quiet"]) == 0
            h.update(out.read_bytes())
            h.update(report.read_bytes())
    assert h.hexdigest() == FILTER_GOLDEN_DIGEST


def _identity_pairs():
    """(geom, mono) arrays: the hand-built pair, both synthetic fixtures of
    the golden test and the tall pair."""
    pairs = [_hand_built_pair(), _tall_pair()]
    for seed in (4, 9):
        geom, mono, _ = gen_depth_fixture(SynthSpec(seed=seed))
        pairs.append((geom.values, mono.values))
    return pairs


def _filtered(pairs, config):
    results = []
    for geom, mono in pairs:
        filtered, report = filter_depth(DepthMap(geom), DepthMap(mono), config)
        results.append((filtered.values.tobytes(), report))
    return results


@pytest.mark.parametrize("config", [FilterConfig(), FilterConfig(tau_depth=0.12, tau_grad=0.04)])
def test_band_height_and_worker_count_change_no_byte(monkeypatch, config):
    pairs = _identity_pairs()
    expected = _filtered(pairs, config)
    # more workers than cores, switching threads as often as the interpreter can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 8):
            monkeypatch.setattr(depth_filter, "_usable_cpus", lambda: workers)
            for rows in (1, 2, 3, 7):
                monkeypatch.setattr(depth_filter, "BAND_ROWS", rows)
                assert _filtered(pairs, config) == expected, f"{workers} workers, {rows} rows"
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and two usable CPUs",
)
def test_one_cpu_gives_the_same_bytes(tmp_path):
    geom, mono = _tall_pair()
    _write_raw_pfm(tmp_path / "geom.pfm", geom)
    _write_raw_pfm(tmp_path / "mono.pfm", mono)
    outputs = []
    for pin in ("", ONE_CPU):
        out = tmp_path / f"out{len(outputs)}.pfm"
        script = pin + "from sparseview.cli import main; main()"
        argv = ["filter-depth", "--geom", str(tmp_path / "geom.pfm"),
                "--mono", str(tmp_path / "mono.pfm"), "--out", str(out), "--quiet"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _hd_pair():
    """A 1080x1920 float32 pair as read from PFMs: a ramp prior, and a
    geometric map at 0.7 times it with 1% outliers that is valid on a
    16-column strip only, as a sparse MVS map may be. The median's masked
    copies are then small, and the output and the bands' scratch set the
    peak."""
    ys, xs = np.mgrid[0:1080, 0:1920]
    mono = (4.0 + xs / 960.0 + ys / 540.0).astype(np.float32)
    geom = mono * np.float32(0.7)
    geom[np.random.default_rng(1080).random(geom.shape) < 0.01] *= np.float32(1.5)
    geom[:, 16:] = 0.0
    return DepthMap(geom), DepthMap(mono)


# One worker's band scratch, in bytes per pixel of its band and two halo
# rows: four float64 arrays and four bool arrays.
SCRATCH_BYTES_PER_PIXEL = 4 * 8 + 4
# what a worker allocates besides its scratch: numpy's iterator buffers of a
# float32 operand taken in float64 (two of 8192 values, 128 KiB), and the few
# pixels of the exact gradient path
WORKER_SLACK = 256 * 1024


def test_filter_depth_holds_its_output_the_median_copies_and_one_band_per_worker(monkeypatch):
    geom, mono = _hd_pair()
    workers = 2
    monkeypatch.setattr(depth_filter, "_usable_cpus", lambda: workers)
    (out, report), peak = traced_peak(lambda: filter_depth(geom, mono))
    joint = int(np.count_nonzero(geom.valid_mask & mono.valid_mask))
    scratch = (depth_filter.BAND_ROWS + 2) * geom.width * SCRATCH_BYTES_PER_PIXEL
    bound = out.values.nbytes + joint * 4 + workers * (scratch + WORKER_SLACK)
    # bound 7.91 + 0.07 + 2 * (2.24 + 0.25) MiB, traced 12.64 MiB; one
    # whole-map mask held across the bands adds 1.98 MiB and breaks it
    assert peak <= bound, f"filter_depth peaked at {peak} bytes, bound {bound}"
    assert report.removed_total > 0


def _dense_hd_pair():
    """`_hd_pair` valid everywhere but a 200x300 hole, so each median copies
    nearly the whole map."""
    ys, xs = np.mgrid[0:1080, 0:1920]
    mono = (4.0 + xs / 960.0 + ys / 540.0).astype(np.float32)
    geom = mono * np.float32(0.7)
    geom[np.random.default_rng(1080).random(geom.shape) < 0.01] *= np.float32(1.5)
    geom[400:600, 800:1100] = 0.0
    return geom, mono


def test_median_scale_holds_one_masked_copy_at_a_time():
    geom, mono = _dense_hd_pair()
    joint = np.isfinite(geom) & (geom > 0)
    s, peak = traced_peak(lambda: median_scale(geom, mono, joint))
    copy = int(np.count_nonzero(joint)) * 4
    # traced 3 KiB over one copy; the two medians taken at once hold two
    # copies, 7.7 MiB each
    assert peak <= copy + 64 * 1024, f"median_scale peaked at {peak} bytes, one copy is {copy}"
    assert s == float(np.median(mono[joint].astype(np.float64))
                      / np.median(geom[joint].astype(np.float64)))


def test_a_band_computes_in_its_scratch_alone(monkeypatch):
    # bands taller than the default, so numpy's iterator buffers stay under
    # the smallest array of a band's size
    rows = 128
    monkeypatch.setattr(depth_filter, "BAND_ROWS", rows)
    geom, mono = _dense_hd_pair()
    joint = np.isfinite(geom) & (geom > 0)
    s = median_scale(geom, mono, joint)
    width = geom.shape[1]
    scratch = depth_filter._band_scratch(rows + 2, width)
    assert sum(a.nbytes for a in scratch) == (rows + 2) * width * SCRATCH_BYTES_PER_PIXEL
    out = np.zeros_like(geom)
    # rows 384-511 cross the hole, with a halo row on either side
    counts, peak = traced_peak(
        lambda: depth_filter._filter_band(geom, mono, s, FilterConfig(), out, scratch, 384))
    assert 0 < counts[2] < rows * width
    # the smallest array of the band's size: one bool per pixel of its rows
    assert peak < rows * width, f"a band allocated {peak} bytes besides its scratch"


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as f:
            return any(line.startswith("VmHWM:") for line in f)
    except OSError:
        return False


# four filter-depth calls in one process; prints VmHWM in KiB after each
REPEATED_CALLS = """
import sys
from sparseview.cli import run

geom, mono, out = sys.argv[1:]
for _ in range(4):
    assert run(["filter-depth", "--geom", geom, "--mono", mono, "--out", out, "--quiet"]) == 0
    with open("/proc/self/status") as f:
        print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_repeated_calls_peak_where_the_first_did(tmp_path):
    """A call's memory is its own: the fourth filter-depth call in a process
    peaks within 2 MiB of the first, where glibc's per-thread arenas used to
    keep band-sized temporaries from earlier calls."""
    from sparseview.pfm import write_pfm

    geom, mono = _dense_hd_pair()
    write_pfm(str(tmp_path / "geom.pfm"), DepthMap(geom))
    write_pfm(str(tmp_path / "mono.pfm"), DepthMap(mono))
    proc = subprocess.run(
        [sys.executable, "-c", REPEATED_CALLS, str(tmp_path / "geom.pfm"),
         str(tmp_path / "mono.pfm"), str(tmp_path / "out.pfm")],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    peaks = [int(kib) / 1024 for kib in proc.stdout.split()]
    assert len(peaks) == 4
    assert peaks[3] - peaks[0] <= 2.0, f"VmHWM after each call, MiB: {peaks}"
