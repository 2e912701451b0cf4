import hashlib

import numpy as np
import pytest

from sparseview import synth
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
from sparseview.synth import SynthKind, SynthSpec, gen_depth_fixture


def smooth_map(rng, h=16, w=16):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return 4.0 + rng.random() * xs / w + rng.random() * ys / h + 0.2 * np.sin(xs / 3.0)


def test_depth_map_is_a_nonempty_2d_float_array():
    d = DepthMap([[1, 2, 3], [4, 5, 6]])
    assert d.values.dtype == np.float64
    assert (d.width, d.height) == (3, 2)
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


class TestGradientDiscrepancy:
    def test_constant_maps_zero(self):
        a = np.full((4, 4), 3.0)
        b = np.full((4, 4), 9.0)
        assert np.allclose(gradient_discrepancy(a, b), 0.0)

    def test_scaled_map_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            base = smooth_map(rng)
            c = rng.uniform(0.2, 5.0)
            delta = gradient_discrepancy(base, c * base)
            assert np.max(delta) < 1e-9

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
        delta = gradient_discrepancy(geom, mono)
        # the hole's stencil neighbours see a large gradient, yet have no
        # usable comparison, so they are kept
        for r, c in ((0, 1), (2, 1), (1, 0), (1, 2)):
            assert delta[r, c] > FilterConfig().tau_grad
        assert delta[3, 3] == 0.0
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
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=7)
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
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=7)
        geom, mono, blob = gen_depth_fixture(spec)
        assert blob == set()
        _, report = filter_depth(geom, mono)
        assert report.removed_total == 0

    def test_threshold_monotonicity(self):
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=3)
        geom, mono, _ = gen_depth_fixture(spec)
        _, loose = filter_depth(geom, mono, FilterConfig(tau_depth=0.6, tau_grad=0.3))
        _, tight = filter_depth(geom, mono, FilterConfig(tau_depth=0.1, tau_grad=0.05))
        assert loose.removed_total <= tight.removed_total

    def test_geom_scale_invariant_mask(self):
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=11)
        geom, mono, _ = gen_depth_fixture(spec)
        masks = []
        for factor in (0.1, 1.0, 10.0):
            filtered, _ = filter_depth(DepthMap(geom.values * factor), mono)
            masks.append(filtered.valid_mask)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])

    def test_mono_scale_invariant_mask(self):
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=11)
        geom, mono, _ = gen_depth_fixture(spec)
        masks = []
        for factor in (0.3, 1.0, 2.7):
            filtered, _ = filter_depth(geom, DepthMap(mono.values * factor))
            masks.append(filtered.valid_mask)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])

    def test_report_accounting(self):
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=5)
        geom, mono, _ = gen_depth_fixture(spec)
        _, report = filter_depth(geom, mono)
        assert report.removed_total <= report.removed_by_depth + report.removed_by_grad
        assert report.kept + report.removed_total == int(geom.valid_mask.sum())


def test_config_rejects_nonpositive_thresholds():
    with pytest.raises(InvalidSpec):
        FilterConfig(tau_depth=0.0)
    with pytest.raises(InvalidSpec):
        FilterConfig(tau_grad=-1.0)


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


FILTER_GOLDEN_DIGEST = "a200505baefdfad99d8049f1cb199059a813f3931114372c6f2ff9e5d331de31"


def test_filter_depth_golden(tmp_path):
    """sha256 of the output PFM and --report JSON of `filter-depth` on two
    synthetic fixtures at two threshold pairs, and on the hand-built pair."""
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
