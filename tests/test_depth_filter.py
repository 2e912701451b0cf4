import numpy as np
import pytest

from sparseview import synth
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


def dm(array):
    return DepthMap.from_array(np.asarray(array, dtype=float))


def smooth_map(rng, h=16, w=16):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return 4.0 + rng.random() * xs / w + rng.random() * ys / h + 0.2 * np.sin(xs / 3.0)


class TestMedianScale:
    def test_constant_maps(self):
        assert median_scale(dm(np.full((2, 2), 4.0)), dm(np.full((2, 2), 2.0))) == 0.5

    def test_identity(self):
        a = dm([[1.0, 2.0], [3.0, 4.0]])
        assert median_scale(a, a) == 1.0

    def test_even_length_median(self):
        geom = dm([[1.0, 2.0], [3.0, 100.0]])
        mono = dm([[2.0, 4.0], [6.0, 8.0]])
        # med_geom = 2.5, med_mono = 5
        assert median_scale(geom, mono) == pytest.approx(2.0)

    def test_joint_valid_set_only(self):
        geom = dm([[1.0, 0.0], [3.0, 9.0]])
        mono = dm([[2.0, 5.0], [6.0, 0.0]])
        # joint valid pixels: (0,0) and (1,0) -> med_geom 2, med_mono 4
        assert median_scale(geom, mono) == pytest.approx(2.0)

    def test_no_overlap(self):
        with pytest.raises(NoValidOverlap):
            median_scale(dm([[0.0, 1.0]]), dm([[1.0, 0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            median_scale(dm([[1.0]]), dm([[1.0, 2.0]]))


class TestDepthDiscrepancy:
    def test_basic_ratio(self):
        delta = depth_discrepancy(dm([[10.0]]), dm([[12.0]]))
        assert delta[0, 0] == pytest.approx(0.2)

    def test_identity_zero(self):
        a = dm([[3.0, 4.0]])
        assert np.allclose(depth_discrepancy(a, a), 0.0)

    def test_large_ratio(self):
        delta = depth_discrepancy(dm([[5.0]]), dm([[20.0]]))
        assert delta[0, 0] == pytest.approx(3.0)

    def test_invalid_marked_nan(self):
        delta = depth_discrepancy(dm([[5.0, 0.0]]), dm([[5.0, 5.0]]))
        assert np.isnan(delta[0, 1]) and delta[0, 0] == 0.0


class TestGradientDiscrepancy:
    def test_constant_maps_zero(self):
        a = dm(np.full((4, 4), 3.0))
        b = dm(np.full((4, 4), 9.0))
        assert np.allclose(gradient_discrepancy(a, b), 0.0)

    def test_scaled_map_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            base = smooth_map(rng)
            c = rng.uniform(0.2, 5.0)
            delta = gradient_discrepancy(dm(base), dm(c * base))
            assert np.nanmax(np.abs(delta)) < 1e-9

    def test_too_small(self):
        with pytest.raises(TooSmall):
            gradient_discrepancy(dm([[1.0, 2.0]]), dm([[1.0, 2.0]]))

    def test_stencil_contamination_marked(self):
        vals = np.full((4, 4), 5.0)
        vals[1, 1] = 0.0  # invalid
        delta = gradient_discrepancy(dm(vals), dm(np.full((4, 4), 5.0)))
        assert np.isnan(delta[1, 1])
        # stencil neighbors of the hole are unusable too
        for r, c in ((0, 1), (2, 1), (1, 0), (1, 2)):
            assert np.isnan(delta[r, c])
        assert delta[3, 3] == 0.0


class TestFilterDepth:
    def test_under_threshold_kept(self):
        geom = dm(np.full((4, 4), 10.0))
        mono_vals = np.full((4, 4), 10.0)
        mono_vals[0, 0] = 12.0  # delta 0.2 after s=1 alignment? medians shift s slightly
        mono = dm(mono_vals)
        cfg = FilterConfig(tau_depth=0.25, tau_grad=10.0)
        filtered, report = filter_depth(geom, mono, cfg)
        assert filtered.valid_mask[0, 0]
        assert report.removed_by_depth == 0

    def test_identity_keeps_everything(self):
        rng = np.random.default_rng(1)
        base = smooth_map(rng)
        filtered, report = filter_depth(dm(base), dm(base))
        assert report.removed_total == 0
        assert report.kept == base.size
        assert np.array_equal(filtered.values, base)

    def test_values_preserved_not_scaled(self):
        rng = np.random.default_rng(2)
        base = smooth_map(rng)
        filtered, _ = filter_depth(dm(base), dm(3.0 * base))
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
            filtered, _ = filter_depth(DepthMap.from_array(geom.values * factor), mono)
            masks.append(filtered.valid_mask)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])

    def test_mono_scale_invariant_mask(self):
        spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=11)
        geom, mono, _ = gen_depth_fixture(spec)
        masks = []
        for factor in (0.3, 1.0, 2.7):
            filtered, _ = filter_depth(geom, DepthMap.from_array(mono.values * factor))
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
