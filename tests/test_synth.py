import math

import numpy as np
import pytest

from oracles import ring_ground_truth
from sparseview.community import louvain
from sparseview.depth_filter import filter_depth
from sparseview.errors import InvalidSpec
from sparseview.metrics import azimuth_coverage
from sparseview.recon_io import load_scene_dir, rotation_matrix, write_reconstruction
from sparseview.synth import (
    SynthSpec,
    _look_at_quaternion,
    gen_depth_fixture,
    gen_grid_scene,
    gen_ring_scene,
)
from sparseview.view_graph import build_graph, prune_edges


def ring_spec(**kw):
    base = dict(
        cluster_count=6, cluster_size=5,
        intra_weight=100, inter_weight=60, radius=10.0, noise_sigma=0.0, seed=0,
    )
    base.update(kw)
    return SynthSpec(**base)


def look_at_rows(position, target):
    """Right, down and forward rows of a camera at `position` facing `target`
    with world up +Y; straight up or down, world +X is right."""
    fwd = np.subtract(target, position, dtype=float)
    fwd /= np.linalg.norm(fwd)
    right = np.cross((0.0, 1.0, 0.0), fwd)
    norm = np.linalg.norm(right)
    right = right / norm if norm > 1e-12 else np.array([1.0, 0.0, 0.0])
    return np.stack([right, np.cross(fwd, right), fwd])


def test_look_at_quaternion_reproduces_the_look_at_rows(rng):
    origin = (0.0, 0.0, 0.0)
    pairs = [
        (origin, (0.0, 3.0, 0.0)),  # straight up
        ((1.0, 2.0, 3.0), (1.0, -4.0, 3.0)),  # straight down
        (origin, (0.0, 0.0, 1.0)),  # facing +Z: trace > 0
        (origin, (0.0, 0.0, -1.0)),  # facing -Z: trace -1, the y branch
    ]
    pairs += [
        tuple(tuple(rng.uniform(-10.0, 10.0) for _ in range(3)) for _ in range(2))
        for _ in range(2000)
    ]
    traces = []
    for position, target in pairs:
        rows = look_at_rows(position, target)
        q = _look_at_quaternion(position, target)
        assert math.isclose(sum(c * c for c in q), 1.0, abs_tol=1e-12)
        assert np.allclose(rotation_matrix(q), rows, rtol=0.0, atol=1e-9)
        traces.append(np.trace(rows))
    assert traces[2] > 0 >= traces[3]
    assert min(traces[4:]) <= 0 < max(traces[4:])


class TestRingScene:
    def test_combinatorial_counts(self):
        scene = gen_ring_scene(ring_spec())
        assert len(scene.views) == 30
        assert len(scene.edges) == 6 * 10 + 6  # 6*C(5,2) + 6 bridges

    def test_two_cluster_single_bridge(self):
        scene = gen_ring_scene(ring_spec(cluster_count=2))
        assert len(scene.edges) == 2 * 10 + 1

    def test_single_cluster_no_bridge(self):
        scene = gen_ring_scene(ring_spec(cluster_count=1, cluster_size=4))
        assert len(scene.edges) == 6

    def test_louvain_recovers_clusters(self):
        spec = ring_spec(noise_sigma=0.1, seed=4)
        scene = gen_ring_scene(spec)
        graph = prune_edges(build_graph(scene), 50)
        got = louvain(graph, seed=0)
        truth = ring_ground_truth(spec)
        assert len(set(got.labels)) == spec.cluster_count
        # detected labels must be a relabeling of the generator's clusters
        mapping = {}
        for v, c in zip(graph.ids, got.labels):
            mapping.setdefault(c, truth[v])
            assert mapping[c] == truth[v]

    def test_36_cluster_ring_full_azimuth(self):
        scene = gen_ring_scene(ring_spec(cluster_count=36, cluster_size=1))
        cov = azimuth_coverage(scene)
        assert cov.positional_pct == 1.0
        assert cov.rotational_pct == 1.0

    def test_deterministic(self):
        spec = ring_spec(noise_sigma=0.4, seed=77)
        assert gen_ring_scene(spec) == gen_ring_scene(spec)

    def test_validates_invariants(self, tmp_path):
        scene = gen_ring_scene(ring_spec(noise_sigma=0.2, seed=5))
        # every reference resolves: the parser checks each one as it reads
        write_reconstruction(scene, str(tmp_path))
        assert load_scene_dir(str(tmp_path)).views == scene.views
        for view in scene.views.values():
            assert abs(math.fsum(c * c for c in view.rotation) - 1.0) < 1e-6

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(cluster_count=0)
        with pytest.raises(InvalidSpec, match="intra_weight must be >= 0"):
            SynthSpec(intra_weight=-1)
        with pytest.raises(InvalidSpec, match=r"inter_weight must be below 2\*\*63, got 9223372036854775808"):
            SynthSpec(inter_weight=2**63)
        assert SynthSpec(intra_weight=2**63 - 1).intra_weight == 2**63 - 1
        # only the ring reads inter_weight, so only the ring compares the two
        spec = SynthSpec(intra_weight=10, inter_weight=20)
        with pytest.raises(InvalidSpec, match="intra_weight must be >= inter_weight"):
            gen_ring_scene(spec)
        assert set(gen_grid_scene(spec).edges.values()) == {10}

    @pytest.mark.parametrize("name", ["intra_weight", "inter_weight"])
    def test_huge_weight_is_refused_with_invalid_spec(self, name):
        # past the interpreter's 4 300-digit limit for int -> str, so the
        # message must not print the value in full
        huge = 10**5000
        with pytest.raises(InvalidSpec, match=rf"{name} must be below 2\*\*63, got an integer of 16610 bits"):
            SynthSpec(**{name: huge})
        with pytest.raises(InvalidSpec, match=rf"{name} must be >= 0, got a negative integer of 16610 bits"):
            SynthSpec(**{name: -huge})


class TestGridScene:
    def test_counts_and_degrees(self):
        spec = SynthSpec(cluster_count=4, seed=0)
        scene = gen_grid_scene(spec)
        assert len(scene.views) == 16
        assert len(scene.edges) == 2 * 4 * 3  # grid edges
        graph = build_graph(scene)
        corner_degrees = sorted(len(graph.adjacency[graph.node(v)]) for v in (1, 4, 13, 16))
        assert corner_degrees == [2, 2, 2, 2]

    def test_deterministic(self):
        spec = SynthSpec(cluster_count=3, noise_sigma=0.2, seed=8)
        assert gen_grid_scene(spec) == gen_grid_scene(spec)


class TestDepthFixture:
    def test_blob_geometry(self):
        spec = SynthSpec(seed=0)
        geom, mono, blob = gen_depth_fixture(spec)
        assert geom.values.shape == (64, 64)
        assert len(blob) == 120
        r, c = next(iter(blob))
        outside = (0, 0)
        assert geom.values[r, c] > mono.values[r, c] / mono.values[outside] * geom.values[outside]

    def test_mono_scale_in_range(self):
        for seed in range(10):
            spec = SynthSpec(seed=seed)
            geom, mono, _ = gen_depth_fixture(spec)
            ratio = mono.values[0, 0] / geom.values[0, 0]
            assert 0.3 <= ratio <= 3.0

    def test_blob_discrepancy_exceeds_default_threshold(self):
        spec = SynthSpec(seed=2)
        geom, mono, blob = gen_depth_fixture(spec)
        filtered, _ = filter_depth(geom, mono)
        removed = geom.valid_mask & ~filtered.valid_mask
        assert all(removed[r, c] for r, c in blob)

    def test_deterministic(self):
        spec = SynthSpec(seed=6)
        g1, m1, b1 = gen_depth_fixture(spec)
        g2, m2, b2 = gen_depth_fixture(spec)
        assert np.array_equal(g1.values, g2.values)
        assert np.array_equal(m1.values, m2.values)
        assert b1 == b2
