import hashlib
import json
import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import CHILD_ENV, by_node, edges_of, graph_of, random_graph, random_positions
from oracles import (
    dispersion_full_bfs,
    hop_distance,
    nearest_sample_dist_loop,
    pose_pair_errors_loop,
)
from sparseview import metrics
from sparseview.errors import (
    EmptySample,
    IdMismatch,
    InvalidK,
    InvalidSpec,
    LengthMismatch,
    NoCameras,
    NoPoints,
    TooFewSamples,
    UnknownNode,
)
from sparseview.metrics import (
    avg_nearest_sample_dist,
    azimuth_coverage,
    dispersion,
    k_hop_coverage,
    pose_pair_errors,
)
from sparseview.recon_io import (
    CameraIntrinsics,
    CameraModel,
    PosedView,
    SceneReconstruction,
    ScenePoint,
    rotation_matrix,
)

CAM = CameraIntrinsics(1, CameraModel.SIMPLE_PINHOLE, 10, 10, (1.0, 5.0, 5.0))


def path_graph(n):
    """Views 1..n on a path; node i is view i + 1."""
    return graph_of([(i, i + 1, 10) for i in range(1, n)])


class TestKHopCoverage:
    def test_path_center_k2(self):
        assert k_hop_coverage(path_graph(5), {2}, 2) == 1.0

    def test_path_center_k1(self):
        assert k_hop_coverage(path_graph(5), {2}, 1) == pytest.approx(3 / 5)

    def test_full_sample_any_k(self):
        g = path_graph(4)
        assert k_hop_coverage(g, range(g.node_count), 0) == 1.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            k_hop_coverage(path_graph(3), set(), 1)

    def test_negative_k(self):
        with pytest.raises(InvalidK, match="k=-1"):
            k_hop_coverage(path_graph(3), {1}, -1)

    def test_sampled_node_outside_graph(self):
        # the metrics take nodes; a sampled view id is mapped to its node
        # first, and one the graph lacks is named there
        g = path_graph(3)
        with pytest.raises(UnknownNode, match="unknown node 9$"):
            k_hop_coverage(g, [g.node(v) for v in (1, 9)], 1)

    def test_monotone_in_k_and_sample(self, rng):
        for _ in range(20):
            g = random_graph(rng, 20, 0.1)
            nodes = list(range(g.node_count))
            small = set(rng.sample(nodes, 3))
            big = small | set(rng.sample(nodes, 5))
            prev = 0.0
            for k in range(5):
                cov = k_hop_coverage(g, small, k)
                assert cov >= prev
                assert k_hop_coverage(g, big, k) >= cov
                prev = cov


class TestAvgNearest:
    def test_all_sampled_zero(self):
        pos = {1: (0, 0, 0), 2: (3, 0, 0)}
        assert avg_nearest_sample_dist(pos, [1, 2], {1, 2}) == 0.0

    def test_two_nodes_one_sampled(self):
        pos = {1: (0, 0, 0), 2: (2, 0, 0)}
        assert avg_nearest_sample_dist(pos, [1, 2], {1}) == pytest.approx(1.0)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            avg_nearest_sample_dist({1: (0, 0, 0)}, [1], set())

    def test_against_matrix_oracle(self, rng):
        nodes = list(range(100))
        pos = random_positions(rng, nodes)
        sampled = sorted(rng.sample(nodes, 7))
        got = avg_nearest_sample_dist(pos, nodes, sampled)
        p = np.array([pos[v] for v in nodes])
        s = np.array([pos[v] for v in sampled])
        dmat = np.sqrt(((p[:, None, :] - s[None, :, :]) ** 2).sum(-1))
        assert got == pytest.approx(float(dmat.min(axis=1).mean()), rel=1e-12)


class TestDispersion:
    def test_two_nodes(self):
        g = path_graph(4)
        pos = [(0, 0, 0), (0, 0, 0), (0, 0, 0), (5, 0, 0)]
        res = dispersion(g, pos, {0, 3})
        assert res.graph_dispersion == pytest.approx(3.0)
        assert res.euclidean_dispersion == pytest.approx(5.0)
        assert res.excluded_pairs == 0

    def test_adjacent_identical_positions(self):
        g = graph_of([(1, 2, 5)])
        pos = [(1, 2, 3), (1, 2, 3)]
        res = dispersion(g, pos, {0, 1})
        assert res.graph_dispersion == pytest.approx(1.0)
        assert res.euclidean_dispersion == 0.0

    def test_disconnected_pairs_excluded(self):
        g = graph_of([(1, 2, 5), (3, 4, 5)])
        pos = [(float(v), 0, 0) for v in g.ids]
        res = dispersion(g, pos, {0, 2})
        assert res.graph_dispersion is None
        assert res.excluded_pairs == 1
        assert res.euclidean_dispersion == pytest.approx(2.0)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            dispersion(path_graph(3), [], {1})

    def test_grid_matches_bfs_oracle(self, rng):
        for _ in range(10):
            g = random_graph(rng, 25, 0.12)
            nodes = list(range(g.node_count))
            pos = random_positions(rng, nodes)
            sampled = sorted(rng.sample(nodes, 6))
            res = dispersion(g, pos, sampled)
            adj = dict(enumerate(g.adjacency))
            hops, eu = [], []
            for i, u in enumerate(sampled):
                for v in sampled[i + 1 :]:
                    d = hop_distance(adj, u, v)
                    if d is not None:
                        hops.append(d)
                    eu.append(math.dist(pos[u], pos[v]))
            want_hop = sum(hops) / len(hops) if hops else None
            if want_hop is None:
                assert res.graph_dispersion is None
            else:
                assert res.graph_dispersion == pytest.approx(want_hop)
            assert res.euclidean_dispersion == pytest.approx(sum(eu) / len(eu))

    def test_permutation_invariance(self, rng):
        g = random_graph(rng, 15, 0.3)
        pos = random_positions(rng, range(g.node_count))
        sampled = list(range(6))
        shuffled = list(sampled)
        random.Random(3).shuffle(shuffled)
        assert dispersion(g, pos, sampled) == dispersion(g, pos, shuffled)


def yaw_view(vid, center, facing_deg):
    """Camera at `center` whose forward axis has horizontal azimuth
    `facing_deg` (rotation about +Y only)."""
    theta = math.radians(facing_deg - 90.0)
    q = (math.cos(theta / 2.0), 0.0, math.sin(theta / 2.0), 0.0)
    r = rotation_matrix(q)
    t = tuple(-sum(r[i][j] * center[j] for j in range(3)) for i in range(3))
    view = PosedView(vid, 1, q, t, f"{vid}.jpg")
    assert view.forward_axis()[0] == pytest.approx(math.cos(math.radians(facing_deg)), abs=1e-12)
    assert view.forward_axis()[2] == pytest.approx(math.sin(math.radians(facing_deg)), abs=1e-12)
    return view


def scene_of(views, points=None):
    return SceneReconstruction(
        "s", {1: CAM}, {v.view_id: v for v in views},
        [], points or [ScenePoint(1, (0.0, 0.0, 0.0), (views[0].view_id,))],
    )


class TestAzimuthCoverage:
    def ring_views(self, angles_deg, radius=5.0):
        views = []
        for i, a in enumerate(angles_deg, start=1):
            rad = math.radians(a)
            center = (radius * math.cos(rad), 0.0, radius * math.sin(rad))
            views.append(yaw_view(i, center, a))
        return views

    def test_full_ring(self):
        # 36 cameras at bin centers, facing outward
        views = self.ring_views([10.0 * k + 5.0 for k in range(36)])
        cov = azimuth_coverage(scene_of(views))
        assert cov.positional_pct == 1.0
        assert cov.rotational_pct == 1.0

    def test_colocated_cameras(self):
        views = [yaw_view(i, (3.0, 0.0, 0.0), 45.0) for i in range(1, 6)]
        cov = azimuth_coverage(scene_of(views))
        assert cov.positional_pct == pytest.approx(1 / 36)
        assert cov.rotational_pct == pytest.approx(1 / 36)

    def test_nine_cameras_quarter_coverage(self):
        views = self.ring_views([40.0 * k for k in range(9)])
        cov = azimuth_coverage(scene_of(views))
        assert cov.positional_pct == pytest.approx(9 / 36)

    def test_bin_edges_half_open(self):
        # exact-edge angles (atan2 special values) go to the higher bin
        views = [
            yaw_view(1, (1.0, 0.0, 0.0), 0.0),     # 0 degrees -> bin 0
            yaw_view(2, (0.0, 0.0, 1.0), 90.0),    # bin 9
            yaw_view(3, (-1.0, 0.0, 0.0), 180.0),  # bin 18
            yaw_view(4, (0.0, 0.0, -1.0), 270.0),  # bin 27
        ]
        cov = azimuth_coverage(scene_of(views))
        for b in (0, 9, 18, 27):
            assert cov.positional_bins[b]
            assert cov.rotational_bins[b]
        assert sum(cov.positional_bins) == 4

    def test_near_360_in_last_bin(self):
        rad = math.radians(359.9999)
        views = [yaw_view(1, (math.cos(rad), 0.0, math.sin(rad)), 359.9999)]
        cov = azimuth_coverage(scene_of(views))
        assert cov.positional_bins[35]
        assert cov.rotational_bins[35]

    def test_camera_on_centroid_skipped(self):
        views = [yaw_view(1, (0.0, 0.0, 0.0), 0.0), yaw_view(2, (1.0, 0.0, 0.0), 0.0)]
        cov = azimuth_coverage(scene_of(views))
        assert sum(cov.positional_bins) == 1

    def test_z_gravity_on_a_scene_turned_z_up(self):
        # a quarter turn about +X takes world +Y to +Z and mirrors every
        # azimuth; no camera sits on a bin edge, so the occupied bins mirror
        angles = [23.0 * k + 3.0 for k in range(11)]
        views = [
            yaw_view(i, (5.0 * math.cos(math.radians(a)), 0.0, 5.0 * math.sin(math.radians(a))),
                     2.0 * a + 1.0)
            for i, a in enumerate(angles, start=1)
        ]
        s = 2.0 ** -0.5
        turned = [apply_similarity(v, 1.0, (s, s, 0.0, 0.0), (0.0, 0.0, 0.0)) for v in views]
        assert turned[0].forward_axis()[2] == pytest.approx(0.0, abs=1e-12)
        up = azimuth_coverage(scene_of(views), gravity_axis="y")
        z_up = azimuth_coverage(scene_of(turned), gravity_axis="z")
        assert up.positional_pct == z_up.positional_pct == 11 / 36
        assert up.rotational_pct == z_up.rotational_pct
        assert z_up.positional_bins == up.positional_bins[::-1]
        assert z_up.rotational_bins == up.rotational_bins[::-1]

    def test_errors(self):
        with pytest.raises(NoCameras):
            azimuth_coverage(SceneReconstruction("s", {1: CAM}, {}, [], []))
        views = [yaw_view(1, (1.0, 0.0, 0.0), 0.0)]
        scene = SceneReconstruction("s", {1: CAM}, {views[0].view_id: views[0]}, [], [])
        with pytest.raises(NoPoints):
            azimuth_coverage(scene)
        with pytest.raises(ValueError, match="centroid undefined"):
            scene.centroid()
        scene.points.append(ScenePoint(1, (0.0, 0.0, 0.0), (1,)))
        with pytest.raises(ValueError, match="unsupported gravity axis 'x'"):
            azimuth_coverage(scene, gravity_axis="x")


def random_unit_quaternion(rng):
    while True:
        q = [rng.gauss(0, 1) for _ in range(4)]
        norm = math.sqrt(sum(c * c for c in q))
        if norm > 1e-3:
            return tuple(c / norm for c in q)


def pose_at(vid, q, center):
    r = rotation_matrix(q)
    t = tuple(-sum(r[i][j] * center[j] for j in range(3)) for i in range(3))
    return PosedView(vid, 1, q, t, f"{vid}.jpg")


def random_pose(rng, vid):
    return pose_at(vid, random_unit_quaternion(rng), [rng.uniform(-5, 5) for _ in range(3)])


def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def apply_similarity(view, scale, q_g, t_g):
    """Rotate the world by q_g, scale by `scale`, translate by t_g."""
    r = np.array(rotation_matrix(view.rotation))
    rg = np.array(rotation_matrix(q_g))
    q_new = qmul(view.rotation, (q_g[0], -q_g[1], -q_g[2], -q_g[3]))
    r_new = np.array(rotation_matrix(q_new))
    assert np.allclose(r_new, r @ rg.T, atol=1e-12)
    c_new = scale * rg @ np.array(view.position) + np.array(t_g)
    t_new = tuple(float(x) for x in (-r_new @ c_new))
    norm = math.sqrt(sum(c * c for c in q_new))
    q_new = tuple(c / norm for c in q_new)
    return PosedView(view.view_id, view.camera_id, q_new, t_new, view.image_name)


class TestPosePairErrors:
    def test_identity_exact(self, rng):
        views = [random_pose(rng, i) for i in range(1, 6)]
        res = pose_pair_errors(views, views, thresholds=(5,))
        assert res.rra_at[5] == 1.0
        assert res.rta_at[5] == 1.0
        assert res.auc_at[5] == 1.0
        assert res.mre == 0.0
        assert res.mte == 0.0
        assert len(res.rotation_errors) == 10

    def test_similarity_invariance(self, rng):
        for trial in range(20):
            n = rng.randint(3, 6)
            gt = [random_pose(rng, i) for i in range(1, n + 1)]
            pred = [random_pose(rng, i) for i in range(1, n + 1)]
            base = pose_pair_errors(pred, gt, thresholds=(15,))
            q_g = random_pose(rng, 0).rotation
            scale = rng.uniform(0.2, 5.0)
            t_g = tuple(rng.uniform(-4, 4) for _ in range(3))
            moved = [apply_similarity(v, scale, q_g, t_g) for v in pred]
            res = pose_pair_errors(moved, gt, thresholds=(15,))
            for a, b in zip(base.rotation_errors, res.rotation_errors):
                assert abs(a - b) < 1e-6
            for a, b in zip(base.translation_errors, res.translation_errors):
                assert abs(a - b) < 1e-6

    def test_single_perturbed_view_hand_count(self, rng):
        gt = [random_pose(rng, i) for i in range(1, 4)]
        # rotate view 3's pose by exactly 10 degrees about camera x
        half = math.radians(10.0) / 2.0
        dq = (math.cos(half), math.sin(half), 0.0, 0.0)
        v3 = gt[2]
        q_new = qmul(dq, v3.rotation)
        pred = [gt[0], gt[1], PosedView(3, 1, q_new, v3.translation, v3.image_name)]
        res = pose_pair_errors(pred, gt, thresholds=(5,))
        # pairs (1,3) and (2,3) see exactly the 10 degree perturbation
        assert sorted(round(e, 9) for e in res.rotation_errors) == [0.0, 10.0, 10.0]
        assert res.rra_at[5] == pytest.approx(1 / 3)
        assert res.mre == pytest.approx(20.0 / 3.0)

    def test_zero_baseline_conventions(self):
        a = PosedView(1, 1, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "a.jpg")
        b = PosedView(2, 1, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "b.jpg")
        c = PosedView(2, 1, (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "c.jpg")
        both_zero = pose_pair_errors([a, b], [a, b], thresholds=(5,))
        assert both_zero.translation_errors == [0.0]
        one_zero = pose_pair_errors([a, b], [a, c], thresholds=(5,))
        assert one_zero.translation_errors == [90.0]

    @pytest.mark.parametrize("thresholds,bad", [
        ((2.5,), "got 2.5"), ((0,), "got 0"), ((-5,), "got -5"), ((181,), "got 181"),
        ((10**6,), "got 1000000"), ((5, 5), "distinct, got [5, 5]"),
    ])
    def test_thresholds_outside_whole_degrees_1_to_180_raise(self, rng, thresholds, bad):
        views = [random_pose(rng, i) for i in range(1, 4)]
        with pytest.raises(InvalidSpec, match=re.escape(bad)):
            pose_pair_errors(views, views, thresholds=thresholds)
        assert pose_pair_errors(views, views, thresholds=(1, 180)).auc_at[180] == 1.0

    def test_errors(self, rng):
        views = [random_pose(rng, i) for i in range(1, 4)]
        with pytest.raises(LengthMismatch):
            pose_pair_errors(views, views[:2])
        with pytest.raises(TooFewSamples):
            pose_pair_errors(views[:1], views[:1])
        renamed = [PosedView(9, 1, views[0].rotation, views[0].translation, "x.jpg")] + views[1:]
        with pytest.raises(IdMismatch):
            pose_pair_errors(renamed, views)


def pose_set(rng, n, centers):
    """n views at centers drawn from `centers`: views that share a center
    form zero-baseline pairs."""
    return [pose_at(v, random_unit_quaternion(rng), rng.choice(centers)) for v in range(1, n + 1)]


def pose_sets(rng):
    """(pred, gt) pairs of 2-40 views: independent sets, and predictions that
    perturb the ground truth while keeping its shared centers."""
    for trial in range(78):
        n = 2 + trial % 39
        pool = [tuple(rng.uniform(-5, 5) for _ in range(3)) for _ in range(max(1, n // 3))]
        gt = pose_set(rng, n, pool + [(0.0, 0.0, 0.0)])
        if trial % 2:
            pred = pose_set(rng, n, pool)
        else:
            pred = [
                pose_at(v.view_id, qmul(random_unit_quaternion(rng), v.rotation)
                        if rng.random() < 0.3 else v.rotation, v.position)
                for v in gt
            ]
        yield pred, gt


class TestExactAgainstScalarOracles:
    """The metrics print repr(float), so they must equal the per-pair and
    per-node scalar definitions bit for bit, not approximately."""

    # pairs are stacked a block of whole rows at a time; blocks of 1 and 50
    # pairs put block edges inside these 2-40 view sets
    @pytest.mark.parametrize("block", [metrics._PAIR_BLOCK, 50, 1])
    def test_pose_pair_errors(self, rng, monkeypatch, block):
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", block)
        both_zero = one_zero = 0
        for pred, gt in pose_sets(rng):
            res = pose_pair_errors(pred, gt)
            rot, trans = pose_pair_errors_loop(
                [rotation_matrix(v.rotation) for v in pred], [v.translation for v in pred],
                [rotation_matrix(v.rotation) for v in gt], [v.translation for v in gt],
            )
            assert res.rotation_errors == rot
            assert res.translation_errors == trans
            assert res.mre == float(np.array(rot).mean())
            assert res.mte == float(np.array(trans).mean())
            both_zero += trans.count(0.0)
            one_zero += trans.count(90.0)
        assert both_zero > 0 and one_zero > 0

    def test_nearest_sample_dist_lattice_ties(self, rng):
        # with steps that are not binary fractions, numpy's squared distance
        # and math.dist can order two tied candidates differently
        for step in (1.0, 0.1, 0.3, 0.7, 1.1):
            nodes = list(range(12 * 12))
            pos = {v: (step * (v % 12), step * (v // 12), 0.0) for v in nodes}
            for _ in range(20):
                sampled = rng.sample(nodes, rng.randint(1, 20))
                got = avg_nearest_sample_dist(pos, nodes, sampled)
                assert got == nearest_sample_dist_loop(pos, nodes, sampled)
                # one node at a time too: a last-bit difference in one row
                # is usually rounded away in the mean
                for u in nodes:
                    got = avg_nearest_sample_dist(pos, [u], sampled)
                    assert got == nearest_sample_dist_loop(pos, [u], sampled)

    def test_nearest_sample_dist_random_clouds(self, rng):
        for _ in range(30):
            nodes = rng.sample(range(1000), rng.randint(1, 120))
            pos = random_positions(rng, nodes, scale=rng.choice([1e-3, 1.0, 1e4]))
            sampled = rng.sample(nodes, rng.randint(1, len(nodes)))
            got = avg_nearest_sample_dist(pos, nodes, sampled)
            assert got == nearest_sample_dist_loop(pos, nodes, sampled)

    def test_dispersion_several_components(self, rng):
        excluded = 0
        for _ in range(30):
            # three random graphs on disjoint id ranges
            edges, nodes = [], []
            for base in (0, 100, 200):
                g = random_graph(rng, rng.randint(2, 20), rng.uniform(0.05, 0.4))
                edges += [(g.ids[u] + base, g.ids[v] + base, w) for u, v, w in edges_of(g)]
                nodes += [v + base for v in g.ids]
            g = graph_of(edges, nodes=nodes)
            pos = random_positions(rng, nodes)
            sampled = rng.sample(nodes, rng.randint(2, min(12, len(nodes))))
            res = dispersion(g, by_node(g, pos), [g.node(v) for v in sampled])
            adj = {g.ids[u]: [g.ids[v] for v in nbrs] for u, nbrs in enumerate(g.adjacency)}
            want = dispersion_full_bfs(adj, pos, sampled)
            assert (res.graph_dispersion, res.euclidean_dispersion, res.excluded_pairs) == want
            excluded += res.excluded_pairs
        assert excluded > 0


def _report_digests(root):
    """sha256 of the coverage and pose-eval reports on a seeded ring scene:
    48 views, pose noise 0.3, coverage at two prune thresholds (the second
    one splits the clusters, so `excluded_pairs` > 0)."""
    from sparseview.cli import run

    noisy, clean, batches = root / "noisy", root / "clean", root / "b.jsonl"
    for out, noise in ((noisy, "0.3"), (clean, "0")):
        assert run(["synth", "--kind", "ring", "--clusters", "8", "--cluster-size", "6",
                    "--noise", noise, "--seed", "11", "--out", str(out), "--quiet"]) == 0
    assert run(["sample", "--scene", str(noisy), "--n", "12", "--ncc", "3", "--depth", "6",
                "--batches", "4", "--seed", "5", "--out", str(batches), "--quiet"]) == 0
    reports = {
        "coverage": ["coverage", "--scene", str(noisy), "--batches", str(batches)],
        "coverage-split": ["coverage", "--scene", str(noisy), "--batches", str(batches),
                           "--prune-threshold", "70", "--k", "1"],
        "pose-eval": ["pose-eval", "--pred", str(noisy / "images.txt"),
                      "--gt", str(clean / "images.txt"), "--thresholds", "1,5,10"],
    }
    digests = {}
    for name, argv in reports.items():
        out = root / f"{name}.txt"
        assert run(argv + ["--out", str(out), "--quiet"]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


REPORT_DIGESTS = {
    "coverage": "13a1038c763f934b9cde868a32fceb6fd39eaf55096f9e1611c95ef22074ee67",
    "coverage-split": "35e0e21dcdf5da540c89cdb077a8e263161b7b4009ba04b7643e324bf6a9b91e",
    "pose-eval": "5aa00f74567f65a5a7b96742584591bb2ca287452d99f3555e71911d70ccef5f",
}


def test_reports_byte_stable(tmp_path):
    assert _report_digests(tmp_path) == REPORT_DIGESTS


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott", "SkylakeX"])
def test_report_bytes_do_not_follow_the_blas_kernel(tmp_path, coretype):
    """The same report bytes with OpenBLAS forced to another kernel in a child
    interpreter: the poses and pose errors are elementwise sums in a fixed
    order. A numpy that is not built on OpenBLAS ignores the variable."""
    script = (
        "import json, pathlib, sys\n"
        "from test_metrics import _report_digests\n"
        "print(json.dumps(_report_digests(pathlib.Path(sys.argv[1]))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          env={**CHILD_ENV, "OPENBLAS_CORETYPE": coretype})
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == REPORT_DIGESTS
