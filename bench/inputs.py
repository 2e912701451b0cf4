"""Seeded input generation for the benchmark workloads.

The benchmark writes its own COLMAP-text scenes, match lists and PFM depth
pairs instead of calling `sparseview synth`, so a change to the program's
synthetic generator cannot change what a workload measures. Everything here
is a pure function of the workload seed.

The generators return what the checkers need next to what gets written:
view poses and match counts for a scene, blob and hole masks for a depth
pair.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

PRUNE_THRESHOLD = 50  # the benchmark passes this to every CLI call
DEPTH_W, DEPTH_H = 1920, 1080


@dataclass
class Scene:
    """Views are numbered 1..n; row i of each array belongs to view i + 1."""

    scene_id: str
    quats: np.ndarray  # (n, 4) world-to-camera rotation, (w, x, y, z)
    trans: np.ndarray  # (n, 3) world-to-camera translation
    edges: dict  # (a, b) with a < b -> match count

    @property
    def n_views(self) -> int:
        return len(self.quats)


def rotation_matrices(quats: np.ndarray) -> np.ndarray:
    """(n, 4) unit (w, x, y, z) quaternions -> (n, 3, 3) rotation matrices."""
    w, x, y, z = (quats[:, i] for i in range(4))
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def quat_from_matrices(r: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotation matrices -> (n, 4) unit quaternions with w >= 0."""
    out = np.empty((len(r), 4))
    for i, m in enumerate(r):
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if tr > 0:
            s = math.sqrt(tr + 1.0) * 2
            q = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
            q = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
        elif m[1, 1] > m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
            q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
            q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)
        q = np.array(q)
        out[i] = q / np.linalg.norm(q) * (1.0 if q[0] >= 0 else -1.0)
    return out


def camera_centers(quats: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """World camera centres -R^T t."""
    return -np.einsum("nji,nj->ni", rotation_matrices(quats), trans)


def look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    fwd = target - position
    fwd /= np.linalg.norm(fwd)
    right = np.cross(np.array([0.0, 1.0, 0.0]), fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd])


def pose_scene(scene_id, rotations, centres, edges) -> Scene:
    quats = quat_from_matrices(rotations)
    r = rotation_matrices(quats)
    trans = -np.einsum("nij,nj->ni", r, centres)
    return Scene(scene_id, quats, trans, edges)


def _add_spurious(rng, edges: dict, n: int, count: int, low: int, high: int) -> None:
    """Random weak pairs anywhere in the scene, all below the prune threshold."""
    added = 0
    while added < count:
        a, b = (int(v) for v in rng.integers(1, n + 1, size=2))
        key = (min(a, b), max(a, b))
        if a == b or key in edges:
            continue
        edges[key] = int(rng.integers(low, high + 1))
        added += 1


def landmark_scene(seed: int, clusters: int = 12, per_cluster: int = 250, knn: int = 20, bridges: int = 3) -> Scene:
    """A ring of viewpoint clusters around one landmark.

    Inside a cluster each view is linked to its `knn` nearest neighbours and
    to its nearest earlier view (so every cluster is connected), with match
    counts that fall with distance and never drop below the prune threshold.
    Neighbouring clusters share `bridges` weak bridges just above the threshold;
    spurious pairs below it give pruning work.
    """
    rng = np.random.default_rng([seed, 1])
    n = clusters * per_cluster
    centres = np.empty((n, 3))
    rotations = np.empty((n, 3, 3))
    landmark = np.array([0.0, 12.0, 0.0])
    for c in range(clusters):
        angle = 2 * math.pi * c / clusters + rng.normal(0.0, 0.05)
        rows = slice(c * per_cluster, (c + 1) * per_cluster)
        centres[rows, 0] = 100.0 * math.cos(angle) + rng.normal(0.0, 6.0, per_cluster)
        centres[rows, 1] = 1.6 + rng.normal(0.0, 0.3, per_cluster)
        centres[rows, 2] = 100.0 * math.sin(angle) + rng.normal(0.0, 6.0, per_cluster)
    for i in range(n):
        rotations[i] = look_at(centres[i], landmark + rng.normal(0.0, 2.0, 3))

    edges: dict[tuple[int, int], int] = {}

    def link(i: int, j: int, count: int) -> None:
        a, b = min(i, j) + 1, max(i, j) + 1
        edges[(a, b)] = max(edges.get((a, b), 0), count)

    for c in range(clusters):
        base = c * per_cluster
        pts = centres[base : base + per_cluster]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        near = np.argsort(d, axis=1, kind="stable")[:, :knn]
        for i in range(per_cluster):
            links = set(int(j) for j in near[i])
            if i:
                links.add(int(np.argmin(d[i, :i])))
            for j in links:
                count = 50 + int(350 * math.exp(-d[i, j] / 6.0)) + int(rng.integers(0, 20))
                link(base + i, base + j, count)
    for c in range(clusters):
        a0, b0 = c * per_cluster, ((c + 1) % clusters) * per_cluster
        cross = np.linalg.norm(
            centres[a0 : a0 + per_cluster, None, :] - centres[None, b0 : b0 + per_cluster, :],
            axis=-1,
        )
        for flat in np.argsort(cross, axis=None, kind="stable")[:bridges]:
            i, j = divmod(int(flat), per_cluster)
            link(a0 + i, b0 + j, int(rng.integers(50, 71)))
    _add_spurious(rng, edges, n, n, 1, PRUNE_THRESHOLD - 5)
    return pose_scene(f"landmark-s{seed}", rotations, centres, edges)


def grid_scene(seed: int, side: int = 55) -> Scene:
    """A side x side lattice of views with 4-neighbour covisibility.

    Lattice edge counts grow with the number of nested 2^l x 2^l blocks
    (l = 1..6) that hold both endpoints, plus noise, all above the prune
    threshold: Louvain then merges block by block and takes 6-7 levels to
    reach a few dozen communities. Diagonal pairs carry counts below the
    threshold and are pruned, leaving degree <= 4.
    """
    rng = np.random.default_rng([seed, 2])
    n = side * side
    idx = np.arange(n)
    row, col = idx // side, idx % side
    centres = np.stack(
        [col * 2.0 + rng.normal(0, 0.15, n), 1.5 + rng.normal(0, 0.15, n), row * 2.0 + rng.normal(0, 0.15, n)],
        axis=-1,
    )
    yaw = rng.uniform(0.0, 2 * math.pi, n)
    pitch = rng.normal(0.0, 0.1, n)
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    ry = np.zeros((n, 3, 3))
    ry[:, 0, 0], ry[:, 0, 2], ry[:, 1, 1], ry[:, 2, 0], ry[:, 2, 2] = cy, sy, 1.0, -sy, cy
    rx = np.zeros((n, 3, 3))
    rx[:, 0, 0], rx[:, 1, 1], rx[:, 1, 2], rx[:, 2, 1], rx[:, 2, 2] = 1.0, cp, -sp, sp, cp
    rotations = rx @ ry

    def count(r1: int, c1: int, r2: int, c2: int) -> int:
        shared = sum(1 for lv in range(1, 7) if (r1 >> lv, c1 >> lv) == (r2 >> lv, c2 >> lv))
        return 55 + 25 * shared + int(rng.integers(0, 30))

    edges: dict[tuple[int, int], int] = {}
    for r in range(side):
        for c in range(side):
            v = r * side + c + 1
            if c + 1 < side:
                edges[(v, v + 1)] = count(r, c, r, c + 1)
            if r + 1 < side:
                edges[(v, v + side)] = count(r, c, r + 1, c)
            if r + 1 < side and c + 1 < side and rng.random() < 0.3:
                edges[(v, v + side + 1)] = int(rng.integers(5, PRUNE_THRESHOLD - 5))
    return pose_scene(f"grid-s{seed}", rotations, centres, edges)


def pose_line(view_id: int, q, t) -> str:
    vals = " ".join(repr(float(x)) for x in (*q, *t))
    return f"{view_id} {vals} 1 img{view_id:05d}.jpg\n\n"


def write_scene(scene: Scene, directory: str) -> None:
    """cameras.txt, images.txt, points3D.txt and matches.txt in COLMAP text form."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "cameras.txt"), "w") as f:
        f.write("# CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]\n")
        f.write("1 SIMPLE_RADIAL 1920 1080 1600.0 960.0 540.0 0.01\n")
    with open(os.path.join(directory, "images.txt"), "w") as f:
        f.write("# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n")
        for i in range(scene.n_views):
            f.write(pose_line(i + 1, scene.quats[i], scene.trans[i]))
    with open(os.path.join(directory, "points3D.txt"), "w") as f:
        f.write("# POINT3D_ID X Y Z R G B ERROR TRACK[]\n")
        centres = camera_centers(scene.quats, scene.trans)
        for p, start in enumerate(range(0, scene.n_views, 10)):
            track = range(start + 1, min(start + 11, scene.n_views + 1))
            xyz = " ".join(repr(float(x)) for x in centres[start] * 0.5)
            obs = " ".join(f"{v} {k}" for k, v in enumerate(track))
            f.write(f"{p + 1} {xyz} 128 128 128 0.5 {obs}\n")
    with open(os.path.join(directory, "matches.txt"), "w") as f:
        f.write("# VIEW_A VIEW_B MATCH_COUNT\n")
        for (a, b), count in sorted(scene.edges.items()):
            f.write(f"{a} {b} {count}\n")


@dataclass
class DepthPair:
    geom: np.ndarray  # float32 (H, W), 0 where invalid
    mono: np.ndarray  # float32 (H, W)
    blob: np.ndarray  # bool mask of planted transient blobs
    hole: np.ndarray  # bool mask of invalid pixels in geom


def _discs(rng, count: int, r_lo: int, r_hi: int, w: int, h: int) -> list[tuple[int, int, int]]:
    out = []
    for _ in range(count):
        r = int(rng.integers(r_lo, r_hi + 1))
        out.append((int(rng.integers(r + 2, w - r - 2)), int(rng.integers(r + 2, h - r - 2)), r))
    return out


def depth_pair(seed: int, index: int, w: int = DEPTH_W, h: int = DEPTH_H) -> DepthPair:
    """Smooth surface, planted transient blobs (depth x0.5 or x2) and invalid
    holes in the geometric map; the prior is the clean surface times a
    seeded scale."""
    rng = np.random.default_rng([seed, 3, index])
    ys, xs = np.mgrid[0:h, 0:w]
    u, v = xs / (w - 1), ys / (h - 1)
    a, b, c = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.4)
    f1, f2, p1, p2 = rng.uniform(1, 3), rng.uniform(1, 3), rng.uniform(0, 1), rng.uniform(0, 1)
    surface = 4.0 + a * u + b * v + c * np.sin(2 * np.pi * (f1 * u + p1)) * np.cos(2 * np.pi * (f2 * v + p2))
    factor = np.ones((h, w))
    for cx, cy, r in _discs(rng, 12, 12, 48, w, h):
        factor[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = rng.choice([0.5, 2.0])
    hole = np.zeros((h, w), dtype=bool)
    for cx, cy, r in _discs(rng, 16, 4, 30, w, h):
        hole |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    geom = (surface * factor).astype(np.float32)
    geom[hole] = 0.0
    mono = (surface * rng.uniform(0.3, 3.0)).astype(np.float32)
    return DepthPair(geom, mono, factor != 1.0, hole)


def write_pfm(path: str, values: np.ndarray) -> None:
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n%d %d\n-1.0\n" % (w, h))
        f.write(np.flipud(values).astype("<f4").tobytes())


def read_pfm(path: str) -> np.ndarray:
    """Single-channel PFM -> float32 (H, W) array, top row first."""
    with open(path, "rb") as f:
        magic, size, scale, body = f.read().split(b"\n", 3)
    w, h = (int(x) for x in size.split())
    if magic != b"Pf" or len(body) != 4 * w * h:
        raise ValueError(f"{path}: not a {w}x{h} single-channel PFM")
    scale = float(scale)
    grid = np.frombuffer(body, dtype="<f4" if scale < 0 else ">f4").reshape(h, w)
    return np.flipud(grid).astype(np.float32)


def digest_files(paths) -> str:
    """sha256 over (file name, bytes) of each path, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def digest_tree(directory: str) -> str:
    paths = []
    for base, _, files in os.walk(directory):
        paths.extend(os.path.join(base, name) for name in files)
    paths.sort(key=lambda p: os.path.relpath(p, directory))
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, directory).encode() + b"\0" + digest_files([p]).encode())
    return h.hexdigest()


# -- pose-eval inputs -------------------------------------------------------
#
# The predicted poses of a batch are its ground-truth poses moved by one
# seeded similarity transform (which no relative-pose metric can see), with
# one view rotated by a known angle about a known axis in its camera frame.
# The camera centre of that view is kept, so the expected pair errors have a
# closed form (see checks.expected_pose_errors).

PERTURB_DEGREES = (2.5, 7.5, 12.5, 22.5, 40.0)  # none on a pose-eval threshold


@dataclass(frozen=True)
class Perturbation:
    view: int
    axis: tuple[float, float, float]
    degrees: float


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (w, x, y, z) quaternions: R(a * b) = R(a) R(b)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def perturbation(seed: int, batch_index: int, views) -> Perturbation:
    rng = np.random.default_rng([seed, 4, batch_index])
    ordered = sorted(views)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Perturbation(
        view=ordered[int(rng.integers(len(ordered)))],
        axis=tuple(float(a) for a in axis),
        degrees=float(rng.choice(PERTURB_DEGREES)),
    )


def write_pose_files(quats, trans, views, seed: int, batch_index: int, gt_path: str, pred_path: str) -> None:
    rng = np.random.default_rng([seed, 5])
    q_sim = rng.normal(size=4)
    q_sim /= np.linalg.norm(q_sim)
    q_sim_inv = q_sim * np.array([1.0, -1.0, -1.0, -1.0])
    s, d = rng.uniform(0.5, 2.0), rng.normal(0.0, 50.0, 3)
    pert = perturbation(seed, batch_index, views)
    half = math.radians(pert.degrees) / 2
    p = np.array([math.cos(half), *(math.sin(half) * np.array(pert.axis))])
    rot_p = rotation_matrices(p[None])[0]
    with open(gt_path, "w") as gt, open(pred_path, "w") as pred:
        for v in sorted(views):
            q, t = quats[v - 1], trans[v - 1]
            gt.write(pose_line(v, q, t))
            q2 = quat_mul(q, q_sim_inv)
            q2 /= np.linalg.norm(q2)
            t2 = s * t - rotation_matrices(q2[None])[0] @ d
            if v == pert.view:
                q2 = quat_mul(p, q2)
                q2 /= np.linalg.norm(q2)
                t2 = rot_p @ t2
            pred.write(pose_line(v, q2, t2))
