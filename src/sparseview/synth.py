"""Deterministic synthetic scenes and depth fixtures for tests and the CLI.

The ring scene places camera clusters on a circle in the horizontal (XZ)
plane, fully connected inside each cluster and bridged to the next cluster by
one weaker edge, with every camera looking at the ring center. Ground truth
(cluster membership, blob masks) is returned alongside the data so property
tests have oracles for free.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .depth_filter import DepthMap
from .errors import InvalidSpec
from .recon_io import (
    CameraIntrinsics,
    CameraModel,
    MatchEdge,
    PosedView,
    ScenePoint,
    SceneReconstruction,
    rotation_matrix,
)


class SynthKind(Enum):
    RING_OF_CLUSTERS = "ring"
    GRID_SCENE = "grid"
    DEPTH_FIXTURE = "depth"


@dataclass(frozen=True)
class SynthSpec:
    kind: SynthKind
    cluster_count: int = 6
    cluster_size: int = 5
    intra_weight: int = 100
    inter_weight: int = 60
    radius: float = 10.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.cluster_count < 1 or self.cluster_size < 1:
            raise InvalidSpec("cluster counts must be >= 1")
        if self.inter_weight < 0:
            raise InvalidSpec(f"inter_weight must be >= 0, got {self.inter_weight}")
        if self.intra_weight < self.inter_weight:
            raise InvalidSpec("intra_weight must be >= inter_weight")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidSpec(f"radius must be a finite number > 0, got {self.radius}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidSpec(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")


def _look_at_quaternion(position, target):
    """World-to-camera quaternion for a camera at `position` looking at
    `target` (camera axes: x right, y down, z forward), world up +Y."""
    fwd = np.array(target, dtype=float) - np.array(position, dtype=float)
    norm = np.linalg.norm(fwd)
    if norm < 1e-12:
        fwd = np.array([0.0, 0.0, 1.0])
    else:
        fwd = fwd / norm
    right = np.cross(np.array([0.0, 1.0, 0.0]), fwd)
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-12:
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = right / rnorm
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd])  # rows of world-to-camera rotation
    # Shepperd's method
    tr = np.trace(r)
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        w = 0.25 * s
        x = (r[2, 1] - r[1, 2]) / s
        y = (r[0, 2] - r[2, 0]) / s
        z = (r[1, 0] - r[0, 1]) / s
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2
        w = (r[2, 1] - r[1, 2]) / s
        x = 0.25 * s
        y = (r[0, 1] + r[1, 0]) / s
        z = (r[0, 2] + r[2, 0]) / s
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2
        w = (r[0, 2] - r[2, 0]) / s
        x = (r[0, 1] + r[1, 0]) / s
        y = 0.25 * s
        z = (r[1, 2] + r[2, 1]) / s
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2
        w = (r[1, 0] - r[0, 1]) / s
        x = (r[0, 2] + r[2, 0]) / s
        y = (r[1, 2] + r[2, 1]) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    q = q / np.linalg.norm(q)
    return tuple(float(c) for c in q)


def _view_from_position(view_id, camera_id, position, target, name):
    q = _look_at_quaternion(position, target)
    r = np.array(rotation_matrix(q))
    t = tuple(float(c) for c in -r @ np.array(position, dtype=float))
    return PosedView(view_id, camera_id, q, t, name)


_DEFAULT_CAMERA = CameraIntrinsics(
    camera_id=1,
    model=CameraModel.SIMPLE_PINHOLE,
    width=640,
    height=480,
    params=(500.0, 320.0, 240.0),
)


def gen_ring_scene(spec: SynthSpec) -> SceneReconstruction:
    """Clusters on a ring: complete intra-cluster edges at intra_weight,
    single inter-cluster bridges at inter_weight between lowest-id members."""
    if spec.kind is not SynthKind.RING_OF_CLUSTERS:
        raise InvalidSpec(f"expected ring spec, got {spec.kind}")
    rng = random.Random(spec.seed)
    k, m = spec.cluster_count, spec.cluster_size
    views: dict[int, PosedView] = {}
    cluster_members: list[list[int]] = []
    local_r = 0.15 * spec.radius
    for c in range(k):
        # cluster azimuths sit at bin centers, away from 10-degree bin edges
        angle = 2.0 * math.pi * (c + 0.5) / k
        cx, cz = spec.radius * math.cos(angle), spec.radius * math.sin(angle)
        members = []
        for i in range(m):
            vid = c * m + i + 1
            # local circle rotated into the cluster's radial frame, so a
            # single-member cluster sits exactly on the cluster azimuth
            phi = angle + 2.0 * math.pi * i / m
            pos = (
                cx + local_r * math.cos(phi) + rng.gauss(0.0, spec.noise_sigma),
                rng.gauss(0.0, spec.noise_sigma),
                cz + local_r * math.sin(phi) + rng.gauss(0.0, spec.noise_sigma),
            )
            views[vid] = _view_from_position(vid, 1, pos, (0.0, 0.0, 0.0), f"cam{vid:04d}.jpg")
            members.append(vid)
        cluster_members.append(members)

    edge_weights: dict[tuple[int, int], int] = {}
    for members in cluster_members:
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                edge_weights[(a, b)] = spec.intra_weight
    if k >= 2:
        bridges = range(k) if k > 2 else [0]
        for c in bridges:
            a = cluster_members[c][0]
            b = cluster_members[(c + 1) % k][0]
            edge_weights[(min(a, b), max(a, b))] = spec.inter_weight
    edges = [MatchEdge(a, b, w) for (a, b), w in sorted(edge_weights.items())]

    points = []
    for c in range(k):
        angle = 2.0 * math.pi * (c + 0.5) / k
        xyz = (0.3 * spec.radius * math.cos(angle), 0.0, 0.3 * spec.radius * math.sin(angle))
        points.append(ScenePoint(c + 1, xyz, tuple(cluster_members[c])))

    scene = SceneReconstruction(
        scene_id=f"ring-{k}x{m}-s{spec.seed}",
        intrinsics={1: _DEFAULT_CAMERA},
        views=views,
        edges=edges,
        points=points,
    )
    scene.validate()
    return scene


def ring_ground_truth(spec: SynthSpec) -> dict[int, int]:
    """view_id -> cluster index for a ring scene with this spec."""
    return {
        c * spec.cluster_size + i + 1: c
        for c in range(spec.cluster_count)
        for i in range(spec.cluster_size)
    }


def gen_grid_scene(spec: SynthSpec) -> SceneReconstruction:
    """cluster_count x cluster_count camera grid with 4-neighbor edges."""
    if spec.kind is not SynthKind.GRID_SCENE:
        raise InvalidSpec(f"expected grid spec, got {spec.kind}")
    g = spec.cluster_count
    spacing = spec.radius / max(g - 1, 1)
    rng = random.Random(spec.seed)
    views: dict[int, PosedView] = {}
    edge_weights: dict[tuple[int, int], int] = {}
    for row in range(g):
        for col in range(g):
            vid = row * g + col + 1
            pos = (
                col * spacing + rng.gauss(0.0, spec.noise_sigma),
                rng.gauss(0.0, spec.noise_sigma),
                row * spacing + rng.gauss(0.0, spec.noise_sigma),
            )
            target = (pos[0], pos[1], pos[2] + 1.0)  # all face +Z
            views[vid] = _view_from_position(vid, 1, pos, target, f"cam{vid:04d}.jpg")
            if col + 1 < g:
                edge_weights[(vid, vid + 1)] = spec.intra_weight
            if row + 1 < g:
                edge_weights[(vid, vid + g)] = spec.intra_weight
    edges = [MatchEdge(a, b, w) for (a, b), w in sorted(edge_weights.items())]
    center = ((g - 1) * spacing / 2.0, 0.0, (g - 1) * spacing / 2.0)
    points = [ScenePoint(1, center, tuple(sorted(views)))]
    scene = SceneReconstruction(
        scene_id=f"grid-{g}x{g}-s{spec.seed}",
        intrinsics={1: _DEFAULT_CAMERA},
        views=views,
        edges=edges,
        points=points,
    )
    scene.validate()
    return scene


# depth fixture geometry; the blob's origin and size are (row, col) pairs
FIXTURE_WIDTH = 64
FIXTURE_HEIGHT = 64
BLOB_ORIGIN = (20, 24)
BLOB_SIZE = (10, 12)


def gen_depth_fixture(spec: SynthSpec) -> tuple[DepthMap, DepthMap, set[tuple[int, int]]]:
    """Smooth-ramp depth pair with a transient blob in the geometric map only.

    The blob doubles the geometric depth, so its normalized discrepancy after
    median alignment is ~0.5, well past the 0.25 default threshold; the
    monocular map is the clean ramp times a seeded global scale in [0.3, 3].
    Returns (geom, mono, blob pixel set) with blob pixels as (row, col).
    """
    if spec.kind is not SynthKind.DEPTH_FIXTURE:
        raise InvalidSpec(f"expected depth spec, got {spec.kind}")
    rng = random.Random(spec.seed)
    height, width = FIXTURE_HEIGHT, FIXTURE_WIDTH
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    base = 5.0 + 2.0 * xs / max(width - 1, 1) + 1.0 * ys / max(height - 1, 1)
    geom = base.copy()
    r0, c0 = BLOB_ORIGIN
    bh, bw = BLOB_SIZE
    blob = {
        (r, c)
        for r in range(r0, min(r0 + bh, height))
        for c in range(c0, min(c0 + bw, width))
    }
    for r, c in blob:
        geom[r, c] = 2.0 * base[r, c]
    mono_scale = rng.uniform(0.3, 3.0)
    mono = mono_scale * base
    return DepthMap(geom), DepthMap(mono), blob
