"""Deterministic synthetic scenes and depth fixtures for tests and the CLI.

The ring scene places camera clusters on a circle in the horizontal (XZ)
plane, fully connected inside each cluster and bridged to the next cluster by
one weaker edge, with every camera looking at the ring center. The depth
fixture returns its blob mask alongside the maps, so property tests have an
oracle for free. Poses are computed in Python floats; only the depth fixture
imports numpy and the depth map type, itself, so importing this module, or
writing a ring or grid scene, loads neither.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InvalidSpec
from .recon_io import (
    MATCH_COUNT_LIMIT,
    CameraIntrinsics,
    CameraModel,
    PosedView,
    ScenePoint,
    SceneReconstruction,
    rotation_matrix,
)


def _shown(value) -> str:
    """`value` for a message; an int too long to print in full (str() of an
    int past the interpreter's digit limit raises ValueError) by its size."""
    if isinstance(value, int) and value.bit_length() > 64:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"
    return str(value)


@dataclass(frozen=True)
class SynthSpec:
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
        for name in ("intra_weight", "inter_weight"):
            value = getattr(self, name)
            if value < 0:
                raise InvalidSpec(f"{name} must be >= 0, got {_shown(value)}")
            if value >= MATCH_COUNT_LIMIT:
                raise InvalidSpec(f"{name} must be below 2**63, got {_shown(value)}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidSpec(f"radius must be a finite number > 0, got {self.radius}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidSpec(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")


def _look_at_quaternion(position, target):
    """World-to-camera quaternion for a camera at `position` looking at
    `target` (camera axes: x right, y down, z forward), world up +Y.

    A camera with no finite direction of length >= 1e-12 to its target raises
    InvalidSpec (a position that is not finite has none). Every sum is written
    out in Python floats, so the bits depend on no linear-algebra kernel."""
    fx, fy, fz = (b - a for a, b in zip(position, target))
    norm = math.sqrt((fx * fx + fy * fy) + fz * fz)
    if not (math.isfinite(norm) and norm >= 1e-12):
        raise InvalidSpec(
            f"radius and noise_sigma put a camera at {position}, which is not a finite "
            f"distance >= 1e-12 from its target {target}"
        )
    fx, fy, fz = fx / norm, fy / norm, fz / norm
    # the rows of the world-to-camera rotation: right = up x forward = (rx, 0,
    # rz), down = forward x right, forward; straight up or down, right is +X.
    # 0.0 - fx, as the cross product has it, keeps a zero rz positive
    rnorm = math.sqrt(fz * fz + fx * fx)
    rx, rz = (fz / rnorm, (0.0 - fx) / rnorm) if rnorm >= 1e-12 else (1.0, 0.0)
    dx, dy, dz = fy * rz, fz * rx - fx * rz, -fy * rx
    # Shepperd's method (J. Guidance and Control 1(3), 1978), w and y branches,
    # on rows r = (right, down, forward): with world up +Y, r[1,1] = cos(pitch)
    # >= 0 and r[0,0] = r[2,2] / cos(pitch), so a trace <= 0 needs r[2,2] < 0,
    # and then r[1,1] is the largest diagonal entry (no x or z branch is taken)
    tr = (rx + dy) + fz
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = (0.25 * s, (fy - dz) / s, (rz - fx) / s, dx / s)
    else:
        s = math.sqrt(((1.0 + dy) - rx) - fz) * 2
        q = ((rz - fx) / s, dx / s, 0.25 * s, (dz + fy) / s)
    qnorm = math.sqrt(((q[0] * q[0] + q[1] * q[1]) + q[2] * q[2]) + q[3] * q[3])
    return tuple(c / qnorm for c in q)


def _view_from_position(view_id, camera_id, position, target, name):
    """A view at `position` facing `target`, with translation -R p, summed
    from the negated products so that a sum that cancels writes 0.0, not -0.0."""
    q = _look_at_quaternion(position, target)
    r = rotation_matrix(q)
    px, py, pz = position
    t = tuple(-row[0] * px - row[1] * py - row[2] * pz for row in r)
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
    if spec.intra_weight < spec.inter_weight:
        raise InvalidSpec("intra_weight must be >= inter_weight")
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

    points = []
    for c in range(k):
        angle = 2.0 * math.pi * (c + 0.5) / k
        xyz = (0.3 * spec.radius * math.cos(angle), 0.0, 0.3 * spec.radius * math.sin(angle))
        points.append(ScenePoint(c + 1, xyz, tuple(cluster_members[c])))

    return SceneReconstruction(
        scene_id=f"ring-{k}x{m}-s{spec.seed}",
        intrinsics={1: _DEFAULT_CAMERA},
        views=views,
        edges=edge_weights,
        points=points,
    )


def gen_grid_scene(spec: SynthSpec) -> SceneReconstruction:
    """cluster_count x cluster_count camera grid with 4-neighbor edges."""
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
    center = ((g - 1) * spacing / 2.0, 0.0, (g - 1) * spacing / 2.0)
    points = [ScenePoint(1, center, tuple(sorted(views)))]
    return SceneReconstruction(
        scene_id=f"grid-{g}x{g}-s{spec.seed}",
        intrinsics={1: _DEFAULT_CAMERA},
        views=views,
        edges=edge_weights,
        points=points,
    )


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
    import numpy as np

    from .depth_filter import DepthMap

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
