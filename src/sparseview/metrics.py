"""Coverage and sparsity diagnostics for sampled sets, camera azimuth
coverage, and pairwise relative-pose error metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from .errors import (
    EmptySample,
    IdMismatch,
    LengthMismatch,
    NoCameras,
    NoPoints,
    TooFewSamples,
    UnknownNode,
)
from .recon_io import PosedView, SceneReconstruction, rotation_matrix
from .view_graph import ViewGraph, bfs_distances


def k_hop_coverage(graph: ViewGraph, sampled, k: int) -> float:
    """Fraction of graph nodes within k hops of any sampled node."""
    sampled = set(sampled)
    if not sampled:
        raise EmptySample("sampled set is empty")
    for v in sampled:
        if not graph.has_node(v):
            raise UnknownNode(v)
    if k < 0:
        raise ValueError("k must be >= 0")
    reached = set(sampled)
    frontier = set(sampled)
    for _ in range(k):
        nxt = set()
        for u in frontier:
            for v, _ in graph.adjacency[u]:
                if v not in reached:
                    reached.add(v)
                    nxt.add(v)
        frontier = nxt
        if not frontier:
            break
    return len(reached) / graph.node_count


def avg_nearest_sample_dist(positions, nodes, sampled) -> float:
    """Mean distance from every node to its closest sampled node."""
    sampled = sorted(set(sampled))
    if not sampled:
        raise EmptySample("sampled set is empty")
    total = 0.0
    nodes = sorted(nodes)
    for u in nodes:
        total += min(math.dist(positions[u], positions[v]) for v in sampled)
    return total / len(nodes)


@dataclass
class DispersionResult:
    graph_dispersion: float | None
    euclidean_dispersion: float
    excluded_pairs: int  # sampled pairs with no connecting path


def dispersion(graph: ViewGraph, positions, sampled) -> DispersionResult:
    """Mean pairwise hop distance and Euclidean distance within the sample.

    Unreachable pairs are excluded from the hop mean and counted.
    """
    sampled = sorted(set(sampled))
    if len(sampled) < 2:
        raise TooFewSamples("dispersion needs at least two samples")
    hop_sum, hop_pairs, excluded = 0.0, 0, 0
    eu_sum = 0.0
    dist_maps = {u: bfs_distances(graph, u) for u in sampled}
    for i, u in enumerate(sampled):
        for v in sampled[i + 1 :]:
            if v in dist_maps[u]:
                hop_sum += dist_maps[u][v]
                hop_pairs += 1
            else:
                excluded += 1
            eu_sum += math.dist(positions[u], positions[v])
    n_pairs = len(sampled) * (len(sampled) - 1) // 2
    return DispersionResult(
        graph_dispersion=hop_sum / hop_pairs if hop_pairs else None,
        euclidean_dispersion=eu_sum / n_pairs,
        excluded_pairs=excluded,
    )


@dataclass
class AzimuthCoverage:
    bin_count: int
    positional_bins: list[bool]
    rotational_bins: list[bool]
    positional_pct: float
    rotational_pct: float


def _azimuth_bin(vec, gravity_axis: str, bin_count: int) -> int | None:
    """Horizontal azimuth bin of a world vector; None when the horizontal
    projection is degenerate. Bins are half-open, so an angle exactly on an
    edge lands in the higher bin."""
    if gravity_axis == "y":
        hx, hy = vec[0], vec[2]
    elif gravity_axis == "z":
        hx, hy = vec[0], vec[1]
    else:
        raise ValueError(f"unsupported gravity axis {gravity_axis!r}")
    if math.hypot(hx, hy) < 1e-9:
        return None
    angle = math.degrees(math.atan2(hy, hx)) % 360.0
    return int(angle * bin_count / 360.0) % bin_count


AZIMUTH_BINS = 36  # 10-degree bins


def azimuth_coverage(scene: SceneReconstruction, gravity_axis: str = "y") -> AzimuthCoverage:
    """Occupancy of horizontal azimuth bins by camera positions (relative to
    the point-cloud centroid) and by camera viewing directions."""
    bin_count = AZIMUTH_BINS
    if not scene.views:
        raise NoCameras("scene has no cameras")
    if not scene.points:
        raise NoPoints("positional coverage needs a point cloud centroid")
    centroid = scene.centroid()
    pos_bins = [False] * bin_count
    rot_bins = [False] * bin_count
    for view in scene.views.values():
        offset = tuple(p - c for p, c in zip(view.position, centroid))
        b = _azimuth_bin(offset, gravity_axis, bin_count)
        if b is not None:
            pos_bins[b] = True
        b = _azimuth_bin(view.forward_axis(), gravity_axis, bin_count)
        if b is not None:
            rot_bins[b] = True
    return AzimuthCoverage(
        bin_count=bin_count,
        positional_bins=pos_bins,
        rotational_bins=rot_bins,
        positional_pct=sum(pos_bins) / bin_count,
        rotational_pct=sum(rot_bins) / bin_count,
    )


@dataclass
class PosePairErrors:
    rotation_errors: list[float]
    translation_errors: list[float]
    rra_at: dict[float, float]
    rta_at: dict[float, float]
    auc_at: dict[float, float]
    mre: float
    mte: float


def _rotation_angle_deg(r: np.ndarray) -> float:
    """Rotation angle of a rotation matrix, stable near 0 and 180 degrees."""
    axial = np.array(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    )
    s = float(np.linalg.norm(axial)) / 2.0
    c = (float(np.trace(r)) - 1.0) / 2.0
    return math.degrees(math.atan2(s, c))


def _vector_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    cross = float(np.linalg.norm(np.cross(a, b)))
    dot = float(np.dot(a, b))
    return math.degrees(math.atan2(cross, dot))


def pose_pair_errors(
    views_pred: list[PosedView],
    views_gt: list[PosedView],
    thresholds=(5, 10, 15, 30),
) -> PosePairErrors:
    """Relative rotation / translation-direction errors over all view pairs.

    RRA@t / RTA@t are the fractions of pairs strictly under t degrees; AUC@t
    integrates the accuracy curve of max(rot, trans) <= x trapezoidally over
    1-degree steps up to t. Both relative quantities are invariant to global
    similarity transforms of either pose set.
    """
    if len(views_pred) != len(views_gt):
        raise LengthMismatch(f"{len(views_pred)} pred vs {len(views_gt)} gt")
    if len(views_pred) < 2:
        raise TooFewSamples("need at least two views")
    for p, g in zip(views_pred, views_gt):
        if p.view_id != g.view_id:
            raise IdMismatch(f"view {p.view_id} aligned against {g.view_id}")

    def relatives(views):
        rs = [np.array(rotation_matrix(v.rotation)) for v in views]
        ts = [np.array(v.translation) for v in views]
        return rs, ts

    rs_p, ts_p = relatives(views_pred)
    rs_g, ts_g = relatives(views_gt)
    n = len(views_pred)
    rot_errors: list[float] = []
    trans_errors: list[float] = []
    for i in range(n):
        for j in range(i + 1, n):
            rel_p = rs_p[j] @ rs_p[i].T
            rel_g = rs_g[j] @ rs_g[i].T
            rot_errors.append(_rotation_angle_deg(rel_p @ rel_g.T))
            tp = ts_p[j] - rel_p @ ts_p[i]
            tg = ts_g[j] - rel_g @ ts_g[i]
            np_, ng = float(np.linalg.norm(tp)), float(np.linalg.norm(tg))
            if np_ < 1e-12 and ng < 1e-12:
                trans_errors.append(0.0)
            elif np_ < 1e-12 or ng < 1e-12:
                trans_errors.append(90.0)
            else:
                trans_errors.append(_vector_angle_deg(tp / np_, tg / ng))

    rot = np.array(rot_errors)
    trans = np.array(trans_errors)
    joint = np.maximum(rot, trans)
    rra = {t: float((rot < t).mean()) for t in thresholds}
    rta = {t: float((trans < t).mean()) for t in thresholds}
    auc = {}
    for t in thresholds:
        xs = np.arange(0, int(t) + 1)
        acc = np.array([(joint <= x).mean() for x in xs])
        auc[t] = float(_trapezoid(acc, xs) / t)
    return PosePairErrors(
        rotation_errors=rot_errors,
        translation_errors=trans_errors,
        rra_at=rra,
        rta_at=rta,
        auc_at=auc,
        mre=float(rot.mean()),
        mte=float(trans.mean()),
    )
