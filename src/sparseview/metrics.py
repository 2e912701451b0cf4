"""Coverage and sparsity diagnostics for sampled sets, camera azimuth
coverage, and pairwise relative-pose error metrics.

The graph metrics are pure Python; the functions that compute with numpy
import it themselves, so importing this module does not load it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    EmptySample,
    IdMismatch,
    InvalidK,
    InvalidSpec,
    LengthMismatch,
    NoCameras,
    NoPoints,
    TooFewSamples,
)
from .recon_io import PosedView, SceneReconstruction, rotation_matrix
from .view_graph import ViewGraph, bfs_distances

if TYPE_CHECKING:
    import numpy as np


def k_hop_coverage(graph: ViewGraph, sampled, k: int) -> float:
    """Fraction of graph nodes within k hops of any sampled node."""
    frontier = sorted(set(sampled))
    if not frontier:
        raise EmptySample("sampled set is empty")
    if k < 0:
        raise InvalidK(f"k={k} must be >= 0")
    reached = [False] * graph.node_count
    for v in frontier:
        reached[v] = True
    for _ in range(k):
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if not reached[v]:
                    reached[v] = True
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return sum(reached) / graph.node_count


def avg_nearest_sample_dist(positions, nodes, sampled) -> float:
    """Mean distance from every node to its closest sampled node (by node)."""
    import numpy as np

    sampled = sorted(set(sampled))
    if not sampled:
        raise EmptySample("sampled set is empty")
    nodes = sorted(nodes)
    p = np.array([positions[u] for u in nodes], dtype=float)
    s = np.array([positions[v] for v in sampled], dtype=float)
    # squared distances one coordinate at a time into one reused buffer: no
    # (N, n, dim) temporary, and at most two float (N, n) arrays alive
    d2 = np.zeros((len(p), len(s)))
    diff = np.empty_like(d2)
    for c in range(p.shape[1]):
        np.subtract(p[:, c, None], s[None, :, c], out=diff)
        diff *= diff
        d2 += diff
    del diff
    nearest = d2.argmin(axis=1).tolist()
    # where a runner-up is within rounding of the minimum (equidistant
    # samples are common on lattices), math.dist picks among the candidates,
    # since the two roundings can order them differently
    close = d2 <= d2.min(axis=1, keepdims=True) * (1 + 1e-9)
    tied = set(np.flatnonzero(close.sum(axis=1) > 1).tolist())
    total = 0.0
    for i, u in enumerate(nodes):
        if i in tied:
            total += min(
                math.dist(positions[u], positions[sampled[j]])
                for j in np.flatnonzero(close[i]).tolist()
            )
        else:
            total += math.dist(positions[u], positions[sampled[nearest[i]]])
    return total / len(nodes)


@dataclass
class DispersionResult:
    graph_dispersion: float | None
    euclidean_dispersion: float
    excluded_pairs: int  # sampled pairs with no connecting path


def dispersion(graph: ViewGraph, positions, sampled) -> DispersionResult:
    """Mean pairwise hop distance and Euclidean distance within the sampled nodes.

    Unreachable pairs are excluded from the hop mean and counted.
    """
    sampled = sorted(set(sampled))
    if len(sampled) < 2:
        raise TooFewSamples("dispersion needs at least two samples")
    hop_sum, hop_pairs, excluded = 0.0, 0, 0
    eu_sum = 0.0
    for i, u in enumerate(sampled[:-1]):
        later = sampled[i + 1 :]
        hops = bfs_distances(graph, u, later)
        for v in later:
            if v in hops:
                hop_sum += hops[v]
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis (of length 3), broadcast, summed
    elementwise as (a0 b0 + a1 b1) + a2 b2, so no BLAS kernel sets the bits."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def _times_transposed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] b[k]^T for stacked (m, 3, 3) matrices."""
    return _dots(a[:, :, None], b[:, None])


def _norms(x: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.sqrt(_dots(x, x))


def _degrees_atan2(y: np.ndarray, x: np.ndarray) -> list[float]:
    return [math.degrees(math.atan2(a, b)) for a, b in zip(y.tolist(), x.tolist())]


def _rotation_angles_deg(r: np.ndarray) -> list[float]:
    """Rotation angle of each (m, 3, 3) rotation matrix, stable near 0 and
    180 degrees."""
    import numpy as np

    axial = np.stack(
        [r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], axis=1
    )
    s = _norms(axial) / 2.0
    c = (((r[:, 0, 0] + r[:, 1, 1]) + r[:, 2, 2]) - 1.0) / 2.0
    return _degrees_atan2(s, c)


_PAIR_BLOCK = 1 << 14  # pairs per stacked block in pose_pair_errors
DEFAULT_THRESHOLDS = (5, 10, 15, 30)  # degrees, for RRA, RTA and AUC


def check_thresholds(thresholds) -> None:
    """InvalidSpec unless `thresholds` are distinct whole degrees in [1, 180]:
    AUC@t averages the accuracy at 0, 1, ..., t degrees, and no rotation or
    direction error exceeds 180."""
    for t in thresholds:
        if not (isinstance(t, int) and 1 <= t <= 180):
            raise InvalidSpec(f"thresholds must be whole degrees in [1, 180], got {t!r}")
    if len(set(thresholds)) < len(thresholds):
        raise InvalidSpec(f"thresholds must be distinct, got {list(thresholds)}")


def _pair_errors(pred, gt, i: np.ndarray, j: np.ndarray) -> tuple[list[float], list[float]]:
    """Rotation and translation-direction errors in degrees of the pairs
    (i[k], j[k]); pred and gt are (rotations (n, 3, 3), translations (n, 3))."""
    import numpy as np

    (rs_p, ts_p), (rs_g, ts_g) = pred, gt
    rel_p = _times_transposed(rs_p[j], rs_p[i])
    rel_g = _times_transposed(rs_g[j], rs_g[i])
    rot = _rotation_angles_deg(_times_transposed(rel_p, rel_g))
    tp = ts_p[j] - _dots(rel_p, ts_p[i][:, None])
    tg = ts_g[j] - _dots(rel_g, ts_g[i][:, None])
    norm_p, norm_g = _norms(tp), _norms(tg)
    zero_p, zero_g = norm_p < 1e-12, norm_g < 1e-12
    up = tp / np.where(zero_p, 1.0, norm_p)[:, None]
    ug = tg / np.where(zero_g, 1.0, norm_g)[:, None]
    angles = _degrees_atan2(_norms(np.cross(up, ug)), _dots(up, ug))
    # a zero baseline has no direction: both zero -> 0, one zero -> 90
    trans = [
        0.0 if zp and zg else 90.0 if zp or zg else a
        for zp, zg, a in zip(zero_p.tolist(), zero_g.tolist(), angles)
    ]
    return rot, trans


def pose_pair_errors(
    views_pred: list[PosedView],
    views_gt: list[PosedView],
    thresholds=DEFAULT_THRESHOLDS,
) -> PosePairErrors:
    """Relative rotation / translation-direction errors over all view pairs.

    RRA@t / RTA@t are the fractions of pairs strictly under t degrees; AUC@t
    integrates the accuracy curve of max(rot, trans) <= x trapezoidally over
    1-degree steps up to t. Both relative quantities are invariant to global
    similarity transforms of either pose set.
    """
    import numpy as np

    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    check_thresholds(thresholds)
    if len(views_pred) != len(views_gt):
        raise LengthMismatch(f"{len(views_pred)} pred vs {len(views_gt)} gt")
    if len(views_pred) < 2:
        raise TooFewSamples("need at least two views")
    for p, g in zip(views_pred, views_gt):
        if p.view_id != g.view_id:
            raise IdMismatch(f"view {p.view_id} aligned against {g.view_id}")

    def stacked(views):
        rs = np.array([rotation_matrix(v.rotation) for v in views], dtype=float)
        ts = np.array([v.translation for v in views], dtype=float)
        return rs, ts

    pred, gt = stacked(views_pred), stacked(views_gt)
    n = len(views_pred)
    views = np.arange(n)
    rows = max(1, _PAIR_BLOCK // n)
    rot_errors: list[float] = []
    trans_errors: list[float] = []
    # a block of whole rows i at a time, every j > i stacked: the pairs come
    # in nested-loop order, a batch is one block, and a whole scene never
    # holds more than max(n, _PAIR_BLOCK) pairs' matrices at once
    for i0 in range(0, n - 1, rows):
        i, j = np.nonzero(views[i0 : i0 + rows, None] < views)
        rot, trans = _pair_errors(pred, gt, i + i0, j)
        rot_errors += rot
        trans_errors += trans

    rot = np.array(rot_errors)
    trans = np.array(trans_errors)
    joint = np.maximum(rot, trans)
    rra = {t: float((rot < t).mean()) for t in thresholds}
    rta = {t: float((trans < t).mean()) for t in thresholds}
    auc = {}
    for t in thresholds:
        xs = np.arange(t + 1)
        acc = np.array([(joint <= x).mean() for x in xs])
        auc[t] = float(trapezoid(acc, xs) / t)
    return PosePairErrors(
        rotation_errors=rot_errors,
        translation_errors=trans_errors,
        rra_at=rra,
        rta_at=rta,
        auc_at=auc,
        mre=float(rot.mean()),
        mte=float(trans.mean()),
    )
