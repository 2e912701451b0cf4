"""Output checkers that do not use the program's code.

Every check recomputes what it compares from the benchmark's own inputs,
with numpy and scipy.sparse.csgraph, and checks method properties, never a
stored copy of earlier output. Each error message starts with the name of
the check that raised it, so the self-test (selftest.py) can show that every
check rejects the corruption aimed at it.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path
from scipy.spatial.transform import Rotation

from inputs import PRUNE_THRESHOLD, Scene, camera_centers, perturbation, read_pfm, rotation_matrices

SEARCH_PHASES = ("terminal", "steiner", "greedy")
PRESET_LIMITS = {  # preset -> (n_cc range, search depth range)
    "sparse": ((4, 4), (24, 24)),
    "mixed": ((1, 4), (5, 24)),
}


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class SceneTruth:
    """The pruned graph and camera centres, derived from the generated scene
    with the benchmark's own threshold."""

    def __init__(self, scene: Scene, threshold: int = PRUNE_THRESHOLD):
        self.scene_id = scene.scene_id
        self.n = scene.n_views
        kept = np.array([e for e, c in scene.edges.items() if c >= threshold]) - 1
        rows = np.concatenate([kept[:, 0], kept[:, 1]])
        cols = np.concatenate([kept[:, 1], kept[:, 0]])
        self.csr = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.n, self.n))
        self.neighbours: list[list[int]] = [[] for _ in range(self.n + 1)]
        for a, b in kept + 1:
            self.neighbours[a].append(int(b))
            self.neighbours[b].append(int(a))
        self.centres = camera_centers(scene.quats, scene.trans)
        self.quats, self.trans = scene.quats, scene.trans


def component_count(views, truth: SceneTruth) -> int:
    """Connected pieces of the batch-induced pruned graph, by union-find."""
    parent = {v: v for v in views}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in views:
        for v in truth.neighbours[u]:
            if v in parent:
                parent[find(u)] = find(v)
    return len({find(v) for v in views})


def check_batches(text: str, truth: SceneTruth, preset: str, n_views: int, expected: int):
    """Returns (errors, truncated batch count, parsed records)."""
    errors: list[str] = []
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(records) != expected:
        errors.append(f"batch_count: expected {expected} batches, got {len(records)}")
    (cc_lo, cc_hi), (d_lo, d_hi) = PRESET_LIMITS[preset]
    community: dict[int, int] = {}
    truncated = 0
    for i, rec in enumerate(records):
        views, prov, cfg = rec["views"], rec["provenance"], rec["config"]
        ncc, depth = cfg["max_components"], cfg["search_depth"]
        if rec["scene_id"] != truth.scene_id or cfg["n_views"] != n_views:
            errors.append(f"batch_config: batch {i} scene/n_views {rec['scene_id']}/{cfg['n_views']}")
        if not (cc_lo <= ncc <= cc_hi and d_lo <= depth <= d_hi):
            errors.append(f"batch_config: batch {i} ncc {ncc} depth {depth} outside preset {preset}")
        ok_ids = all(type(v) is int and 1 <= v <= truth.n for v in views)
        if not ok_ids or len(set(views)) != len(views) or len(views) > cfg["n_views"]:
            errors.append(f"views_distinct_in_scene: batch {i} has repeated or unknown views")
            continue
        if len(prov) != len(views):
            errors.append(f"batch_config: batch {i} has {len(prov)} provenance records for {len(views)} views")
            continue
        if rec["truncated"] or len(views) < cfg["n_views"]:
            truncated += 1
        got = component_count(views, truth)
        if got > ncc:
            errors.append(f"component_bound: batch {i} has {got} components, bound {ncc}")
        parts: dict[int, list[tuple[int, dict]]] = {}
        for v, p in zip(views, prov):
            parts.setdefault(p["partition"], []).append((v, p))
            if community.setdefault(v, p["community"]) != p["community"]:
                errors.append(f"community_consistent: view {v} labelled {p['community']} and {community[v]}")
        for part, members in sorted(parts.items()):
            if not 0 <= part < ncc:
                errors.append(f"batch_config: batch {i} partition index {part} >= {ncc}")
            idx = [v - 1 for v, _ in members]
            if connected_components(truth.csr[idx][:, idx], directed=False)[0] != 1:
                errors.append(f"partition_connected: batch {i} partition {part} is not connected")
            search = [p for _, p in members if p["phase"] in SEARCH_PHASES]
            if len(search) > depth:
                errors.append(f"search_depth: batch {i} partition {part} has {len(search)} search views > {depth}")
            terminal_comms = [p["community"] for p in search if p["phase"] == "terminal"]
            if len(set(terminal_comms)) != len(terminal_comms):
                errors.append(f"community_consistent: batch {i} partition {part} repeats a terminal community")
    return errors, truncated, records


def expected_coverage(views, truth: SceneTruth, k: int) -> dict:
    idx = np.array(sorted(set(views))) - 1
    reach = dijkstra(truth.csr, directed=False, indices=idx, unweighted=True, limit=k, min_only=True)
    pts = truth.centres
    sample = pts[idx]
    nearest = np.sqrt(((pts[:, None, :] - sample[None, :, :]) ** 2).sum(-1)).min(axis=1)
    hops = shortest_path(truth.csr, directed=False, unweighted=True, indices=idx)[:, idx]
    upper = np.triu_indices(len(idx), 1)
    pair_hops = hops[upper]
    finite = np.isfinite(pair_hops)
    euclid = np.sqrt(((sample[:, None, :] - sample[None, :, :]) ** 2).sum(-1))[upper]
    return {
        "views": len(views),
        "cov": float(np.isfinite(reach).sum()) / truth.n,
        "avg_nearest": float(nearest.mean()),
        "graph_disp": float(pair_hops[finite].mean()) if finite.any() else None,
        "euclid_disp": float(euclid.mean()),
        "excluded_pairs": int((~finite).sum()),
    }


def _num(tok: str):
    return None if tok == "absent" else float(tok)


def check_coverage(text: str, records, truth: SceneTruth, k: int) -> list[str]:
    errors: list[str] = []
    lines = text.splitlines()
    if len(lines) != len(records) + 1:
        return [f"coverage: expected {len(records) + 1} lines, got {len(lines)}"]
    keys = ("views", f"cov{k}", "avg_nearest", "graph_disp", "euclid_disp", "excluded_pairs")
    sums = {"cov": [], "avg_nearest": [], "graph_disp": [], "euclid_disp": []}
    for i, (line, rec) in enumerate(zip(lines, records)):
        toks = line.split()
        got = dict(zip(toks[2::2], toks[3::2]))
        if toks[:2] != ["batch", str(i)] or tuple(got) != keys:
            errors.append(f"coverage: malformed line {i}: {line!r}")
            continue
        want = expected_coverage(rec["views"], truth, k)
        for key, exp in want.items():
            val = _num(got[f"cov{k}" if key == "cov" else key])
            if (val is None) != (exp is None) or (exp is not None and not _close(val, exp)):
                errors.append(f"coverage: batch {i} {key} {val!r}, recomputed {exp!r}")
            if key in sums and exp is not None:
                sums[key].append(exp)
    toks = lines[-1].split()
    agg = dict(zip(toks[1::2], toks[2::2]))
    for key, vals in sums.items():
        name = f"cov{k}" if key == "cov" else key
        val = _num(agg.get(name, "nan"))
        exp = sum(vals) / len(vals) if vals else None
        if (val is None) != (exp is None) or (exp is not None and not _close(val, exp)):
            errors.append(f"coverage: aggregate {key} {val!r}, recomputed {exp!r}")
    return errors


def expected_pose_errors(views, truth: SceneTruth, seed: int, batch_index: int):
    """Per-pair (rotation, translation) errors in degrees implied by the
    planted perturbation: a pair holding the rotated view is off by exactly
    its angle in rotation; its translation direction is off by the angle
    between P v and v (v the true relative translation) when the rotated
    view is the later one of the pair, and not at all otherwise."""
    pert = perturbation(seed, batch_index, views)
    turn = Rotation.from_rotvec(np.radians(pert.degrees) * np.array(pert.axis))
    ids = sorted(views)
    rot = rotation_matrices(truth.quats[np.array(ids) - 1])
    t = truth.trans[np.array(ids) - 1]
    rot_err, trans_err = [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            hit = pert.view in (ids[i], ids[j])
            rot_err.append(pert.degrees if hit else 0.0)
            if ids[j] == pert.view:
                v = t[j] - rot[j] @ rot[i].T @ t[i]
                w = turn.apply(v)
                cos = float(np.dot(v, w) / (np.linalg.norm(v) * np.linalg.norm(w)))
                trans_err.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
            else:
                trans_err.append(0.0)
    return np.array(rot_err), np.array(trans_err)


def check_pose(text: str, views, truth: SceneTruth, seed: int, batch_index: int, thresholds=(5, 10, 15, 30)):
    got = {}
    for line in text.splitlines():
        key, val = line.split()
        got[key] = float(val)
    rot, trans = expected_pose_errors(views, truth, seed, batch_index)
    joint = np.maximum(rot, trans)
    want = {"pairs": (len(rot), len(rot)), "mre": (rot.mean(),) * 2, "mte": (trans.mean(),) * 2}
    for t in thresholds:
        want[f"rra@{t}"] = ((rot < t).mean(),) * 2
        want[f"rta@{t}"] = ((trans < t).mean(),) * 2
        # an error that is 0 in closed form is measured as a rounding residue
        # that may or may not be <= 0, so the x = 0 term is known only as a range
        acc = np.array([(joint <= x).mean() for x in range(t + 1)])
        hi = float((acc[:-1] + acc[1:]).sum() / 2 / t)
        acc[0] = 0.0
        want[f"auc@{t}"] = (float((acc[:-1] + acc[1:]).sum() / 2 / t), hi)
    errors = []
    if set(got) != set(want):
        return [f"pose_eval: batch {batch_index} keys {sorted(got)}"]
    for key, (lo, hi) in want.items():
        tol = 1e-6 if key in ("mre", "mte") else 1e-9
        if not lo - tol <= got[key] <= hi + tol:
            errors.append(f"pose_eval: batch {batch_index} {key} {got[key]!r}, expected {lo!r}..{hi!r}")
    return errors


def _dilate(mask: np.ndarray) -> np.ndarray:
    """Pixels within Chebyshev distance 1 of the mask."""
    padded = np.pad(mask, 1)
    h, w = mask.shape
    out = np.zeros_like(mask)
    for dy in range(3):
        for dx in range(3):
            out |= padded[dy : dy + h, dx : dx + w]
    return out


def check_filtered(out: np.ndarray, geom: np.ndarray, mono: np.ndarray, blob, hole, report_text: str):
    """`out`, `geom` and `mono` are float32 maps as stored in the PFMs."""
    if out.shape != geom.shape:
        return [f"filtered_shape: {out.shape} != {geom.shape}"]
    errors = []
    valid = np.isfinite(geom) & (geom > 0)
    removed = valid & (out == 0)
    survived = (blob & valid & ~removed).sum()
    if survived:
        errors.append(f"blob_removed: {survived} blob pixels survived")
    far = (removed & ~_dilate(blob)).sum()
    if far:
        errors.append(f"nothing_far_removed: {far} pixels removed more than 1 px from any blob")
    if (out[hole] != 0).any():
        errors.append("holes_zero: a hole pixel is nonzero in the output")
    kept = out != 0
    if (out.view(np.uint32)[kept] != geom.view(np.uint32)[kept]).any() or (kept & ~valid).any():
        errors.append("survivor_bits: a kept pixel differs from its input float32 bits")
    report = json.loads(report_text)
    joint = valid & np.isfinite(mono) & (mono > 0)
    g, m = geom[joint].astype(np.float64), mono[joint].astype(np.float64)
    scale = float(np.median(m) / np.median(g))
    n_removed = int(removed.sum())
    if not (
        report["kept"] == int(kept.sum())
        and report["removed_total"] == n_removed
        and int((blob & valid).sum()) <= report["removed_by_depth"] <= n_removed
        and n_removed <= report["removed_by_depth"] + report["removed_by_grad"]
        and _close(report["scale_s"], scale, 1e-12)
    ):
        errors.append(f"report_counts: report {report} vs kept {int(kept.sum())} removed {n_removed} scale {scale!r}")
    return errors


def check_filter_files(out_path: str, geom_path: str, mono_path: str, blob, hole, report_path: str):
    with open(report_path) as f:
        report = f.read()
    return check_filtered(read_pfm(out_path), read_pfm(geom_path), read_pfm(mono_path), blob, hole, report)
