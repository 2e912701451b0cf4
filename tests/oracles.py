"""Independent brute-force oracles used by the tests.

Everything here is written from scratch against the definitions, not by
calling the production code paths it checks.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random

from sparseview.errors import (
    DanglingReference,
    DimensionMismatch,
    MalformedLine,
    NoValidOverlap,
    SelfLoop,
    TooSmall,
)
from sparseview.recon_io import text_lines


def union_find_components(nodes, edges):
    """Connected components via union-find; edges are (u, v) pairs."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())


def modularity_direct(nodes, weighted_edges, labels, resolution=1.0):
    """Q = (1/2m) sum_ij [A_ij - k_i k_j / 2m] delta(c_i, c_j), summed over
    ordered pairs including i == j (A_ii = 0)."""
    a = {(u, v): 0.0 for u in nodes for v in nodes}
    for u, v, w in weighted_edges:
        a[(u, v)] += w
        a[(v, u)] += w
    k = {u: sum(a[(u, v)] for v in nodes) for u in nodes}
    two_m = sum(k.values())
    q = 0.0
    for u in nodes:
        for v in nodes:
            if labels[u] == labels[v]:
                q += a[(u, v)] - resolution * k[u] * k[v] / two_m
    return q / two_m


def set_partitions(items):
    """All partitions of `items` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def best_modularity_partition(nodes, weighted_edges, resolution=1.0):
    """Exhaustive max-modularity partition (feasible up to ~10 nodes)."""
    best_q, best = -math.inf, None
    for part in set_partitions(sorted(nodes)):
        labels = {}
        for i, block in enumerate(part):
            for n in block:
                labels[n] = i
        q = modularity_direct(nodes, weighted_edges, labels, resolution)
        if q > best_q:
            best_q, best = q, part
    return best_q, [frozenset(b) for b in best]


def _reference_modularity(adjacency, labels, resolution):
    w_in, k_tot, two_m = {}, {}, 0
    for u, nbrs in adjacency.items():
        c = labels[u]
        k = inside = 0
        for v, w in nbrs:
            k += w
            if labels[v] == c:
                inside += w
        k_tot[c] = k_tot.get(c, 0) + k
        w_in[c] = w_in.get(c, 0) + inside
        two_m += k
    q = 0.0
    for c in k_tot:
        q += w_in[c] / two_m - resolution * (k_tot[c] / two_m) ** 2
    return q


def _reference_one_level(adjacency, degree, two_m, rng, resolution):
    """Local moves that evaluate every node in every sweep."""
    community = {u: u for u in adjacency}
    k_tot = dict(degree)
    moved = True
    while moved:
        moved = False
        order = sorted(adjacency)
        rng.shuffle(order)
        for u in order:
            cu = community[u]
            ku = degree[u]
            k_tot[cu] -= ku
            links = {cu: 0}
            for v, w in adjacency[u]:
                links[community[v]] = links.get(community[v], 0) + w
            best_c = cu
            best_gain = links[cu] - resolution * k_tot[cu] * ku / two_m
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - resolution * k_tot[c] * ku / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            k_tot[best_c] += ku
            if best_c != cu:
                community[u] = best_c
                moved = True
    return community


def louvain_reference(adjacency, seed, resolution=1.0):
    """Louvain as it was before the local-move phase learned to skip nodes
    whose inputs had not changed: (labels, modularity, level count, level
    modularities) on a {node: ((neighbour, integer weight), ...)} map with
    at least one edge, in the same seeded order and with the same float
    operations, so a faithful skip rule gives equal results, bit for bit."""
    rng = random.Random(seed)
    nodes = sorted(adjacency)
    work = adjacency
    degree = {u: sum(w for _, w in nbrs) for u, nbrs in adjacency.items()}
    two_m = sum(degree.values())
    current = {v: v for v in nodes}
    level_mods = []
    while True:
        community = _reference_one_level(work, degree, two_m, rng, resolution)
        labels = {v: community[current[v]] for v in nodes}
        settled = all(community[u] == u for u in work)
        if settled and level_mods:
            level_mods.append(level_mods[-1])
        else:
            level_mods.append(_reference_modularity(adjacency, labels, resolution))
        if settled:
            break
        current = {v: community[current[v]] for v in nodes}
        boundary, summed = {}, {}
        for u, nbrs in work.items():
            for v, w in nbrs:
                cu, cv = community[u], community[v]
                if cu < cv:
                    boundary[(cu, cv)] = boundary.get((cu, cv), 0) + w
        for u, k in degree.items():
            summed[community[u]] = summed.get(community[u], 0) + k
        level = {c: [] for c in sorted(summed)}
        for (a, b), w in boundary.items():
            level[a].append((b, w))
            level[b].append((a, w))
        work = {c: tuple(sorted(nbrs)) for c, nbrs in level.items()}
        degree = summed
    dense = {}
    for v in nodes:
        dense.setdefault(labels[v], len(dense))
    return {v: dense[labels[v]] for v in nodes}, level_mods[-1], len(level_mods), tuple(level_mods)


def ring_ground_truth(spec):
    """view_id -> cluster index for a `synth` ring scene with this spec: the
    ring numbers cluster c's views c * cluster_size + 1 onwards."""
    return {
        c * spec.cluster_size + i + 1: c
        for c in range(spec.cluster_count)
        for i in range(spec.cluster_size)
    }


def parse_match_graph_reference(path, view_ids=None):
    """parse_match_graph's contract in its plainest loop: strip, skip blank
    and comment lines, split, and check each endpoint on its own. Returns
    {(a, b): count} with a < b, the larger count kept."""

    def content_lines():
        for line_no, raw in text_lines(path):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield line_no, line

    def known(id_, line_no):
        if view_ids is not None and id_ not in view_ids:
            raise DanglingReference(line_no, f"reference to unknown view id {id_}", path)

    merged = {}
    for line_no, line in content_lines():
        toks = line.split()
        if len(toks) != 3:
            raise MalformedLine(line_no, "match line needs 3 fields", path)
        try:
            a, b, count = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad match line: {exc}", path) from exc
        if a == b:
            raise SelfLoop(line_no, f"self-loop on view {a}", path)
        if count < 0:
            raise MalformedLine(line_no, "negative match count", path)
        known(a, line_no)
        known(b, line_no)
        key = (min(a, b), max(a, b))
        merged[key] = max(merged.get(key, 0), count)
    return merged


def max_terminal_subtree_reference(nodes, edges, terminals, budget):
    """Most terminals any connected set of min(budget, |nodes|) nodes holds,
    by trying every node set of that size; edges are (u, v) pairs."""
    nodes = sorted(nodes)
    size = min(budget, len(nodes))
    terminals = set(terminals)
    best = None
    for combo in itertools.combinations(nodes, size):
        keep = set(combo)
        inside = [(u, v) for u, v in edges if u in keep and v in keep]
        if len(union_find_components(keep, inside)) == 1:
            held = len(keep & terminals)
            best = held if best is None else max(best, held)
    return best


def mst_weight(nodes, weighted_edges):
    """Prim MST weight over the given nodes; None if not spanning."""
    nodes = sorted(nodes)
    if not nodes:
        return 0.0
    adj = {n: [] for n in nodes}
    for u, v, w in weighted_edges:
        if u in adj and v in adj:
            adj[u].append((w, v))
            adj[v].append((w, u))
    seen = {nodes[0]}
    heap = list(adj[nodes[0]])
    heapq.heapify(heap)
    total = 0.0
    while heap and len(seen) < len(nodes):
        w, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        total += w
        for item in adj[v]:
            heapq.heappush(heap, item)
    if len(seen) != len(nodes):
        return None
    return total


def steiner_optimum(nodes, weighted_edges, terminals):
    """Exact Steiner weight: min over supersets of the terminal set of the
    induced-subgraph MST weight."""
    terminals = set(terminals)
    others = sorted(set(nodes) - terminals)
    best = None
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            keep = terminals | set(combo)
            sub_edges = [(u, v, w) for u, v, w in weighted_edges if u in keep and v in keep]
            w = mst_weight(keep, sub_edges)
            if w is not None and (best is None or w < best):
                best = w
    return best


def greedy_choice(neighbors, current, sampled, labels, positions):
    """Full-sort oracle for one greedy sampling step."""
    seen = {labels[s] for s in sampled}
    cands = []
    for u in neighbors:
        if u in sampled:
            continue
        novelty = labels[u] not in seen
        dist = math.dist(positions[u], positions[current])
        cands.append((u, novelty, dist))
    if not cands:
        return None
    cands.sort(key=lambda t: (-t[1], -t[2], t[0]))
    return cands[0][0]


def hop_distance(adj, start, goal):
    """Plain BFS hop distance; None when unreachable. adj: node -> iterable."""
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v == goal:
                    return d
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return None


def bfs_all(adj, start):
    """Hop distance from start to every node it reaches. adj: node -> iterable."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def dispersion_full_bfs(adj, positions, sampled):
    """(mean hop distance or None, mean Euclidean distance, unreachable pairs)
    over sampled pairs u < v, from one full BFS per sampled view, summed in
    pair order."""
    sampled = sorted(set(sampled))
    maps = {u: bfs_all(adj, u) for u in sampled}
    hop_sum, hop_pairs, excluded, eu_sum = 0.0, 0, 0, 0.0
    for i, u in enumerate(sampled):
        for v in sampled[i + 1 :]:
            if v in maps[u]:
                hop_sum += maps[u][v]
                hop_pairs += 1
            else:
                excluded += 1
            eu_sum += math.dist(positions[u], positions[v])
    n_pairs = len(sampled) * (len(sampled) - 1) // 2
    return hop_sum / hop_pairs if hop_pairs else None, eu_sum / n_pairs, excluded


def nearest_sample_dist_loop(positions, nodes, sampled):
    """Mean over nodes (sorted) of the math.dist to the closest sampled node."""
    sampled = sorted(set(sampled))
    total = 0.0
    for u in sorted(nodes):
        total += min(math.dist(positions[u], positions[v]) for v in sampled)
    return total / len(nodes)


def pose_pair_errors_loop(rs_pred, ts_pred, rs_gt, ts_gt):
    """Per-pair relative rotation and translation-direction errors in degrees,
    pairs i < j in row-major order, one pair at a time in Python floats, each
    3-term sum taken as (p0 + p1) + p2. rs_*: 3x3 world-to-camera rotations
    as row lists, ts_*: translations."""
    def dot(a, b):
        return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]

    def times_transposed(a, b):
        return [[dot(row_a, row_b) for row_b in b] for row_a in a]

    def norm(a):
        return math.sqrt(dot(a, a))

    def angle(y, x):
        return math.degrees(math.atan2(y, x))

    rot, trans = [], []
    for i in range(len(rs_pred)):
        for j in range(i + 1, len(rs_pred)):
            rel_p = times_transposed(rs_pred[j], rs_pred[i])
            rel_g = times_transposed(rs_gt[j], rs_gt[i])
            e = times_transposed(rel_p, rel_g)
            axial = (e[2][1] - e[1][2], e[0][2] - e[2][0], e[1][0] - e[0][1])
            rot.append(angle(norm(axial) / 2.0, (((e[0][0] + e[1][1]) + e[2][2]) - 1.0) / 2.0))
            tp = [t - dot(row, ts_pred[i]) for t, row in zip(ts_pred[j], rel_p)]
            tg = [t - dot(row, ts_gt[i]) for t, row in zip(ts_gt[j], rel_g)]
            np_, ng = norm(tp), norm(tg)
            if np_ < 1e-12 and ng < 1e-12:
                trans.append(0.0)
            elif np_ < 1e-12 or ng < 1e-12:
                trans.append(90.0)
            else:
                a, b = [c / np_ for c in tp], [c / ng for c in tg]
                cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0])
                trans.append(angle(norm(cross), dot(a, b)))
    return rot, trans


def _stencil_ok(valid):
    """Pixels whose neighbours one step either way along both axes, clipped
    at the map edge (the pixels np.gradient reads), are all valid."""
    import numpy as np

    h, w = valid.shape
    rows, cols = np.arange(h), np.arange(w)
    up, down = np.maximum(rows - 1, 0), np.minimum(rows + 1, h - 1)
    left, right = np.maximum(cols - 1, 0), np.minimum(cols + 1, w - 1)
    return valid[up] & valid[down] & valid[:, left] & valid[:, right]


def filter_depth_reference(geom, mono, tau_depth, tau_grad):
    """The monocular-guided filter on whole maps in one piece, np.gradient and
    np.hypot at every pixel: (filtered values, report fields as a dict).
    Raises what filter_depth raises, in its order."""
    import numpy as np

    def valid(values):
        return np.isfinite(values) & (values > 0)

    def normalized_gradient(values):
        gy, gx = np.gradient(values)
        return np.hypot(gx, gy) / values

    if geom.shape != mono.shape:
        raise DimensionMismatch(f"{geom.shape} vs {mono.shape}")
    valid_geom, valid_mono = valid(geom), valid(mono)
    joint = valid_geom & valid_mono
    if not joint.any():
        raise NoValidOverlap("no jointly valid pixels")
    if min(geom.shape) < 2:
        raise TooSmall("gradients need width and height >= 2")
    with np.errstate(all="ignore"):
        s = float(np.median(mono[joint]) / np.median(geom[joint]))
        if not (math.isfinite(s) and s > 0):
            raise NoValidOverlap(f"scale {s!r}")
        scaled = geom * s
        valid_scaled = valid(scaled)
        both = valid_scaled & valid_mono
        by_depth = both & (np.abs(scaled - mono) / scaled > tau_depth)
        grad = np.abs(normalized_gradient(mono) - normalized_gradient(scaled))
    by_grad = both & _stencil_ok(valid_scaled) & _stencil_ok(valid_mono) & (grad > tau_grad)
    removed = by_depth | by_grad
    total = int(removed.sum())
    report = {
        "scale_s": s,
        "removed_by_depth": int(by_depth.sum()),
        "removed_by_grad": int(by_grad.sum()),
        "removed_total": total,
        "kept": int(valid_geom.sum()) - total,
    }
    return np.where(removed, 0.0, geom), report


def read_pfm_reference(path):
    """A single-channel PFM read whole, as native float32 rows top-to-bottom:
    the file's bytes in one buffer, then one flipped copy. Takes a header of
    `Pf`, `<width> <height>` and a scale, each on its own line; a negative
    scale means little-endian."""
    import numpy as np

    with open(path, "rb") as f:
        magic, size, scale, raster = f.read().split(b"\n", 3)
    assert magic == b"Pf"
    width, height = (int(token) for token in size.split())
    grid = np.frombuffer(raster, dtype="<f4" if float(scale) < 0 else ">f4")
    return np.flipud(grid.reshape(height, width)).astype(np.float32, order="C")


def write_pfm_reference(path, values):
    """The canonical PFM of `values` written whole: header `Pf`, scale -1.0,
    one flipped little-endian float32 copy whose non-finite pixels (those
    beyond float32's range included, as the cast makes them inf) are 0."""
    import numpy as np

    height, width = values.shape
    with np.errstate(over="ignore"):
        grid = np.array(np.flipud(values), dtype="<f4", order="C")
    grid[~np.isfinite(grid)] = 0.0
    with open(path, "wb") as f:
        f.write(f"Pf\n{width} {height}\n-1.0\n".encode())
        f.write(grid.tobytes())
