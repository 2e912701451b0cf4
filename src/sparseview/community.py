"""Louvain community detection on the weighted view graph.

Match counts are used as edge weights. The local-move phase visits nodes in
a seeded shuffled order, so results are reproducible given (graph, seed).
Ties between candidate communities are broken toward the lowest community id.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyGraph, InvalidSpec
from .view_graph import ViewGraph


DEFAULT_RESOLUTION = 1.0  # wherever no resolution is given


@dataclass(frozen=True)
class CommunityAssignment:
    labels: list[int]  # node -> community, a label >= 0
    level_modularities: tuple[float, ...]  # on the input graph, after each level

    @property
    def modularity(self) -> float:
        return self.level_modularities[-1]

    @property
    def level_count(self) -> int:
        return len(self.level_modularities)

    @cached_property
    def members(self) -> list[list[int]]:
        """Each label's nodes, ascending (empty for an unused label)."""
        members: list[list[int]] = [[] for _ in range(max(self.labels, default=-1) + 1)]
        for v, c in enumerate(self.labels):
            members[c].append(v)
        return members


def modularity(graph: ViewGraph, labels, resolution=DEFAULT_RESOLUTION) -> float:
    """Weighted Newman-Girvan modularity of `labels` (node -> community).

    Q = sum_c [ w_in(c)/m - resolution * (k(c)/(2m))^2 ], where w_in(c) is the
    total weight of edges internal to community c, k(c) the summed weighted
    degree and m the total edge weight. Integer weights keep every sum exact.
    """
    w_in: dict[int, int] = {}  # twice the internal weight: each edge is seen from both ends
    k_tot: dict[int, int] = {}
    two_m = 0
    for u, (nbrs, wts) in enumerate(zip(graph.adjacency, graph.weights)):
        c = labels[u]
        k = inside = 0
        for v, w in zip(nbrs, wts):
            k += w
            if labels[v] == c:
                inside += w
        k_tot[c] = k_tot.get(c, 0) + k
        w_in[c] = w_in.get(c, 0) + inside
        two_m += k
    if two_m == 0:
        raise EmptyGraph("modularity undefined on a graph with no edges")
    q = 0.0
    for c in k_tot:  # first-appearance order, so the float sum is reproducible
        q += w_in[c] / two_m - resolution * (k_tot[c] / two_m) ** 2
    return q


def _aggregate(adj, wts, degree: list[int], community: list[int], k: int):
    """One node per community, joined by the summed boundary weights; the
    weight inside a community survives only in its summed member degree."""
    boundary: list[dict[int, int]] = [{} for _ in range(k)]
    summed = [0] * k
    for u, nbrs in enumerate(adj):
        cu = community[u]
        summed[cu] += degree[u]
        row = boundary[cu]
        for v, w in zip(nbrs, wts[u]):
            cv = community[v]
            if cv != cu:
                row[cv] = row.get(cv, 0) + w
    rows = [sorted(row) for row in boundary]
    return rows, [[row[c] for c in cs] for row, cs in zip(boundary, rows)], summed


def _one_level(adj, wts, degree: list[int], two_m: int, rng: random.Random, resolution: float):
    """Local-move phase; returns node -> community after convergence.

    A node's choice depends only on its own community, its neighbours'
    communities and its candidates' `k_tot`. A neighbour that moves changes
    the `k_tot` of the community it leaves, which was one of the node's
    candidates (every edge weighs at least 1), and so does the node itself
    when it moves. So a node none of whose candidates' `k_tot` changed since
    its last evaluation would choose its current community again, and is
    skipped. The integer `k_tot` makes its gains bit-identical, so the skip
    changes no result; every sweep still shuffles, so the seeded order is kept.
    """
    n = len(adj)
    community = list(range(n))
    k_tot = list(degree)  # community -> summed degree
    tick = 0  # moves so far
    changed_at = [0] * n  # community -> tick its k_tot last changed
    evaluated: list = [None] * n  # node -> (tick, candidates) at its last evaluation
    moved = True
    while moved:
        moved = False
        order = list(range(n))
        rng.shuffle(order)
        for u in order:
            last = evaluated[u]
            if last is not None and all(changed_at[c] <= last[0] for c in last[1]):
                continue
            cu = community[u]
            ku = degree[u]
            # weights from u into each neighboring community, u removed from its own
            k_tot[cu] -= ku
            links: dict[int, int] = {cu: 0}
            for v, w in zip(adj[u], wts[u]):
                cv = community[v]
                links[cv] = links.get(cv, 0) + w
            # ascending candidate order + strict improvement = lowest-id tie-break
            base = links[cu] - resolution * k_tot[cu] * ku / two_m
            best_c, best_gain = cu, base
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - resolution * k_tot[c] * ku / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            k_tot[best_c] += ku
            evaluated[u] = (tick, tuple(links))
            if best_c != cu:
                tick += 1
                changed_at[cu] = changed_at[best_c] = tick
                community[u] = best_c
                moved = True
    return community


def louvain(graph: ViewGraph, seed: int, resolution=DEFAULT_RESOLUTION) -> CommunityAssignment:
    """Run Louvain to convergence; isolated nodes get singleton communities.

    Levels alternate local moves with graph aggregation until a level makes
    no move. Modularity (on the input graph) is recorded after each level.
    Each level renumbers its communities in ascending order, which keeps the
    next level's lowest-id tie-break. `resolution` must be a finite number
    > 0 (InvalidSpec otherwise).
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidSpec(f"resolution must be a finite number > 0, got {resolution}")
    n = graph.node_count
    if n == 0:
        raise EmptyGraph("louvain needs at least one node")
    if graph.edge_count == 0:
        # modularity undefined without edges; 0.0 by convention
        return CommunityAssignment(list(range(n)), (0.0,))

    rng = random.Random(seed)
    work, wts = graph.adjacency, graph.weights
    degree = [sum(row) for row in wts]
    two_m = sum(degree)  # aggregation keeps the total weight
    labels = list(range(n))  # original node -> its node in the work graph
    level_mods: list[float] = []
    while True:
        community = _one_level(work, wts, degree, two_m, rng, resolution)
        settled = all(c == u for u, c in enumerate(community))
        used = sorted(set(community))
        rank = [0] * len(work)  # community -> its rank among the communities
        for i, c in enumerate(used):
            rank[c] = i
        community = [rank[c] for c in community]
        labels = [community[c] for c in labels]
        # a level that moves nothing keeps the previous level's grouping, and
        # modularity depends only on the grouping, so its score is the same
        if settled and level_mods:
            level_mods.append(level_mods[-1])
        else:
            level_mods.append(modularity(graph, labels, resolution))
        if settled:
            break
        work, wts, degree = _aggregate(work, wts, degree, community, len(used))

    dense: dict[int, int] = {}  # community -> its rank by first member
    return CommunityAssignment([dense.setdefault(c, len(dense)) for c in labels], tuple(level_mods))
