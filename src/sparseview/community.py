"""Louvain community detection on the weighted view graph.

Match counts are used as edge weights. The local-move phase visits nodes in
a seeded shuffled order, so results are reproducible given (graph, seed).
Ties between candidate communities are broken toward the lowest community id.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping

from .errors import EmptyGraph, InvalidSpec
from .view_graph import ViewGraph, from_edge_weights


DEFAULT_RESOLUTION = 1.0  # wherever no resolution is given


@dataclass(frozen=True)
class CommunityAssignment:
    labels: dict[int, int]
    level_modularities: tuple[float, ...]  # on the input graph, after each level

    @property
    def modularity(self) -> float:
        return self.level_modularities[-1]

    @property
    def level_count(self) -> int:
        return len(self.level_modularities)

    def community_members(self) -> dict[int, list[int]]:
        members: dict[int, list[int]] = {}
        for node in sorted(self.labels):
            members.setdefault(self.labels[node], []).append(node)
        return members


def modularity(graph: ViewGraph, labels: Mapping[int, int], resolution=DEFAULT_RESOLUTION) -> float:
    """Weighted Newman-Girvan modularity.

    Q = sum_c [ w_in(c)/m - resolution * (k(c)/(2m))^2 ], where w_in(c) is the
    total weight of edges internal to community c, k(c) the summed weighted
    degree and m the total edge weight. Integer weights keep every sum exact.
    """
    w_in: dict[int, int] = {}  # twice the internal weight: each edge is seen from both ends
    k_tot: dict[int, int] = {}
    two_m = 0
    for u, nbrs in graph.adjacency.items():
        c = labels[u]
        k = inside = 0
        for v, w in nbrs:
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


def _aggregate(
    graph: ViewGraph, degree: dict[int, int], community: dict[int, int]
) -> tuple[ViewGraph, dict[int, int]]:
    """One node per community, joined by the summed boundary weights; the
    weight inside a community survives only in its summed member degree."""
    boundary: dict[tuple[int, int], int] = {}
    for u, nbrs in graph.adjacency.items():
        cu = community[u]
        for v, w in nbrs:
            cv = community[v]
            if cu < cv:
                boundary[(cu, cv)] = boundary.get((cu, cv), 0) + w
    summed: dict[int, int] = {}
    for u, k in degree.items():
        summed[community[u]] = summed.get(community[u], 0) + k
    return from_edge_weights(summed, boundary), summed


def _one_level(
    graph: ViewGraph, degree: dict[int, int], two_m: int, rng: random.Random, resolution: float
) -> dict[int, int]:
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
    community = {u: u for u in graph.adjacency}
    k_tot = dict(degree)  # community -> summed degree
    tick = 0  # moves so far
    changed_at = dict.fromkeys(k_tot, 0)  # community -> tick its k_tot last changed
    evaluated: dict[int, tuple[int, tuple[int, ...]]] = {}  # node -> (tick, candidates)
    moved = True
    while moved:
        moved = False
        order = sorted(graph.adjacency)
        rng.shuffle(order)
        for u in order:
            if u in evaluated:
                at, candidates = evaluated[u]
                if all(changed_at[c] <= at for c in candidates):
                    continue
            cu = community[u]
            ku = degree[u]
            # weights from u into each neighboring community, u removed from its own
            k_tot[cu] -= ku
            links: dict[int, int] = {cu: 0}
            for v, w in graph.adjacency[u]:
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
            k_tot[best_c] = k_tot.get(best_c, 0) + ku
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
    `resolution` must be a finite number > 0 (InvalidSpec otherwise).
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidSpec(f"resolution must be a finite number > 0, got {resolution}")
    if graph.node_count == 0:
        raise EmptyGraph("louvain needs at least one node")
    nodes = sorted(graph.adjacency)
    if graph.edge_count == 0:
        labels = {v: i for i, v in enumerate(nodes)}
        # modularity undefined without edges; 0.0 by convention
        return CommunityAssignment(labels, (0.0,))

    rng = random.Random(seed)
    work = graph
    degree = {u: sum(w for _, w in nbrs) for u, nbrs in graph.adjacency.items()}
    two_m = sum(degree.values())  # aggregation keeps the total weight
    labels = {v: v for v in nodes}  # original node -> its node in the work graph
    level_mods: list[float] = []
    while True:
        community = _one_level(work, degree, two_m, rng, resolution)
        labels = {v: community[labels[v]] for v in nodes}
        settled = all(community[u] == u for u in work.adjacency)
        # a level that moves nothing keeps the previous level's grouping, and
        # modularity depends only on the grouping, so its score is the same
        if settled and level_mods:
            level_mods.append(level_mods[-1])
        else:
            level_mods.append(modularity(graph, labels, resolution))
        if settled:
            break
        work, degree = _aggregate(work, degree, community)

    dense: dict[int, int] = {}  # community -> its rank by first member
    relabeled = {v: dense.setdefault(labels[v], len(dense)) for v in nodes}
    return CommunityAssignment(relabeled, tuple(level_mods))
