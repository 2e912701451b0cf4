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
from .view_graph import ViewGraph


@dataclass(frozen=True)
class CommunityAssignment:
    labels: dict[int, int]
    modularity: float
    level_count: int
    level_modularities: tuple[float, ...] = ()

    def community_members(self) -> dict[int, list[int]]:
        members: dict[int, list[int]] = {}
        for node in sorted(self.labels):
            members.setdefault(self.labels[node], []).append(node)
        return members


def modularity(
    graph: ViewGraph,
    labels: Mapping[int, int] | CommunityAssignment,
    resolution: float = 1.0,
) -> float:
    """Weighted Newman-Girvan modularity.

    Q = sum_c [ w_in(c)/m - resolution * (k(c)/(2m))^2 ], where w_in(c) is the
    total weight of edges internal to community c, k(c) the summed weighted
    degree and m the total edge weight.
    """
    if isinstance(labels, CommunityAssignment):
        labels = labels.labels
    m = sum(w for _, _, w in graph.edges())
    if m == 0:
        raise EmptyGraph("modularity undefined on a graph with no edges")
    w_in: dict[int, float] = {}
    k_tot: dict[int, float] = {}
    for u, v, w in graph.edges():
        if labels[u] == labels[v]:
            w_in[labels[u]] = w_in.get(labels[u], 0.0) + w
    for u in graph.adjacency:
        c = labels[u]
        k_tot[c] = k_tot.get(c, 0.0) + sum(w for _, w in graph.adjacency[u])
    q = 0.0
    for c in k_tot:
        q += w_in.get(c, 0.0) / m - resolution * (k_tot[c] / (2.0 * m)) ** 2
    return q


class _LevelGraph:
    """Aggregated working graph; nodes may carry self-loop weight."""

    def __init__(self, adj: dict[int, dict[int, float]], self_w: dict[int, float]):
        self.adj = adj
        self.self_w = self_w
        # m counts each edge once plus self-loops once
        self.m = sum(w for u in adj for v, w in adj[u].items() if u < v)
        self.m += sum(self_w.values())
        self.degree = {
            u: sum(adj[u].values()) + 2.0 * self_w.get(u, 0.0) for u in adj
        }

    @classmethod
    def from_view_graph(cls, graph: ViewGraph) -> "_LevelGraph":
        adj = {u: {v: float(w) for v, w in graph.adjacency[u]} for u in graph.adjacency}
        return cls(adj, {u: 0.0 for u in adj})

    def aggregate(self, labels: dict[int, int]) -> "_LevelGraph":
        adj: dict[int, dict[int, float]] = {}
        self_w: dict[int, float] = {}
        for c in sorted(set(labels.values())):
            adj[c] = {}
            self_w[c] = 0.0
        for u in self.adj:
            cu = labels[u]
            self_w[cu] += self.self_w.get(u, 0.0)
            for v, w in self.adj[u].items():
                cv = labels[v]
                if cu == cv:
                    if u < v:
                        self_w[cu] += w
                else:
                    adj[cu][cv] = adj[cu].get(cv, 0.0) + w
        return _LevelGraph(adj, self_w)


def _one_level(work: _LevelGraph, rng: random.Random, resolution: float) -> dict[int, int]:
    """Local-move phase; returns node -> community after convergence."""
    community = {u: u for u in work.adj}
    k_tot = dict(work.degree)  # community -> summed degree
    two_m = 2.0 * work.m
    if two_m == 0:
        return community
    moved = True
    while moved:
        moved = False
        order = sorted(work.adj)
        rng.shuffle(order)
        for u in order:
            cu = community[u]
            ku = work.degree[u]
            # weights from u into each neighboring community, u removed from its own
            k_tot[cu] -= ku
            links: dict[int, float] = {cu: 0.0}
            for v, w in work.adj[u].items():
                cv = community[v]
                links[cv] = links.get(cv, 0.0) + w
            # ascending candidate order + strict improvement = lowest-id tie-break
            base = links[cu] - resolution * k_tot[cu] * ku / two_m
            best_c, best_gain = cu, base
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - resolution * k_tot[c] * ku / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            k_tot[best_c] = k_tot.get(best_c, 0.0) + ku
            if best_c != cu:
                community[u] = best_c
                moved = True
    return community


def louvain(graph: ViewGraph, seed: int, resolution: float = 1.0) -> CommunityAssignment:
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
        return CommunityAssignment(labels, 0.0, 1, (0.0,))

    rng = random.Random(seed)
    work = _LevelGraph.from_view_graph(graph)
    node_to_current = {v: v for v in nodes}  # original node -> work-graph node
    level_mods: list[float] = []
    labels: dict[int, int] = {}
    while True:
        community = _one_level(work, rng, resolution)
        labels = {v: community[node_to_current[v]] for v in nodes}
        settled = all(community[u] == u for u in work.adj)
        # a level that moves nothing keeps the previous level's grouping, and
        # modularity depends only on the grouping, so its score is the same
        if settled and level_mods:
            level_mods.append(level_mods[-1])
        else:
            level_mods.append(modularity(graph, labels, resolution))
        if settled:
            break
        node_to_current = {v: community[node_to_current[v]] for v in nodes}
        work = work.aggregate(community)

    dense: dict[int, int] = {}
    relabeled = {}
    for v in nodes:
        c = labels[v]
        if c not in dense:
            dense[c] = len(dense)
        relabeled[v] = dense[c]
    return CommunityAssignment(relabeled, level_mods[-1], len(level_mods), tuple(level_mods))
