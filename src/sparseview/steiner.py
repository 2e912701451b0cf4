"""Approximate Steiner trees linking community representatives.

Mehlhorn's construction: one multi-source shortest-path pass grows Voronoi
regions around the terminals and, in the same pass, keeps the cheapest
boundary edge between each pair of regions; those edges form a terminal
closure graph, and the MST of that closure is expanded back to graph paths.
That expansion is already the tree: a node and its shortest-path predecessor
share a source, so each predecessor path stays inside one Voronoi region and
each region adds a subtree of its shortest-path tree rooted at its terminal,
while the closure MST joins the regions through one boundary edge each. The
union is a forest whose every leaf is a terminal, and a tree when the closure
MST spans the terminals; when it does not, DisconnectedTerminals names the
terminals cut off. The result is within 2(1 - 1/|T|) of the optimal Steiner
weight.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import Enum

from .community import CommunityAssignment
from .errors import DisconnectedTerminals, UnknownNode
from .view_graph import ViewGraph, bfs_distances


class WeightMode(Enum):
    UNIT_HOP = "unit-hop"
    INVERSE_MATCH = "inverse-match"


@dataclass(frozen=True)
class SteinerResult:
    terminals: frozenset[int]
    tree_nodes: frozenset[int]
    tree_edges: frozenset[tuple[int, int]]
    total_weight: float


def select_terminals(
    part, communities: CommunityAssignment, seed: int
) -> set[int]:
    """One seeded-random representative per community intersecting the part."""
    part = sorted(part)
    if not part:
        raise ValueError("part is empty")
    rng = random.Random(seed)
    members: dict[int, list[int]] = {}
    for v in part:
        members.setdefault(communities.labels[v], []).append(v)
    return {rng.choice(members[cid]) for cid in sorted(members)}


def _edge_length(w: int, mode: WeightMode) -> float:
    if mode is WeightMode.UNIT_HOP:
        return 1.0
    return 1.0 / w if w > 0 else float("inf")


def _multi_source_dijkstra(graph: ViewGraph, sources, mode: WeightMode):
    """Shortest-path predecessor of every reachable node (-1 at a source),
    and the closure: the cheapest boundary edge per pair of Voronoi regions,
    as {(source, source): (path length, low end, high end)}.

    Ties are resolved toward the smallest (distance, predecessor id) pair so
    the Voronoi regions are deterministic. An edge is weighed as a boundary
    edge when its second endpoint settles, once `dist` and `src` are final at
    both ends; per region pair the smallest (length, low end, high end) wins.
    """
    unit_hop = mode is WeightMode.UNIT_HOP
    inf = float("inf")
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    src: dict[int, int] = {}
    closure: dict[tuple[int, int], tuple[float, int, int]] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int, int]] = []
    for t in sorted(sources):
        dist[t] = 0.0
        pred[t] = -1
        src[t] = t
        heapq.heappush(heap, (0.0, -1, t))
    while heap:
        d, p, u = heapq.heappop(heap)
        if u in settled or d > dist[u] or (d == dist[u] and p > pred[u]):
            continue
        settled.add(u)
        su = src[u]
        for v, w in graph.adjacency[u]:
            if unit_hop:
                length = 1.0
            elif w > 0:
                length = 1.0 / w
            else:
                continue  # a zero-match edge is absent under INVERSE_MATCH
            if v in settled:
                sv = src[v]
                if sv != su:
                    lo, hi = (u, v) if u < v else (v, u)
                    key = (su, sv) if su < sv else (sv, su)
                    cand = (dist[lo] + length + dist[hi], lo, hi)
                    if key not in closure or cand < closure[key]:
                        closure[key] = cand
                continue
            nd = d + length
            dv = dist.get(v, inf)
            if nd < dv or (nd == dv and u < pred[v]):
                dist[v] = nd
                pred[v] = u
                src[v] = su
                heapq.heappush(heap, (nd, u, v))
    return pred, closure


def approximate_steiner_tree(
    graph: ViewGraph,
    terminals,
    weight_mode: WeightMode = WeightMode.UNIT_HOP,
) -> SteinerResult:
    terminals = set(terminals)
    if not terminals:
        raise ValueError("terminal set is empty")
    for t in terminals:
        if not graph.has_node(t):
            raise UnknownNode(t)
    if len(terminals) == 1:
        return SteinerResult(frozenset(terminals), frozenset(terminals), frozenset(), 0.0)

    first = min(terminals)
    reach = bfs_distances(graph, first, terminals)
    unreachable = [t for t in terminals if t not in reach]
    if unreachable:
        raise DisconnectedTerminals(unreachable)

    pred, closure = _multi_source_dijkstra(graph, terminals, weight_mode)
    # Kruskal over the closure; a zero-match edge is absent under
    # INVERSE_MATCH, so a terminal may have no closure edge at all
    root = {t: t for t in terminals}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    closure_mst = []
    for _, a, b in sorted((wt, a, b) for (a, b), (wt, _, _) in closure.items()):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[rb] = ra
            closure_mst.append((a, b))
    if len(closure_mst) < len(terminals) - 1:
        raise DisconnectedTerminals(t for t in terminals if find(t) != find(first))

    # expand each closure edge into its boundary edge plus both endpoints'
    # predecessor paths back to their sources
    expanded: set[tuple[int, int]] = set()
    for a, b in closure_mst:
        _, u, v = closure[(a, b)]
        expanded.add((u, v))
        for node in (u, v):
            while pred[node] != -1:
                expanded.add((min(node, pred[node]), max(node, pred[node])))
                node = pred[node]

    tree_nodes = frozenset(n for e in expanded for n in e)
    total = sum(
        _edge_length(dict(graph.adjacency[u])[v], weight_mode) for u, v in sorted(expanded)
    )
    return SteinerResult(frozenset(terminals), tree_nodes, frozenset(expanded), total)
