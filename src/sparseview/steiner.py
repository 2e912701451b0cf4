"""Approximate Steiner trees linking community representatives.

Mehlhorn's construction: one multi-source shortest-path pass (a BFS under unit
hops, a heap under inverse-match) grows Voronoi regions around the terminals
and, in the same pass, keeps the cheapest boundary edge between each pair of
regions; those edges form a terminal closure graph, and the MST of that
closure is expanded back to graph paths. That expansion is already the tree:
a node and its shortest-path predecessor share a source, so each predecessor
path stays inside one Voronoi region and each region adds a subtree of its
shortest-path tree rooted at its terminal, while the closure MST joins the
regions through one boundary edge each. The union is a forest whose every
leaf is a terminal, and a tree when the closure MST spans the terminals; when
it does not, DisconnectedTerminals names the terminals cut off. The result is
within 2(1 - 1/|T|) of the optimal Steiner weight.
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


def select_terminals(part, communities: CommunityAssignment, seed: int) -> list[int]:
    """One seeded-random representative per community intersecting the part."""
    rng = random.Random(seed)
    picks = []
    for members in communities.members:
        inner = [v for v in members if part[v]]
        if inner:
            picks.append(rng.choice(inner))
    if not picks:
        raise ValueError("part is empty")
    return picks


def _multi_source_bfs(graph: ViewGraph, sources, inside):
    """`_multi_source_dijkstra`'s result under unit hops, by a level-synchronous
    BFS: each level is scanned in ascending node order, so a node's first
    visitor is its smallest predecessor, as the heap's tie-break picks. An
    edge is weighed when the scan meets a reached node of another region,
    whose level and region are then final."""
    adj = graph.adjacency
    level = sorted(sources)
    dist = [0] * graph.node_count
    pred = [-1] * graph.node_count
    pred_length = [0.0] * graph.node_count
    src = [-1] * graph.node_count
    for t in level:
        src[t] = t
    closure: dict[tuple[int, int], tuple[int, int, int, float]] = {}
    d = 0
    while level:
        d += 1
        reached = []
        for u in level:
            su = src[u]
            for v in adj[u]:
                if src[v] == su:  # most edges stay inside one region
                    continue
                sv = src[v]
                if sv < 0:
                    if inside[v]:
                        dist[v] = d
                        pred[v] = u
                        pred_length[v] = 1.0
                        src[v] = su
                        reached.append(v)
                else:
                    lo, hi = (u, v) if u < v else (v, u)
                    key = (su, sv) if su < sv else (sv, su)
                    cand = (dist[lo] + 1 + dist[hi], lo, hi, 1.0)
                    if key not in closure or cand < closure[key]:
                        closure[key] = cand
        level = sorted(reached)
    return pred, pred_length, closure


def _multi_source_dijkstra(graph: ViewGraph, sources, inside):
    """Shortest-path predecessor of every node of `inside` a source reaches
    (-1 at a source or where none reaches), the length of the edge to it
    (0.0 where there is none), and the closure: the cheapest boundary edge
    per pair of Voronoi regions, as
    {(source, source): (path length, low end, high end, edge length)}.
    An edge of match count w is 1/w long (inverse-match).

    Ties are resolved toward the smallest (distance, predecessor) pair so
    the Voronoi regions are deterministic. An edge is weighed as a boundary
    edge when its second endpoint settles, once `dist` and `src` are final at
    both ends; per region pair the smallest (length, low end, high end) wins.
    """
    n = graph.node_count
    adj, wts = graph.adjacency, graph.weights
    dist = [float("inf")] * n
    pred = [-1] * n
    pred_length = [0.0] * n
    src = [-1] * n
    settled = [False] * n
    closure: dict[tuple[int, int], tuple[float, int, int, float]] = {}
    heap: list[tuple[float, int, int]] = []
    for t in sorted(sources):
        dist[t] = 0.0
        src[t] = t
        heapq.heappush(heap, (0.0, -1, t))
    while heap:
        d, p, u = heapq.heappop(heap)
        if settled[u] or d > dist[u] or (d == dist[u] and p > pred[u]):
            continue
        settled[u] = True
        su = src[u]
        for v, w in zip(adj[u], wts[u]):
            length = 1.0 / w
            if settled[v]:
                sv = src[v]
                if sv != su:
                    lo, hi = (u, v) if u < v else (v, u)
                    key = (su, sv) if su < sv else (sv, su)
                    cand = (dist[lo] + length + dist[hi], lo, hi, length)
                    if key not in closure or cand < closure[key]:
                        closure[key] = cand
                continue
            nd = d + length
            dv = dist[v]
            if inside[v] and (nd < dv or (nd == dv and u < pred[v])):
                dist[v] = nd
                pred[v] = u
                pred_length[v] = length
                src[v] = su
                heapq.heappush(heap, (nd, u, v))
    return pred, pred_length, closure


def approximate_steiner_tree(
    graph: ViewGraph,
    terminals,
    weight_mode: WeightMode = WeightMode.UNIT_HOP,
    part=None,
) -> SteinerResult:
    """Mehlhorn's tree over `terminals`, inside `part` (None: the whole graph)
    as on `subgraph(graph, part)`; a terminal outside the part is UnknownNode."""
    terminals = set(terminals)
    if not terminals:
        raise ValueError("terminal set is empty")
    inside = [True] * graph.node_count if part is None else part
    for t in sorted(terminals):
        if not inside[t]:
            raise UnknownNode(graph.ids[t])
    if len(terminals) == 1:
        return SteinerResult(frozenset(terminals), frozenset(terminals), frozenset(), 0.0)

    first = min(terminals)
    reach = bfs_distances(graph, first, terminals, part)
    if not terminals <= reach.keys():
        raise DisconnectedTerminals(graph.ids[t] for t in terminals if t not in reach)

    search = _multi_source_bfs if weight_mode is WeightMode.UNIT_HOP else _multi_source_dijkstra
    pred, pred_length, closure = search(graph, terminals, inside)
    # Kruskal over the closure
    root = {t: t for t in terminals}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    closure_mst = []
    for _, a, b in sorted((wt, a, b) for (a, b), (wt, _, _, _) in closure.items()):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[rb] = ra
            closure_mst.append((a, b))
    if len(closure_mst) < len(terminals) - 1:
        raise DisconnectedTerminals(graph.ids[t] for t in terminals if find(t) != find(first))

    # expand each closure edge into its boundary edge plus both endpoints'
    # predecessor paths back to their sources, keeping each edge's length
    expanded: dict[tuple[int, int], float] = {}
    for a, b in closure_mst:
        _, u, v, length = closure[(a, b)]
        expanded[(u, v)] = length
        for node in (u, v):
            while pred[node] != -1:
                expanded[(min(node, pred[node]), max(node, pred[node]))] = pred_length[node]
                node = pred[node]

    tree_nodes = frozenset(n for e in expanded for n in e)
    # left to right: Python 3.12's sum() of floats is compensated
    total = 0.0
    for e in sorted(expanded):
        total += expanded[e]
    return SteinerResult(frozenset(terminals), tree_nodes, frozenset(expanded), total)
