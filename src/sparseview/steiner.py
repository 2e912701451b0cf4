"""Approximate Steiner trees linking community representatives.

Mehlhorn's construction: one multi-source shortest-path pass grows Voronoi
regions around the terminals and, in the same pass, keeps the cheapest
boundary edge between each pair of regions; those edges form a terminal
closure graph, and the MST of that closure is expanded back to graph paths.
A final MST plus leaf pruning guarantees every leaf is a terminal. The result
is within 2(1 - 1/|T|) of the optimal Steiner weight.
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
            length = 1.0 if unit_hop else _edge_length(w, mode)
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
            # an unreached v has no pred, so a tie (nd == inf) does not reach it
            if nd < dv or (nd == dv and u < pred.get(v, u)):
                dist[v] = nd
                pred[v] = u
                src[v] = su
                heapq.heappush(heap, (nd, u, v))
    return pred, closure


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _kruskal(nodes, edges):
    """edges: iterable of (weight, u, v); returns list of chosen (u, v, weight)."""
    uf = _UnionFind(nodes)
    chosen = []
    for w, u, v in sorted(edges):
        if uf.union(u, v):
            chosen.append((u, v, w))
    return chosen


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
    reach = bfs_distances(graph, first)
    unreachable = [t for t in terminals if t not in reach]
    if unreachable:
        raise DisconnectedTerminals(unreachable)

    pred, closure = _multi_source_dijkstra(graph, terminals, weight_mode)
    closure_mst = _kruskal(
        sorted(terminals),
        ((wt, a, b) for (a, b), (wt, _, _) in closure.items()),
    )

    # expand closure edges back into original-graph paths
    def _path_to_source(node):
        path = []
        while node != -1 and pred[node] != -1:
            path.append((min(node, pred[node]), max(node, pred[node])))
            node = pred[node]
        return path

    expanded: set[tuple[int, int]] = set()
    for a, b, _ in closure_mst:
        _, u, v = closure[(min(a, b), max(a, b))]
        expanded.add((min(u, v), max(u, v)))
        expanded.update(_path_to_source(u))
        expanded.update(_path_to_source(v))

    weight_of = {
        (u, v): _edge_length(dict(graph.adjacency[u])[v], weight_mode) for u, v in expanded
    }
    sub_nodes = sorted({n for e in expanded for n in e})
    final = _kruskal(sub_nodes, ((weight_of[e], e[0], e[1]) for e in sorted(expanded)))

    # prune non-terminal leaves until all leaves are terminals
    adj: dict[int, set[int]] = {n: set() for n in sub_nodes}
    for u, v, _ in final:
        adj[u].add(v)
        adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for n in sorted(adj):
            if n in adj and n not in terminals and len(adj[n]) <= 1:
                for nb in adj[n]:
                    adj[nb].discard(n)
                del adj[n]
                changed = True

    tree_nodes = frozenset(adj)
    tree_edges = frozenset(
        (min(u, v), max(u, v)) for u in adj for v in adj[u] if u < v
    )
    total = sum(weight_of[e] for e in sorted(tree_edges))
    return SteinerResult(frozenset(terminals), tree_nodes, tree_edges, total)
