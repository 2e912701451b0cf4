"""Weighted covisibility graph over views, plus pruning and statistics."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import not_

from .errors import InvalidSpec, UnknownNode
from .recon_io import SceneReconstruction

# the match count below which `prune_edges` drops an edge, unless told otherwise
DEFAULT_PRUNE_THRESHOLD = 50


@dataclass(frozen=True)
class ViewGraph:
    """Undirected weighted graph over nodes 0..n-1, node i being view ids[i]
    (ascending); adjacency[i] holds i's neighbours, ascending, weights[i] their weights."""

    ids: tuple[int, ...]
    adjacency: list[tuple[int, ...]]
    weights: list[tuple[int, ...]]

    @property
    def node_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def node(self, view: int) -> int:
        """The node of a view id; UnknownNode names a view the graph lacks."""
        i = bisect_left(self.ids, view)
        if i == len(self.ids) or self.ids[i] != view:
            raise UnknownNode(view)
        return i


def from_edge_weights(nodes, edge_weights: dict[tuple[int, int], int]) -> ViewGraph:
    """Build a ViewGraph from view ids and a {(view, view): weight} map, isolated
    views kept; the sorted ids become nodes 0..n-1. A weight-0 pair is no edge.

    The pairs are walked in sorted order, so where every key is (smaller,
    larger), as `SceneReconstruction.edges` keeps them, each node meets its
    neighbours in ascending order; a row a (larger, smaller) key touches is
    sorted afterwards. No per-edge tuple is made.
    """
    ids = tuple(sorted(set(nodes)))
    index = {v: i for i, v in enumerate(ids)}
    adjacency: list = [[] for _ in ids]
    weights: list = [[] for _ in ids]
    unsorted = set()  # nodes a reversed key touched
    for key in sorted(edge_weights):
        w = edge_weights[key]
        if w == 0:
            continue
        u, v = index[key[0]], index[key[1]]
        if u > v:
            unsorted.update((u, v))
        adjacency[u].append(v)
        weights[u].append(w)
        adjacency[v].append(u)
        weights[v].append(w)
    for u in unsorted:
        adjacency[u], weights[u] = zip(*sorted(zip(adjacency[u], weights[u])))
    # tuples in place, so only one row is held twice at a time
    for u in range(len(ids)):
        adjacency[u] = tuple(adjacency[u])
        weights[u] = tuple(weights[u])
    return ViewGraph(ids, adjacency, weights)


def build_graph(scene: SceneReconstruction) -> ViewGraph:
    """One node per view (isolated views included), one edge per match pair."""
    return from_edge_weights(scene.views.keys(), scene.edges)


def prune_edges(graph: ViewGraph, threshold: int) -> ViewGraph:
    """Keep only edges with weight >= threshold; the node set is unchanged.
    A negative threshold is InvalidSpec."""
    if threshold < 0:
        raise InvalidSpec(f"threshold must be >= 0, got {threshold}")
    adjacency, weights = [], []
    for nbrs, wts in zip(graph.adjacency, graph.weights):
        keep = [w >= threshold for w in wts]
        adjacency.append(tuple(compress(nbrs, keep)))
        weights.append(tuple(compress(wts, keep)))
    return ViewGraph(graph.ids, adjacency, weights)


def subgraph(graph: ViewGraph, keep) -> ViewGraph:
    """Induced subgraph on the nodes `keep`, renumbered 0..k-1 in node order."""
    keep = sorted(set(keep))
    new = [-1] * graph.node_count
    for i, v in enumerate(keep):
        new[v] = i
    adj, wts = graph.adjacency, graph.weights
    adjacency = [tuple([new[u] for u in adj[v] if new[u] >= 0]) for v in keep]
    weights = [tuple([w for u, w in zip(adj[v], wts[v]) if new[u] >= 0]) for v in keep]
    return ViewGraph(tuple([graph.ids[v] for v in keep]), adjacency, weights)


def connected_components(graph: ViewGraph) -> list[list[int]]:
    """BFS partition of the nodes into components, each from its smallest node."""
    seen = [False] * graph.node_count
    components = []
    for start in range(graph.node_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:  # the list is the BFS queue
            for v in graph.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        components.append(comp)
    return components


@dataclass
class GraphStatsReport:
    node_count: int
    edge_count: int
    degree_histogram: dict[int, int]
    frac_degree_le: dict[int, float]
    mean_match_count: float | None
    connected_component_sizes: list[int] = field(default_factory=list)


def compute_stats(graph: ViewGraph) -> GraphStatsReport:
    """Degree histogram, low-degree fractions, mean edge weight, components."""
    n, m = graph.node_count, graph.edge_count
    histogram = Counter(map(len, graph.adjacency))
    frac = {k: sum(c for d, c in histogram.items() if d <= k) / n if n else 0.0 for k in range(4)}
    # each edge's weight is listed at both its ends
    mean = sum(map(sum, graph.weights)) / (2 * m) if m else None
    sizes = sorted((len(c) for c in connected_components(graph)), reverse=True)
    return GraphStatsReport(
        node_count=n,
        edge_count=m,
        degree_histogram=dict(sorted(histogram.items())),
        frac_degree_le=frac,
        mean_match_count=mean,
        connected_component_sizes=sizes,
    )


def bfs_distances(graph: ViewGraph, start: int, targets, part=None) -> dict[int, int]:
    """Hop distances from node start, found in BFS order until every target has one.

    Nodes farther out than the last target may be missing from the map. A
    target that start cannot reach makes the search exhaust start's component.
    Only nodes of `part` (a per-node membership list; None: the whole graph)
    are walked, as on `subgraph(graph, part)`; a start outside is UnknownNode.
    """
    if part is not None and not part[start]:
        raise UnknownNode(graph.ids[start])
    seen = [False] * graph.node_count if part is None else list(map(not_, part))
    wanted = [False] * graph.node_count
    for t in targets:
        wanted[t] = True
    left = sum(wanted) - wanted[start]
    seen[start] = True
    dist = {start: 0}
    queue = [start]
    for u in queue:  # the list is the BFS queue
        if not left:
            break
        d = dist[u] + 1
        for v in graph.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                dist[v] = d
                left -= wanted[v]
                queue.append(v)
    return dist
