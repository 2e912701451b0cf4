"""Weighted covisibility graph over views, plus pruning and statistics."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import UnknownNode
from .recon_io import SceneReconstruction


@dataclass(frozen=True)
class ViewGraph:
    """Undirected weighted graph, adjacency lists sorted by neighbor id."""

    adjacency: dict[int, tuple[tuple[int, int], ...]]

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def has_node(self, v: int) -> bool:
        return v in self.adjacency

    def edges(self):
        """Yield (u, v, weight) with u < v, in sorted order."""
        for u in self.adjacency:
            for v, w in self.adjacency[u]:
                if u < v:
                    yield u, v, w


def from_edge_weights(nodes, edge_weights: dict[tuple[int, int], int]) -> ViewGraph:
    """Build a ViewGraph from a {(u, v): weight} map; isolated nodes kept.

    A pair of weight 0 has no matches, so it is no edge.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in sorted(nodes)}
    for (u, v), w in edge_weights.items():
        if w == 0:
            continue
        adj[u].append((v, w))
        adj[v].append((u, w))
    return ViewGraph(adjacency={v: tuple(sorted(nbrs)) for v, nbrs in adj.items()})


def build_graph(scene: SceneReconstruction) -> ViewGraph:
    """One node per view (isolated views included), one edge per match pair."""
    return from_edge_weights(scene.views.keys(), scene.edges)


def prune_edges(graph: ViewGraph, threshold: int) -> ViewGraph:
    """Keep only edges with weight >= threshold; the node set is unchanged."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    adj = {
        v: tuple((u, w) for u, w in nbrs if w >= threshold)
        for v, nbrs in graph.adjacency.items()
    }
    return ViewGraph(adjacency=adj)


def subgraph(graph: ViewGraph, keep) -> ViewGraph:
    """Induced subgraph on `keep`."""
    keep = set(keep)
    adj = {
        v: tuple([e for e in graph.adjacency[v] if e[0] in keep])
        for v in sorted(keep)
        if v in graph.adjacency
    }
    return ViewGraph(adjacency=adj)


def connected_components(graph: ViewGraph) -> list[set[int]]:
    """BFS partition of the node set into connected components."""
    seen: set[int] = set()
    components = []
    for start in graph.adjacency:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _ in graph.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
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
    n = graph.node_count
    histogram: dict[int, int] = {}
    for v in graph.adjacency:
        d = len(graph.adjacency[v])
        histogram[d] = histogram.get(d, 0) + 1
    frac = {}
    for k in (0, 1, 2, 3):
        frac[k] = sum(c for d, c in histogram.items() if d <= k) / n if n else 0.0
    weights = [w for _, _, w in graph.edges()]
    mean = sum(weights) / len(weights) if weights else None
    sizes = sorted((len(c) for c in connected_components(graph)), reverse=True)
    return GraphStatsReport(
        node_count=n,
        edge_count=graph.edge_count,
        degree_histogram=dict(sorted(histogram.items())),
        frac_degree_le=frac,
        mean_match_count=mean,
        connected_component_sizes=sizes,
    )


def bfs_distances(graph: ViewGraph, start: int, targets, part=None) -> dict[int, int]:
    """Hop distances from start, found in BFS order until every target has one.

    Nodes farther out than the last target may be missing from the map. A
    target that start cannot reach, or that is not in the graph, makes the
    search exhaust start's component. Only nodes of `part` (None: the whole
    graph) are walked, as on `subgraph(graph, part)`; a start outside is UnknownNode.
    """
    if not graph.has_node(start) or (part is not None and start not in part):
        raise UnknownNode(start)
    dist = {start: 0}
    queue = deque([start])
    remaining = set(targets)
    remaining.discard(start)
    while queue and remaining:
        u = queue.popleft()
        for v, _ in graph.adjacency[u]:
            if v not in dist and (part is None or v in part):
                dist[v] = dist[u] + 1
                queue.append(v)
                remaining.discard(v)
    return dist
