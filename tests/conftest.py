import os
import random
import tracemalloc

import pytest

import sparseview
from sparseview.batches import Phase, ViewProvenance
from sparseview.community import CommunityAssignment
from sparseview.partition import _pick_seeds
from sparseview.view_graph import ViewGraph, from_edge_weights

# child interpreters import sparseview from this checkout and test modules from here
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(sparseview.__file__)), os.path.dirname(__file__)]
    ),
}

# prefix for a child script: pin the process to one CPU before it starts work
ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, so a property test cannot pass once and
    # fail the next time; no example database is written
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


def traced_peak(call):
    """(what `call()` returns, the peak bytes tracemalloc traced while it ran,
    which counts numpy's array data and the result itself)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def graph_of(edges, nodes=None):
    """ViewGraph from (u, v, w) triples; extra isolated nodes optional."""
    weights = {}
    node_set = set(nodes or [])
    for u, v, w in edges:
        weights[(min(u, v), max(u, v))] = w
        node_set.update((u, v))
    return from_edge_weights(node_set, weights)


def random_graph(rng: random.Random, n: int, p: float, max_w: int = 100) -> ViewGraph:
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v, rng.randint(1, max_w)))
    return graph_of(edges, nodes=range(1, n + 1))


def edges_of(graph: ViewGraph):
    """(u, v, weight) over nodes with u < v, in sorted order."""
    return [
        (u, v, w)
        for u, (nbrs, wts) in enumerate(zip(graph.adjacency, graph.weights))
        for v, w in zip(nbrs, wts)
        if u < v
    ]


def nodes_of(graph: ViewGraph, views) -> list[int]:
    """The nodes of view ids, in the order given."""
    return [graph.node(v) for v in views]


def views_of(graph: ViewGraph, nodes) -> set[int]:
    """The view ids of nodes."""
    return {graph.ids[v] for v in nodes}


def member_list(graph: ViewGraph, views) -> list[bool]:
    """The per-node membership list of a set of view ids; ids the graph
    lacks are left out."""
    views = set(views)
    return [v in views for v in graph.ids]


def by_view(graph: ViewGraph, per_node) -> dict:
    """{view id: value} from a list indexed by node."""
    return dict(zip(graph.ids, per_node))


def by_node(graph: ViewGraph, per_view: dict) -> list:
    """A list indexed by node from {view id: value}."""
    return [per_view[v] for v in graph.ids]


def communities_for(graph: ViewGraph, labels: dict) -> CommunityAssignment:
    """A one-level assignment from {view id: label}."""
    return CommunityAssignment(by_node(graph, labels), (0.0,))


def part_views(graph: ViewGraph, assignment) -> list[set[int]]:
    """Each part's view ids, from a node -> part (-1: none) list."""
    parts = [set() for _ in range(max(assignment) + 1)]
    for v, i in zip(graph.ids, assignment):
        if i >= 0:
            parts[i].add(v)
    return parts


def seeds_of(graph: ViewGraph, n_cc: int, seed: int, communities) -> list[int]:
    """The seed views partition_round_robin(graph, n_cc, seed, communities) grows from."""
    return [graph.ids[s] for s in _pick_seeds(graph, n_cc, random.Random(seed), communities)]


def disconnected_pair(graph, part, quota, depth, communities, positions, seed, **_):
    """Stand-in for sample_partition that breaks the component bound: two
    nodes of the part with no edge between them."""
    inside = [v for v, p in enumerate(part) if p]
    first = inside[0]
    second = next(v for v in inside if v != first and v not in graph.adjacency[first])
    return [(v, ViewProvenance(0, communities.labels[v], Phase.FILL)) for v in (first, second)]


def random_positions(rng: random.Random, nodes, scale: float = 10.0):
    return {
        v: (rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        for v in nodes
    }


@pytest.fixture
def rng():
    return random.Random(1234)

