import os
import random

import pytest

import sparseview
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


def random_positions(rng: random.Random, nodes, scale: float = 10.0):
    return {
        v: (rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        for v in nodes
    }


@pytest.fixture
def rng():
    return random.Random(1234)
