import hashlib
import random

import pytest

from conftest import by_view, edges_of, graph_of, random_graph
from oracles import best_modularity_partition, modularity_direct
from sparseview.community import louvain, modularity
from sparseview.errors import EmptyGraph, InvalidSpec
from sparseview.synth import SynthSpec, gen_grid_scene, gen_ring_scene
from sparseview.view_graph import build_graph


def two_cliques_with_bridge():
    triples = []
    for base in (0, 4):
        members = range(base + 1, base + 5)
        triples += [(u, v, 1) for u in members for v in members if u < v]
    triples.append((4, 5, 1))
    return graph_of(triples)


def triple_triangles():
    triples = []
    for base in (0, 3, 6):
        a, b, c = base + 1, base + 2, base + 3
        triples += [(a, b, 1), (b, c, 1), (a, c, 1)]
    return graph_of(triples)


class TestModularity:
    def test_triangle_single_community_is_zero(self):
        g = graph_of([(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        labels = [0, 0, 0]
        # hand evaluation: w_in/m - (k/2m)^2 = 3/3 - (6/6)^2 = 0
        assert modularity(g, labels) == pytest.approx(0.0, abs=1e-12)

    def test_weighted_triangle_single_community_is_zero(self):
        g = graph_of([(1, 2, 7), (2, 3, 11), (1, 3, 3)])
        assert modularity(g, [0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_two_cliques_matches_direct_sum(self):
        g = two_cliques_with_bridge()
        labels = [0 if v <= 4 else 1 for v in g.ids]
        direct = modularity_direct(range(g.node_count), list(edges_of(g)), labels)
        assert modularity(g, labels) == pytest.approx(direct, abs=1e-12)

    def test_singletons_on_triangle_negative(self):
        g = graph_of([(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        q = modularity(g, [0, 1, 2])
        assert q == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert q < 0

    def test_random_graphs_match_direct_sum(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 10), 0.6)
            if g.edge_count == 0:
                continue
            labels = [rng.randint(0, 3) for _ in g.ids]
            assert modularity(g, labels) == pytest.approx(
                modularity_direct(range(g.node_count), list(edges_of(g)), labels), abs=1e-9
            )

    def test_empty_graph_raises(self):
        g = graph_of([], nodes=[1, 2])
        with pytest.raises(EmptyGraph):
            modularity(g, [0, 0])

    def test_label_permutation_invariance(self, rng):
        g = two_cliques_with_bridge()
        labels = [0 if v <= 4 else 1 for v in g.ids]
        permuted = [1 - c for c in labels]
        assert abs(modularity(g, labels) - modularity(g, permuted)) < 1e-12


class TestLouvain:
    def test_two_cliques_split_at_bridge(self):
        g = two_cliques_with_bridge()
        got = louvain(g, seed=0)
        blocks = {frozenset(m) for m in got.members}
        best_q, best_blocks = best_modularity_partition(range(g.node_count), list(edges_of(g)))
        assert blocks == set(best_blocks)
        assert got.modularity == pytest.approx(best_q, abs=1e-9)

    def test_triple_triangles(self):
        g = triple_triangles()
        got = louvain(g, seed=3)
        blocks = {frozenset(m) for m in got.members}
        _, best_blocks = best_modularity_partition(range(g.node_count), list(edges_of(g)))
        assert blocks == set(best_blocks)

    def test_no_nodes_raises(self):
        with pytest.raises(EmptyGraph, match="at least one node"):
            louvain(graph_of([]), seed=0)

    def test_single_node(self):
        g = graph_of([], nodes=[5])
        got = louvain(g, seed=0)
        assert got.labels == [0]

    def test_isolated_nodes_are_singletons(self):
        g = graph_of([(1, 2, 9)], nodes=[1, 2, 7, 8])
        labels = by_view(g, louvain(g, seed=0).labels)
        assert labels[7] != labels[8]
        assert labels[7] not in (labels[1], labels[2])

    def test_labels_dense_from_zero(self, rng):
        for seed in range(5):
            g = random_graph(rng, 14, 0.3)
            got = louvain(g, seed=seed)
            ids = sorted(set(got.labels))
            assert ids == list(range(len(ids)))

    def test_deterministic(self):
        rng = random.Random(0)
        g = random_graph(rng, 20, 0.25)
        a = louvain(g, seed=42)
        b = louvain(g, seed=42)
        assert a.labels == b.labels
        assert a.modularity == b.modularity
        assert a.level_modularities == b.level_modularities

    def test_recorded_modularity_matches_recompute(self, rng):
        for seed in range(5):
            g = random_graph(rng, 15, 0.3)
            if g.edge_count == 0:
                continue
            got = louvain(g, seed=seed)
            assert got.modularity == modularity(g, got.labels)

    def test_level_modularity_non_decreasing(self, rng):
        for seed in range(30):
            g = random_graph(rng, rng.randint(2, 20), rng.uniform(0.1, 0.7))
            if g.edge_count == 0:
                continue
            got = louvain(g, seed=seed)
            assert len(got.level_modularities) == got.level_count
            for a, b in zip(got.level_modularities, got.level_modularities[1:]):
                assert b >= a - 1e-9


@pytest.mark.parametrize("resolution", [float("nan"), -1.0, 0.0, float("inf")])
def test_louvain_rejects_bad_resolution(resolution):
    g = graph_of([(1, 2, 5), (2, 3, 5)])
    with pytest.raises(InvalidSpec, match="resolution"):
        louvain(g, 0, resolution=resolution)


# sha256 over every _louvain_golden_cases result; labels and the exact float
# of every modularity, so a rewrite of the level graph cannot move one bit
LOUVAIN_GOLDEN_DIGEST = "94c6ce3e047fd275a31fd9e184f81134434cf1b1e9cefda8326ec375e380a690"


def _louvain_golden_cases():
    """300 seeded random graphs (2-120 nodes, weights >= 1 drawn up to 1, 3,
    100 or 1000), six ring scenes and one 40x40 grid scene."""
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 120)
        p = rng.uniform(1.0, 6.0) / n
        yield random_graph(rng, n, p, max_w=(1, 3, 100, 1000)[seed % 4])
    for seed in range(6):
        spec = SynthSpec(
            cluster_count=3 + 2 * seed,
            cluster_size=2 + seed, intra_weight=100, inter_weight=10 + 15 * seed,
            noise_sigma=0.2, seed=seed,
        )
        yield build_graph(gen_ring_scene(spec))
    yield build_graph(gen_grid_scene(SynthSpec(cluster_count=40)))


def test_louvain_golden_digest():
    h = hashlib.sha256()
    for i, g in enumerate(_louvain_golden_cases()):
        for resolution in (1.0, 0.5, 2.0):
            got = louvain(g, seed=i, resolution=resolution)
            record = (
                sorted(by_view(g, got.labels).items()),
                repr(got.modularity),
                [repr(q) for q in got.level_modularities],
                got.level_count,
            )
            h.update(repr(record).encode())
    assert h.hexdigest() == LOUVAIN_GOLDEN_DIGEST


def test_all_zero_weight_graph_gives_singletons():
    # a pair with no matches is no edge, so this graph has none
    g = graph_of([(1, 2, 0), (2, 3, 0), (1, 3, 0)])
    assert g.edge_count == 0
    got = louvain(g, seed=0)
    assert got.labels == [0, 1, 2]
    assert got.modularity == 0.0
