import random

import pytest

from conftest import graph_of, random_graph
from oracles import bfs_all, union_find_components
from sparseview.errors import UnknownNode
from sparseview.recon_io import SceneReconstruction
from sparseview.view_graph import (
    bfs_distances,
    build_graph,
    compute_stats,
    connected_components,
    from_edge_weights,
    prune_edges,
    subgraph,
)


def scene_with(edge_triples, view_ids):
    # poses are irrelevant to graph construction; identity everywhere
    from sparseview.recon_io import CameraIntrinsics, CameraModel, PosedView

    cam = CameraIntrinsics(1, CameraModel.SIMPLE_PINHOLE, 10, 10, (1.0, 5.0, 5.0))
    views = {
        vid: PosedView(vid, 1, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), f"{vid}.jpg")
        for vid in view_ids
    }
    edges = {(u, v): w for u, v, w in edge_triples}
    return SceneReconstruction("s", {1: cam}, views, edges)


class TestBuild:
    def test_isolated_views_kept(self):
        g = build_graph(scene_with([(1, 2, 60)], [1, 2, 3]))
        assert sorted(g.adjacency) == [1, 2, 3]
        assert len(g.adjacency[3]) == 0

    def test_empty_edge_list(self):
        g = build_graph(scene_with([], [1, 2, 3]))
        assert g.edge_count == 0
        assert sorted(len(c) for c in connected_components(g)) == [1, 1, 1]

    def test_complete_graph_degrees(self):
        triples = [(u, v, 10) for u in range(1, 5) for v in range(u + 1, 5)]
        g = build_graph(scene_with(triples, range(1, 5)))
        assert all(len(g.adjacency[v]) == 3 for v in g.adjacency)

    def test_zero_weight_pair_is_no_edge(self):
        g = from_edge_weights([1, 2, 3, 4], {(1, 2): 0, (2, 3): 7, (3, 4): 0})
        assert sorted(g.adjacency) == [1, 2, 3, 4]
        assert list(g.edges()) == [(2, 3, 7)]
        assert len(g.adjacency[1]) == 0 and len(g.adjacency[4]) == 0
        g = build_graph(scene_with([(1, 2, 0), (2, 3, 7)], [1, 2, 3]))
        assert list(g.edges()) == [(2, 3, 7)]


class TestPrune:
    def test_threshold_50(self):
        g = graph_of([(1, 2, 60), (2, 3, 40)])
        pruned = prune_edges(g, 50)
        assert list(pruned.edges()) == [(1, 2, 60)]
        assert sorted(pruned.adjacency) == [1, 2, 3]

    def test_zero_threshold_identity(self):
        g = graph_of([(1, 2, 60), (2, 3, 40)])
        assert prune_edges(g, 0).adjacency == g.adjacency

    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            prune_edges(graph_of([(1, 2, 60)]), -1)

    def test_over_max_gives_edgeless(self):
        g = graph_of([(1, 2, 60), (2, 3, 40)])
        pruned = prune_edges(g, 61)
        assert pruned.edge_count == 0
        assert sorted(pruned.adjacency) == [1, 2, 3]

    def test_idempotent_and_monotone(self, rng):
        for _ in range(20):
            g = random_graph(rng, 12, 0.4)
            t1, t2 = sorted((rng.randint(0, 100), rng.randint(0, 100)))
            p1 = prune_edges(g, t2)
            assert prune_edges(p1, t2).adjacency == p1.adjacency
            lower = {e for e in prune_edges(g, t1).edges()}
            assert {e for e in p1.edges()} <= lower


class TestStats:
    def test_path_fractions(self):
        g = graph_of([(1, 2, 5), (2, 3, 5)])
        stats = compute_stats(g)
        assert stats.frac_degree_le[1] == pytest.approx(2 / 3)
        assert stats.frac_degree_le[2] == 1.0

    def test_two_disjoint_edges(self):
        g = graph_of([(1, 2, 5), (3, 4, 5)])
        assert compute_stats(g).connected_component_sizes == [2, 2]

    def test_mean_weight(self):
        g = graph_of([(1, 2, 100), (2, 3, 200), (3, 4, 300)])
        assert compute_stats(g).mean_match_count == pytest.approx(200.0)

    def test_edgeless_mean_absent(self):
        g = graph_of([], nodes=[1, 2])
        assert compute_stats(g).mean_match_count is None

    def test_degree_sum_equals_twice_edges(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 15), rng.random())
            stats = compute_stats(g)
            assert sum(d * c for d, c in stats.degree_histogram.items()) == 2 * stats.edge_count
            assert sum(stats.connected_component_sizes) == stats.node_count


class TestComponents:
    def test_edgeless_singletons(self):
        g = graph_of([], nodes=[1, 2, 3])
        assert sorted(map(sorted, connected_components(g))) == [[1], [2], [3]]

    def test_connected_single(self):
        g = graph_of([(1, 2, 5), (2, 3, 5)])
        assert connected_components(g) == [{1, 2, 3}]

    def test_matches_union_find_oracle(self, rng):
        for _ in range(20):
            g = random_graph(rng, 50, 0.04)
            got = sorted(map(frozenset, connected_components(g)), key=min)
            want = sorted(
                map(frozenset, union_find_components(g.adjacency, [(u, v) for u, v, _ in g.edges()])),
                key=min,
            )
            assert got == want

    def test_insertion_order_invariant(self, rng):
        triples = [(1, 5, 9), (5, 9, 9), (2, 3, 9)]
        a = graph_of(triples, nodes=[1, 2, 3, 5, 9, 11])
        shuffled = list(triples)
        random.Random(7).shuffle(shuffled)
        b = graph_of(shuffled, nodes=[11, 9, 5, 3, 2, 1])
        assert sorted(map(frozenset, connected_components(a)), key=min) == sorted(
            map(frozenset, connected_components(b)), key=min
        )


def test_subgraph_restricts_both_sides():
    g = graph_of([(1, 2, 5), (2, 3, 5), (3, 4, 5)])
    sub = subgraph(g, {2, 3})
    assert sorted(sub.adjacency) == [2, 3]
    assert list(sub.edges()) == [(2, 3, 5)]


class TestBfsTargets:
    def test_targets_get_full_search_distances(self, rng):
        for _ in range(40):
            g = random_graph(rng, 30, rng.uniform(0.02, 0.15))
            nodes = sorted(g.adjacency)
            start = rng.choice(nodes)
            full = bfs_all({u: [v for v, _ in g.adjacency[u]] for u in nodes}, start)
            targets = rng.sample(nodes, rng.randint(0, 6))
            got = bfs_distances(g, start, targets)
            assert all(full[v] == d for v, d in got.items())
            if all(t in full for t in targets):
                assert all(got[t] == full[t] for t in targets)
            else:  # an unreachable target exhausts start's component
                assert got == full

    def test_stops_once_targets_are_reached(self):
        g = graph_of([(i, i + 1, 5) for i in range(1, 10)])
        assert bfs_distances(g, 1, [2]) == {1: 0, 2: 1}
        assert bfs_distances(g, 5, [5]) == {5: 0}
        assert bfs_distances(g, 5, []) == {5: 0}
        assert bfs_distances(g, 1, [10]) == {v: v - 1 for v in range(1, 11)}

    def test_unknown_start(self):
        with pytest.raises(UnknownNode, match="unknown node 0"):
            bfs_distances(graph_of([(1, 2, 5)]), 0, [1])
