import random

import pytest

from conftest import edges_of, graph_of, random_graph
from oracles import bfs_all, union_find_components
from sparseview.errors import InvalidSpec, UnknownNode
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
        assert g.ids == (1, 2, 3)
        assert len(g.adjacency[g.node(3)]) == 0

    def test_empty_edge_list(self):
        g = build_graph(scene_with([], [1, 2, 3]))
        assert g.edge_count == 0
        assert sorted(len(c) for c in connected_components(g)) == [1, 1, 1]

    def test_complete_graph_degrees(self):
        triples = [(u, v, 10) for u in range(1, 5) for v in range(u + 1, 5)]
        g = build_graph(scene_with(triples, range(1, 5)))
        assert all(len(nbrs) == 3 for nbrs in g.adjacency)

    def test_zero_weight_pair_is_no_edge(self):
        g = from_edge_weights([1, 2, 3, 4], {(1, 2): 0, (2, 3): 7, (3, 4): 0})
        assert g.ids == (1, 2, 3, 4)
        assert list(edges_of(g)) == [(1, 2, 7)]  # nodes of views 2 and 3
        assert len(g.adjacency[0]) == 0 and len(g.adjacency[3]) == 0
        g = build_graph(scene_with([(1, 2, 0), (2, 3, 7)], [1, 2, 3]))
        assert list(edges_of(g)) == [(1, 2, 7)]

    def test_sorted_ids_become_nodes(self):
        g = from_edge_weights([10**9 + 7, 5, 40], {(40, 5): 3, (5, 10**9 + 7): 9})
        assert g.ids == (5, 40, 10**9 + 7)
        assert g.adjacency == [(1, 2), (0,), (0,)]
        assert g.weights == [(3, 9), (3,), (9,)]
        assert [g.node(v) for v in g.ids] == [0, 1, 2]
        for missing in (0, 6, 41, 10**9 + 8):
            with pytest.raises(UnknownNode, match=f"unknown node {missing}$"):
                g.node(missing)


class TestPrune:
    def test_threshold_50(self):
        g = graph_of([(1, 2, 60), (2, 3, 40)])
        pruned = prune_edges(g, 50)
        assert list(edges_of(pruned)) == [(0, 1, 60)]
        assert pruned.ids == (1, 2, 3)

    def test_zero_threshold_identity(self):
        g = graph_of([(1, 2, 60), (2, 3, 40)])
        assert prune_edges(g, 0).adjacency == g.adjacency

    def test_negative_threshold(self):
        with pytest.raises(InvalidSpec, match="threshold must be >= 0, got -1$"):
            prune_edges(graph_of([(1, 2, 60)]), -1)

    def test_over_max_gives_edgeless(self):
        g = graph_of([(1, 2, 60), (2, 3, 40)])
        pruned = prune_edges(g, 61)
        assert pruned.edge_count == 0
        assert pruned.ids == (1, 2, 3)

    def test_idempotent_and_monotone(self, rng):
        for _ in range(20):
            g = random_graph(rng, 12, 0.4)
            t1, t2 = sorted((rng.randint(0, 100), rng.randint(0, 100)))
            p1 = prune_edges(g, t2)
            assert prune_edges(p1, t2).adjacency == p1.adjacency
            lower = set(edges_of(prune_edges(g, t1)))
            assert set(edges_of(p1)) <= lower


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
        assert sorted(map(sorted, connected_components(g))) == [[0], [1], [2]]

    def test_connected_single(self):
        g = graph_of([(1, 2, 5), (2, 3, 5)])
        assert connected_components(g) == [[0, 1, 2]]

    def test_matches_union_find_oracle(self, rng):
        for _ in range(20):
            g = random_graph(rng, 50, 0.04)
            got = sorted(map(frozenset, connected_components(g)), key=min)
            want = sorted(
                map(frozenset, union_find_components(range(g.node_count), [(u, v) for u, v, _ in edges_of(g)])),
                key=min,
            )
            assert got == want

    def test_insertion_order_invariant(self, rng):
        triples = [(1, 5, 9), (5, 9, 9), (2, 3, 9)]
        a = graph_of(triples, nodes=[1, 2, 3, 5, 9, 11])
        shuffled = list(triples)
        random.Random(7).shuffle(shuffled)
        b = graph_of(shuffled, nodes=[11, 9, 5, 3, 2, 1])
        assert a == b
        assert sorted(map(frozenset, connected_components(a)), key=min) == sorted(
            map(frozenset, connected_components(b)), key=min
        )


def test_subgraph_restricts_both_sides():
    g = graph_of([(1, 2, 5), (2, 3, 5), (3, 4, 5)])
    sub = subgraph(g, [g.node(3), g.node(2)])
    assert sub.ids == (2, 3)
    assert list(edges_of(sub)) == [(0, 1, 5)]


class TestBfsTargets:
    def test_targets_get_full_search_distances(self, rng):
        for _ in range(40):
            g = random_graph(rng, 30, rng.uniform(0.02, 0.15))
            nodes = list(range(g.node_count))
            start = rng.choice(nodes)
            full = bfs_all(dict(enumerate(g.adjacency)), start)
            targets = rng.sample(nodes, rng.randint(0, 6))
            got = bfs_distances(g, start, targets)
            assert all(full[v] == d for v, d in got.items())
            if all(t in full for t in targets):
                assert all(got[t] == full[t] for t in targets)
            else:  # an unreachable target exhausts start's component
                assert got == full

    def test_stops_once_targets_are_reached(self):
        g = graph_of([(i, i + 1, 5) for i in range(1, 10)])  # node i is view i + 1
        assert bfs_distances(g, 0, [1]) == {0: 0, 1: 1}
        assert bfs_distances(g, 4, [4]) == {4: 0}
        assert bfs_distances(g, 4, []) == {4: 0}
        assert bfs_distances(g, 0, [9]) == {v: v for v in range(10)}

    def test_unknown_start(self):
        # a start outside the part is unknown there, and the error names its view
        g = graph_of([(1000, 2000, 5), (2000, 3000, 5)])
        with pytest.raises(UnknownNode, match="unknown node 1000$"):
            bfs_distances(g, 0, [1], part=[False, True, True])
