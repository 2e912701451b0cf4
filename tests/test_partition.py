import random

import pytest

from conftest import by_view, graph_of, part_views, random_graph, seeds_of
from sparseview.community import louvain
from sparseview.errors import InvalidNcc
from sparseview.partition import partition_round_robin
from sparseview.view_graph import subgraph, connected_components


def path_graph(n):
    return graph_of([(i, i + 1, 10) for i in range(1, n)])


class TestRoundRobin:
    def test_path_hand_simulation(self):
        g = path_graph(5)
        communities = louvain(g, seed=0)
        # seeds (1, 5): round 1: part0 claims 2, part1 claims 4; round 2: part0
        # claims 3. Seeds (4, 2): round 1: part0 claims 3 and 5, part1 claims 1
        cases = [(7, [1, 5], [{1, 2, 3}, {4, 5}]), (1, [4, 2], [{3, 4, 5}, {1, 2}])]
        for seed, seed_nodes, expected in cases:
            assignment = partition_round_robin(g, 2, seed, communities)
            assert seeds_of(g, 2, seed, communities) == seed_nodes
            assert part_views(g, assignment) == expected
            assert by_view(g, assignment) == {v: i for i, part in enumerate(expected) for v in part}

    def test_single_part_is_component(self):
        g = graph_of([(1, 2, 5), (2, 3, 5), (10, 11, 5)])
        communities = louvain(g, seed=0)
        assignment = partition_round_robin(g, 1, 0, communities)
        assert seeds_of(g, 1, 0, communities) == [2]
        assert part_views(g, assignment)[0] == {1, 2, 3}
        assert by_view(g, assignment)[10] == -1

    def test_two_components_two_seeds(self):
        # one community per component, so every seed draw puts one seed in each
        g = graph_of([(1, 2, 5), (2, 3, 5), (10, 11, 5)])
        communities = louvain(g, seed=0)
        for seed in range(10):
            parts = part_views(g, partition_round_robin(g, 2, seed, communities))
            assert sorted(parts, key=min) == [{1, 2, 3}, {10, 11}]

    def test_invalid_ncc(self):
        g = path_graph(3)
        communities = louvain(g, seed=0)
        with pytest.raises(InvalidNcc):
            partition_round_robin(g, 0, 0, communities)
        with pytest.raises(InvalidNcc):
            partition_round_robin(g, 4, 0, communities)

    def test_seeds_are_distinct_graph_nodes(self, rng):
        # n_cc runs past the community count, so the top-up draw runs too
        for trial in range(40):
            g = random_graph(rng, rng.randint(2, 15), rng.uniform(0.1, 0.6))
            communities = louvain(g, seed=trial)
            community_count = len(set(communities.labels))
            labels = by_view(g, communities.labels)
            for n_cc in range(1, g.node_count + 1):
                partition_round_robin(g, n_cc, trial, communities)
                seeds = seeds_of(g, n_cc, trial, communities)
                assert len(set(seeds)) == n_cc
                assert all(s in g.ids for s in seeds)
                assert len({labels[s] for s in seeds}) == min(n_cc, community_count)

    def test_deterministic(self, rng):
        g = random_graph(rng, 30, 0.15)
        a = partition_round_robin(g, 3, 5, louvain(g, seed=0))
        b = partition_round_robin(g, 3, 5, louvain(g, seed=0))
        assert a == b

    def test_invariants_over_seeds(self, rng):
        for trial in range(60):
            g = random_graph(rng, rng.randint(4, 25), rng.uniform(0.05, 0.5))
            n_cc = rng.randint(1, min(4, g.node_count))
            communities = louvain(g, seed=trial)
            assignment = partition_round_robin(g, n_cc, trial, communities)
            seeds = seeds_of(g, n_cc, trial, communities)
            seen = set()
            for i, part in enumerate(part_views(g, assignment)):
                # disjointness and seed containment
                assert not (part & seen)
                seen |= part
                assert seeds[i] in part
                # each part induces a connected subgraph
                comps = connected_components(subgraph(g, [g.node(v) for v in part]))
                assert len(comps) == 1
            # every node is in one part or in none
            assert len(assignment) == g.node_count
            assert all(-1 <= i < n_cc for i in assignment)
            # every reachable node is assigned: no unassigned node adjacent
            # to an assigned one can remain once expansion stops
            for v, nbrs in enumerate(g.adjacency):
                if assignment[v] >= 0:
                    continue
                assert not any(assignment[u] >= 0 for u in nbrs)

    def test_community_stratified_seeds(self):
        # 4 well-separated cliques; 4 seeds should land one per community
        triples = []
        for base in (0, 10, 20, 30):
            members = range(base + 1, base + 5)
            triples += [(u, v, 100) for u in members for v in members if u < v]
        triples += [(4, 11, 60), (14, 21, 60), (24, 31, 60)]
        g = graph_of(triples)
        communities = louvain(g, seed=0)
        for seed in range(20):
            partition_round_robin(g, 4, seed, communities)
            labels = by_view(g, communities.labels)
            seed_comms = {labels[s] for s in seeds_of(g, 4, seed, communities)}
            assert len(seed_comms) == 4
