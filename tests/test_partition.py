import random

import pytest

from conftest import graph_of, random_graph
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
            parts = partition_round_robin(g, 2, seed, communities)
            assert parts.seed_nodes == seed_nodes
            assert parts.parts == expected
            assert parts.assignment == {v: i for i, part in enumerate(expected) for v in part}

    def test_single_part_is_component(self):
        g = graph_of([(1, 2, 5), (2, 3, 5), (10, 11, 5)])
        parts = partition_round_robin(g, 1, 0, louvain(g, seed=0))
        assert parts.seed_nodes == [2]
        assert parts.parts[0] == {1, 2, 3}
        assert 10 not in parts.assignment

    def test_two_components_two_seeds(self):
        # one community per component, so every seed draw puts one seed in each
        g = graph_of([(1, 2, 5), (2, 3, 5), (10, 11, 5)])
        communities = louvain(g, seed=0)
        for seed in range(10):
            parts = partition_round_robin(g, 2, seed, communities)
            assert sorted(parts.parts, key=min) == [{1, 2, 3}, {10, 11}]

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
            community_count = len(set(communities.labels.values()))
            for n_cc in range(1, g.node_count + 1):
                seeds = partition_round_robin(g, n_cc, trial, communities).seed_nodes
                assert len(set(seeds)) == n_cc
                assert all(g.has_node(s) for s in seeds)
                assert len({communities.labels[s] for s in seeds}) == min(n_cc, community_count)

    def test_deterministic(self, rng):
        g = random_graph(rng, 30, 0.15)
        a = partition_round_robin(g, 3, 5, louvain(g, seed=0))
        b = partition_round_robin(g, 3, 5, louvain(g, seed=0))
        assert a.assignment == b.assignment
        assert a.seed_nodes == b.seed_nodes

    def test_invariants_over_seeds(self, rng):
        for trial in range(60):
            g = random_graph(rng, rng.randint(4, 25), rng.uniform(0.05, 0.5))
            n_cc = rng.randint(1, min(4, g.node_count))
            parts = partition_round_robin(g, n_cc, trial, louvain(g, seed=trial))
            seen = set()
            for i, part in enumerate(parts.parts):
                # disjointness and seed containment
                assert not (part & seen)
                seen |= part
                assert parts.seed_nodes[i] in part
                # each part induces a connected subgraph
                comps = connected_components(subgraph(g, part))
                assert len(comps) == 1
            # assignment covers exactly the union of parts
            assert set(parts.assignment) == seen
            # every reachable node is assigned: no unassigned node adjacent
            # to an assigned one can remain once expansion stops
            for v in g.nodes:
                if v in seen:
                    continue
                assert not any(u in seen for u, _ in g.adjacency[v])

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
            parts = partition_round_robin(g, 4, seed, communities)
            seed_comms = {communities.labels[s] for s in parts.seed_nodes}
            assert len(seed_comms) == 4
