import hashlib
import random

import pytest

from conftest import graph_of, random_graph
from oracles import mst_weight, steiner_optimum
from sparseview.community import CommunityAssignment
from sparseview.errors import DisconnectedTerminals
from sparseview.steiner import (
    WeightMode,
    approximate_steiner_tree,
    select_terminals,
)


def is_tree(nodes, edges):
    if len(edges) != len(nodes) - 1:
        return False
    adj = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {min(nodes)}
    stack = [min(nodes)]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == set(nodes)


def unit_edges(graph):
    return [(u, v, 1.0) for u, v, _ in graph.edges()]


class TestSelectTerminals:
    def make_communities(self, labels):
        return CommunityAssignment(labels=labels, modularity=0.0, level_count=1)

    def test_one_per_community(self):
        labels = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2}
        comms = self.make_communities(labels)
        terms = select_terminals({1, 2, 3, 4, 5}, comms, seed=0)
        assert len(terms) == 3
        assert {labels[t] for t in terms} == {0, 1, 2}

    def test_single_community(self):
        comms = self.make_communities({1: 0, 2: 0, 3: 0})
        assert len(select_terminals({1, 2, 3}, comms, seed=9)) == 1

    def test_deterministic(self):
        labels = {v: v % 3 for v in range(1, 20)}
        comms = self.make_communities(labels)
        part = set(range(1, 20))
        assert select_terminals(part, comms, 7) == select_terminals(part, comms, 7)

    def test_respects_part_restriction(self):
        labels = {1: 0, 2: 0, 3: 1, 4: 1}
        comms = self.make_communities(labels)
        terms = select_terminals({1, 2}, comms, seed=0)
        assert len(terms) == 1 and terms <= {1, 2}


class TestSteinerTree:
    def test_star_spokes(self):
        g = graph_of([(0, 1, 10), (0, 2, 10), (0, 3, 10)])
        res = approximate_steiner_tree(g, {1, 2, 3}, WeightMode.UNIT_HOP)
        assert res.tree_nodes == frozenset({0, 1, 2, 3})
        assert res.total_weight == 3.0

    def test_all_terminals_equals_mst(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), 0.7)
            nodes = set(g.nodes)
            edges = unit_edges(g)
            want = mst_weight(nodes, edges)
            if want is None:
                continue  # disconnected
            res = approximate_steiner_tree(g, nodes, WeightMode.UNIT_HOP)
            assert res.total_weight == want

    def test_single_terminal(self):
        g = graph_of([(1, 2, 5)])
        res = approximate_steiner_tree(g, {1})
        assert res.tree_nodes == frozenset({1})
        assert res.tree_edges == frozenset()
        assert res.total_weight == 0.0

    def test_disconnected_terminals(self):
        g = graph_of([(1, 2, 5), (3, 4, 5)])
        with pytest.raises(DisconnectedTerminals) as exc:
            approximate_steiner_tree(g, {1, 3})
        assert exc.value.unreachable == [3]

    def test_terminals_joined_only_by_zero_matches_are_disconnected(self):
        # a zero match count has infinite length under INVERSE_MATCH, so no
        # closure edge joins 1 and 3; an empty tree would leave both out
        g = graph_of([(1, 2, 0), (2, 3, 0)])
        with pytest.raises(DisconnectedTerminals) as exc:
            approximate_steiner_tree(g, {1, 3}, WeightMode.INVERSE_MATCH)
        assert exc.value.unreachable == [3]
        res = approximate_steiner_tree(g, {1, 3}, WeightMode.UNIT_HOP)
        assert res.tree_nodes == frozenset({1, 2, 3})

    def test_zero_match_boundary_edge_does_not_join_regions(self):
        # 1 and 4 each reach one side of the zero-match edge (2, 3); under
        # INVERSE_MATCH that edge is absent, as a closure edge too
        g = graph_of([(1, 2, 5), (2, 3, 0), (3, 4, 5)])
        with pytest.raises(DisconnectedTerminals) as exc:
            approximate_steiner_tree(g, {1, 4}, WeightMode.INVERSE_MATCH)
        assert exc.value.unreachable == [4]
        res = approximate_steiner_tree(g, {1, 4}, WeightMode.UNIT_HOP)
        assert res.total_weight == 3.0

    def test_non_terminal_leaves_pruned(self, rng):
        for trial in range(40):
            g = random_graph(rng, 10, 0.35)
            nodes = sorted(g.nodes)
            terms = set(rng.sample(nodes, rng.randint(2, 4)))
            try:
                res = approximate_steiner_tree(g, terms, WeightMode.UNIT_HOP)
            except DisconnectedTerminals:
                continue
            assert is_tree(res.tree_nodes, res.tree_edges)
            assert terms <= set(res.tree_nodes)
            degree = {n: 0 for n in res.tree_nodes}
            for u, v in res.tree_edges:
                degree[u] += 1
                degree[v] += 1
            for n, d in degree.items():
                if d <= 1 and len(res.tree_nodes) > 1:
                    assert n in terms

    def test_approximation_bound_unit_hop(self, rng):
        checked = 0
        while checked < 60:
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.uniform(0.3, 0.8))
            terms = set(rng.sample(sorted(g.nodes), rng.randint(2, 4)))
            try:
                res = approximate_steiner_tree(g, terms, WeightMode.UNIT_HOP)
            except DisconnectedTerminals:
                continue
            opt = steiner_optimum(g.nodes, unit_edges(g), terms)
            bound = 2.0 * (1.0 - 1.0 / len(terms)) * opt + 1e-9
            assert res.total_weight <= max(bound, opt + 1e-9)
            checked += 1

    def test_approximation_bound_inverse_match(self, rng):
        checked = 0
        while checked < 40:
            n = rng.randint(4, 9)
            g = random_graph(rng, n, rng.uniform(0.3, 0.8), max_w=50)
            terms = set(rng.sample(sorted(g.nodes), rng.randint(2, 4)))
            try:
                res = approximate_steiner_tree(g, terms, WeightMode.INVERSE_MATCH)
            except DisconnectedTerminals:
                continue
            inv_edges = [(u, v, 1.0 / w) for u, v, w in g.edges()]
            opt = steiner_optimum(g.nodes, inv_edges, terms)
            bound = 2.0 * (1.0 - 1.0 / len(terms)) * opt + 1e-9
            assert res.total_weight <= max(bound, opt + 1e-9)
            checked += 1

    def test_deterministic(self, rng):
        g = random_graph(rng, 12, 0.3)
        terms = set(sorted(g.nodes)[:3])
        try:
            a = approximate_steiner_tree(g, terms)
            b = approximate_steiner_tree(g, terms)
        except DisconnectedTerminals:
            return
        assert a == b


# sha256 over every _golden_cases result in both weight modes; sampled batches
# are built from these trees, so a new value here can mean new batch bytes
GOLDEN_DIGEST = "76e96eda0568673f0f9b57ec9cfff3cda298dee2a6e6e777350a100241a56e23"


def _lattice(rng, rows, cols, weights):
    """rows x cols grid whose edge weights come from a small repeated set."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1, rng.choice(weights)))
            if r + 1 < rows:
                edges.append((v, v + cols, rng.choice(weights)))
    return edges, rows * cols


def _golden_cases():
    """200 seeded, tie-heavy inputs: equal-weight lattices (ties everywhere),
    lattices over match counts whose inverse lengths round differently in
    different sum orders, and random graphs over a few repeated counts with
    zero (an absent edge under inverse-match) among them. Each has a terminal-free
    component beside the terminals' one."""
    for seed in range(200):
        rng = random.Random(seed)
        kind = seed % 4
        if kind == 0:
            edges, n = _lattice(rng, rng.randint(2, 7), rng.randint(2, 7), (10,))
        elif kind == 1:
            edges, n = _lattice(rng, rng.randint(4, 10), rng.randint(4, 10), (3, 5, 6, 7, 10))
        else:
            n = rng.randint(4, 30)
            counts = (0, 0, 1, 3) if kind == 2 else (0, 1, 2, 4, 4, 8)
            edges = [
                (u, v, rng.choice(counts))
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.25
            ]
        extra = rng.randint(0, 8)
        edges += [(n + i, n + i + 1, rng.choice((3, 6))) for i in range(1, extra)]
        g = graph_of(edges, nodes=range(1, n + extra + 2))
        terms = set(rng.sample(range(1, n + 1), rng.randint(2, min(n, 7))))
        yield g, terms


def test_golden_digest():
    """Pins the exact trees, edge sets and weight sums (ties included) of
    approximate_steiner_tree, so a rewrite of its internals cannot change
    a sampled batch unnoticed."""
    h = hashlib.sha256()
    for g, terms in _golden_cases():
        for mode in WeightMode:
            try:
                res = approximate_steiner_tree(g, terms, mode)
            except DisconnectedTerminals as exc:
                record = ("disconnected", exc.unreachable)
            else:
                record = (
                    sorted(res.tree_nodes), sorted(res.tree_edges), repr(res.total_weight)
                )
            h.update(repr(record).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


def test_networkx_mehlhorn_oracle():
    """On graphs too large for the brute-force oracle, the tree is valid and
    weighs at most 2(1 - 1/|T|) times networkx's Mehlhorn tree, which weighs
    at least the optimum, so the bound is sound."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.approximation import steiner_tree as nx_steiner_tree

    rng = random.Random(2604)
    for trial in range(16):
        n = rng.randint(50, 300)
        # a random spanning tree plus random chords keeps the graph connected
        weights = {(rng.randint(1, v - 1), v): rng.randint(1, 100) for v in range(2, n + 1)}
        for _ in range(rng.randint(n // 2, 3 * n)):
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            weights[(u, v)] = rng.randint(1, 100)
        g = graph_of([(u, v, w) for (u, v), w in weights.items()])
        terms = set(rng.sample(range(1, n + 1), rng.randint(2, 12)))
        mode = (WeightMode.UNIT_HOP, WeightMode.INVERSE_MATCH)[trial % 2]
        length = {
            e: 1.0 if mode is WeightMode.UNIT_HOP else 1.0 / w for e, w in weights.items()
        }

        res = approximate_steiner_tree(g, terms, mode)
        assert is_tree(res.tree_nodes, res.tree_edges)
        assert terms <= res.tree_nodes
        assert res.tree_edges <= length.keys()
        degree = {n: 0 for n in res.tree_nodes}
        for u, v in res.tree_edges:
            degree[u] += 1
            degree[v] += 1
        assert {n for n, d in degree.items() if d <= 1} <= terms
        assert res.total_weight == pytest.approx(sum(length[e] for e in res.tree_edges))

        nxg = nx.Graph()
        nxg.add_weighted_edges_from((u, v, x) for (u, v), x in length.items())
        ref = nx_steiner_tree(nxg, sorted(terms), weight="weight", method="mehlhorn")
        bound = 2.0 * (1.0 - 1.0 / len(terms)) * ref.size(weight="weight")
        assert res.total_weight <= bound * (1 + 1e-9)
