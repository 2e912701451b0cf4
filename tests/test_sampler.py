import random
from collections import Counter

import pytest

from conftest import graph_of, random_graph, random_positions
from oracles import greedy_choice
from sparseview.batches import Phase
from sparseview.community import CommunityAssignment, louvain
from sparseview.errors import EmptyPartition, InvalidK, InvalidSpec, UnknownNode
from sparseview.sampler import (
    Preset,
    SamplingConfig,
    dfs_subsample,
    generate_batches,
    greedy_step,
    induced_component_count,
    prepare_scene,
    sample_partition,
)
from sparseview.synth import SynthKind, SynthSpec, gen_ring_scene
from sparseview.view_graph import build_graph, prune_edges


def communities_of(labels):
    return CommunityAssignment(labels=labels, modularity=0.0, level_count=1)


def clique_scene(size=30, seed=0):
    spec = SynthSpec(
        kind=SynthKind.RING_OF_CLUSTERS, cluster_count=1, cluster_size=size,
        intra_weight=100, inter_weight=60, noise_sigma=0.05, seed=seed,
    )
    return gen_ring_scene(spec)


def ring_scene(clusters=12, size=12, seed=0):
    spec = SynthSpec(
        kind=SynthKind.RING_OF_CLUSTERS, cluster_count=clusters, cluster_size=size,
        intra_weight=100, inter_weight=60, noise_sigma=0.1, seed=seed,
    )
    return gen_ring_scene(spec)


class TestGreedyStep:
    def test_novelty_beats_distance(self):
        g = graph_of([(0, 1, 9), (0, 2, 9)])
        comms = communities_of({0: 0, 1: 1, 2: 0})
        pos = {0: (0, 0, 0), 1: (1, 0, 0), 2: (100, 0, 0)}
        assert greedy_step(g, 0, {0}, comms, pos) == 1

    def test_distance_within_seen_communities(self):
        g = graph_of([(0, 1, 9), (0, 2, 9)])
        comms = communities_of({0: 0, 1: 0, 2: 0})
        pos = {0: (0, 0, 0), 1: (2, 0, 0), 2: (5, 0, 0)}
        assert greedy_step(g, 0, {0}, comms, pos) == 2

    def test_id_tiebreak(self):
        g = graph_of([(0, 3, 9), (0, 7, 9)])
        comms = communities_of({0: 0, 3: 0, 7: 0})
        pos = {0: (0, 0, 0), 3: (1, 0, 0), 7: (-1, 0, 0)}
        assert greedy_step(g, 0, {0}, comms, pos) == 3

    def test_no_candidates(self):
        g = graph_of([(0, 1, 9)])
        comms = communities_of({0: 0, 1: 0})
        pos = {0: (0, 0, 0), 1: (1, 0, 0)}
        assert greedy_step(g, 0, {0, 1}, comms, pos) is None

    def test_unknown_node(self):
        g = graph_of([(0, 1, 9)])
        with pytest.raises(UnknownNode):
            greedy_step(g, 5, {5}, communities_of({0: 0, 1: 0}), {})

    def test_matches_sort_oracle(self, rng):
        for _ in range(300):
            n = rng.randint(3, 14)
            g = random_graph(rng, n, rng.uniform(0.3, 0.9))
            nodes = sorted(g.nodes)
            labels = {v: rng.randint(0, 3) for v in nodes}
            pos = random_positions(rng, nodes)
            current = rng.choice(nodes)
            sampled = {current} | set(rng.sample(nodes, rng.randint(0, n - 1)))
            got = greedy_step(g, current, sampled, communities_of(labels), pos)
            want = greedy_choice(
                [u for u, _ in g.adjacency[current]], current, sampled, labels, pos
            )
            assert got == want


class TestSamplePartition:
    def run_clique(self, quota, depth, seed=0):
        scene = clique_scene()
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        assert len(set(comms.labels.values())) == 1
        return sample_partition(
            graph, set(graph.nodes), quota, depth,
            comms, scene.positions(), seed,
        )

    def test_full_depth_no_fill(self):
        picked = self.run_clique(quota=24, depth=24)
        phases = [p.phase for _, p in picked]
        assert len(picked) == 24
        assert all(ph in (Phase.TERMINAL, Phase.STEINER, Phase.GREEDY) for ph in phases)

    def test_half_depth_half_fill(self):
        picked = self.run_clique(quota=24, depth=12)
        phases = [p.phase for _, p in picked]
        assert len(picked) == 24
        assert sum(1 for ph in phases if ph is Phase.FILL) == 12

    def test_quota_one_single_terminal(self):
        picked = self.run_clique(quota=1, depth=5)
        assert len(picked) == 1
        assert picked[0][1].phase is Phase.TERMINAL

    def test_empty_partition(self):
        scene = clique_scene(5)
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        with pytest.raises(EmptyPartition):
            sample_partition(graph, set(), 3, 3, comms, scene.positions(), 0)

    def test_greedy_count_bounded_by_depth(self, rng):
        scene = ring_scene(6, 8)
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        pos = scene.positions()
        for trial in range(30):
            depth = rng.randint(1, 20)
            quota = rng.randint(1, 20)
            picked = sample_partition(graph, set(graph.nodes), quota, depth, comms, pos, trial)
            phases = [p.phase for _, p in picked]
            non_fill = [ph for ph in phases if ph is not Phase.FILL]
            assert sum(1 for ph in phases if ph is Phase.GREEDY) <= depth
            assert len(non_fill) <= min(quota, depth)
            assert len(picked) == quota  # part is large and connected

    def test_deterministic(self):
        a = self.run_clique(quota=10, depth=6, seed=3)
        b = self.run_clique(quota=10, depth=6, seed=3)
        assert a == b


class TestSampleBatch:
    def test_quota_conservation(self):
        scene = ring_scene()
        cfg = SamplingConfig(n_views=24, max_components=4, search_depth=24, seed=5)
        batch = generate_batches(scene, cfg, 1)[0]
        assert len(batch.views) == 24
        per_part = Counter(p.partition for p in batch.provenance)
        assert sorted(per_part) == [0, 1, 2, 3]
        assert all(count >= 1 for count in per_part.values())
        assert sum(per_part.values()) == 24

    def test_dense_regime_single_component(self):
        scene = ring_scene()
        cfg = SamplingConfig(n_views=24, max_components=1, search_depth=5, seed=2)
        ctx = prepare_scene(scene, cfg)
        batch = generate_batches(scene, cfg, 1)[0]
        assert induced_component_count(ctx.pruned, batch.views) == 1

    def test_component_bound_over_seeds(self):
        scene = ring_scene(8, 6)
        cfg = SamplingConfig(n_views=16, max_components=3, search_depth=10, seed=0)
        ctx = prepare_scene(scene, cfg)
        batches = generate_batches(scene, cfg, 50)
        for batch in batches:
            assert induced_component_count(ctx.pruned, batch.views) <= 3
            assert len(batch.views) == len(set(batch.views))

    def test_truncation_flag_on_small_scene(self):
        scene = clique_scene(size=6)
        cfg = SamplingConfig(n_views=10, max_components=2, search_depth=10, seed=1)
        batch = generate_batches(scene, cfg, 1)[0]
        assert batch.truncated
        assert len(batch.views) == 6

    def test_random_preset_on_small_scene_is_truncated(self):
        scene = clique_scene(size=6)
        cfg = SamplingConfig(n_views=10, seed=1, preset=Preset.RANDOM)
        batch = generate_batches(scene, cfg, 1)[0]
        assert batch.truncated
        assert sorted(batch.views) == [1, 2, 3, 4, 5, 6]

    def test_determinism(self):
        scene = ring_scene(6, 6)
        cfg = SamplingConfig(n_views=12, max_components=2, search_depth=8, seed=9)
        a = generate_batches(scene, cfg, 4)
        b = generate_batches(scene, cfg, 4)
        assert a == b

    def test_mixed_preset_resolves_in_range(self):
        scene = ring_scene(8, 6)
        cfg = SamplingConfig(n_views=24, seed=3, preset=Preset.MIXED)
        batches = generate_batches(scene, cfg, 20)
        depths = {b.config.search_depth for b in batches}
        comps = {b.config.max_components for b in batches}
        assert all(5 <= d <= 24 for d in depths)
        assert all(1 <= c <= 4 for c in comps)
        assert len(depths) > 1  # actually varies

    def test_random_preset_uniform_choice(self):
        scene = ring_scene(6, 6)
        cfg = SamplingConfig(n_views=12, seed=3, preset=Preset.RANDOM)
        batch = generate_batches(scene, cfg, 1)[0]
        assert len(batch.views) == 12
        assert all(p.phase is Phase.FILL for p in batch.provenance)


class TestDfsSubsample:
    def make_batch(self, seed=0):
        scene = ring_scene(6, 6)
        cfg = SamplingConfig(n_views=18, max_components=1, search_depth=18, seed=seed)
        ctx = prepare_scene(scene, cfg)
        return generate_batches(scene, cfg, 1)[0], ctx.pruned

    def test_full_k_is_permutation(self):
        batch, graph = self.make_batch()
        sub = dfs_subsample(batch, graph, len(batch.views), seed=4)
        assert sorted(sub.views) == sorted(batch.views)
        assert all(p.phase is Phase.DFS for p in sub.provenance)

    def test_k2_adjacent_on_connected_batch(self):
        batch, graph = self.make_batch()
        sub = dfs_subsample(batch, graph, 2, seed=4)
        a, b = sub.views
        assert b in {v for v, _ in graph.adjacency[a]}

    def test_subset_and_size_over_seeds(self, rng):
        batch, graph = self.make_batch()
        for seed in range(1000):
            k = rng.randint(2, len(batch.views))
            sub = dfs_subsample(batch, graph, k, seed=seed)
            assert len(sub.views) == k
            assert len(set(sub.views)) == k
            assert set(sub.views) <= set(batch.views)

    def test_invalid_k(self):
        batch, graph = self.make_batch()
        with pytest.raises(InvalidK):
            dfs_subsample(batch, graph, 1, seed=0)
        with pytest.raises(InvalidK):
            dfs_subsample(batch, graph, len(batch.views) + 1, seed=0)

    def test_preserves_partition_community(self):
        batch, graph = self.make_batch()
        origin = {v: p for v, p in zip(batch.views, batch.provenance)}
        sub = dfs_subsample(batch, graph, 5, seed=1)
        for v, p in zip(sub.views, sub.provenance):
            assert p.partition == origin[v].partition
            assert p.community == origin[v].community


def test_config_validation():
    with pytest.raises(InvalidSpec):
        SamplingConfig(n_views=1)
    with pytest.raises(InvalidSpec):
        SamplingConfig(n_views=4, max_components=5)
    with pytest.raises(InvalidSpec):
        SamplingConfig(search_depth=0)


def test_config_defaults_apply_only_without_a_preset():
    cfg = SamplingConfig()
    assert (cfg.max_components, cfg.search_depth) == (1, 24)
    for preset in Preset:
        cfg = SamplingConfig(preset=preset)
        assert (cfg.max_components, cfg.search_depth) == (None, None)
        for name, value in (("max_components", 3), ("search_depth", 2)):
            with pytest.raises(InvalidSpec, match=name):
                SamplingConfig(n_views=8, preset=preset, **{name: value})
    with pytest.raises(InvalidSpec, match="max_components"):
        SamplingConfig(n_views=8, max_components=3, search_depth=2, preset=Preset.DENSE)
