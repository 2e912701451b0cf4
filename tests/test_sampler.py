import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest

from conftest import CHILD_ENV, ONE_CPU, by_node, communities_for, graph_of, random_graph, random_positions
from oracles import greedy_choice, max_terminal_subtree_reference, union_find_components
from sparseview import sampler
from sparseview.batches import Phase, read_batches
from sparseview.cli import run
from sparseview.community import CommunityAssignment, louvain
from sparseview.errors import (
    DisconnectedTerminals,
    EmptyPartition,
    InvalidK,
    InvalidSpec,
    InvariantViolation,
    UnknownNode,
)
from sparseview.sampler import (
    Preset,
    SamplingConfig,
    derive_seed,
    dfs_subsample,
    generate_batches,
    greedy_step,
    prepare_scene,
    sample_partition,
)
from sparseview.recon_io import load_scene_dir
from sparseview.synth import SynthSpec, gen_ring_scene
from sparseview.view_graph import build_graph, prune_edges


def component_count(graph, views):
    """Components of the subgraph the view ids `views` induce, by the
    union-find oracle."""
    nodes = {graph.node(v) for v in views}
    edges = [(u, v) for u in nodes for v in graph.adjacency[u] if v in nodes]
    return len(union_find_components(nodes, edges))


def keep_whole_tree(tree_nodes, tree_edges, terminals, budget):
    """Stand-in for _max_terminal_subtree that ignores the budget."""
    return set(tree_nodes)


def clique_scene(size=30, seed=0):
    spec = SynthSpec(
        cluster_count=1, cluster_size=size,
        intra_weight=100, inter_weight=60, noise_sigma=0.05, seed=seed,
    )
    return gen_ring_scene(spec)


def ring_scene(clusters=12, size=12, seed=0):
    spec = SynthSpec(
        cluster_count=clusters, cluster_size=size,
        intra_weight=100, inter_weight=60, noise_sigma=0.1, seed=seed,
    )
    return gen_ring_scene(spec)


class TestGreedyStep:
    def test_novelty_beats_distance(self):
        g = graph_of([(0, 1, 9), (0, 2, 9)])  # node v is view v
        comms = CommunityAssignment([0, 1, 0], (0.0,))
        pos = [(0, 0, 0), (1, 0, 0), (100, 0, 0)]
        assert greedy_step(g, 0, {0}, comms, pos) == 1

    def test_distance_within_seen_communities(self):
        g = graph_of([(0, 1, 9), (0, 2, 9)])
        comms = CommunityAssignment([0, 0, 0], (0.0,))
        pos = [(0, 0, 0), (2, 0, 0), (5, 0, 0)]
        assert greedy_step(g, 0, {0}, comms, pos) == 2

    def test_id_tiebreak(self):
        g = graph_of([(0, 3, 9), (0, 7, 9)])
        comms = communities_for(g, {0: 0, 3: 0, 7: 0})
        pos = by_node(g, {0: (0, 0, 0), 3: (1, 0, 0), 7: (-1, 0, 0)})
        assert g.ids[greedy_step(g, 0, {0}, comms, pos)] == 3

    def test_no_candidates(self):
        g = graph_of([(0, 1, 9)])
        comms = CommunityAssignment([0, 0], (0.0,))
        pos = [(0, 0, 0), (1, 0, 0)]
        assert greedy_step(g, 0, {0, 1}, comms, pos) is None

    def test_unknown_node(self):
        # a current outside the part is unknown there, and the error names its view
        g = graph_of([(10**9, 10**9 + 7, 9)])
        pos = [(0, 0, 0), (1, 0, 0)]
        with pytest.raises(UnknownNode, match=f"unknown node {10**9}$"):
            greedy_step(g, 0, {0}, CommunityAssignment([0, 0], (0.0,)), pos, part=[False, True])

    def test_matches_sort_oracle(self, rng):
        for _ in range(300):
            n = rng.randint(3, 14)
            g = random_graph(rng, n, rng.uniform(0.3, 0.9))
            nodes = list(range(g.node_count))
            labels = [rng.randint(0, 3) for _ in nodes]
            pos = random_positions(rng, nodes)
            current = rng.choice(nodes)
            sampled = {current} | set(rng.sample(nodes, rng.randint(0, n - 1)))
            got = greedy_step(g, current, sampled, CommunityAssignment(labels, (0.0,)), pos)
            want = greedy_choice(g.adjacency[current], current, sampled, labels, pos)
            assert got == want


def test_max_terminal_subtree_matches_brute_force():
    """The tree knapsack keeps a connected set of min(budget, n) nodes with as
    many terminals as any such set, on random trees of up to 11 nodes at
    every budget."""
    rng = random.Random(20)
    for _ in range(250):  # 1 737 (tree, budget) cases
        n = rng.randint(1, 11)
        ids = rng.sample(range(1, 100), n)
        edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(edges)
        terminals = set(rng.sample(ids, rng.randint(0, n)))
        for budget in range(1, n + 2):
            keep = sampler._max_terminal_subtree(set(ids), edges, terminals, budget)
            assert keep <= set(ids) and len(keep) == min(budget, n)
            inside = [(u, v) for u, v in edges if u in keep and v in keep]
            assert len(union_find_components(keep, inside)) == 1
            want = max_terminal_subtree_reference(ids, edges, terminals, budget)
            assert len(keep & terminals) == want, (ids, edges, terminals, budget)


def test_max_terminal_subtree_keeps_a_subtree_deeper_than_the_recursion_limit():
    """A 1 100-node path kept 1 050 nodes deep: any 1 050 consecutive nodes
    hold two of the terminals 0, 500 and 1 099, and no set holds all three."""
    edges = [(v, v + 1) for v in range(1099)]
    keep = sampler._max_terminal_subtree(set(range(1100)), edges, {0, 500, 1099}, 1050)
    assert len(keep) == 1050 and max(keep) - min(keep) == 1049
    assert len(keep & {0, 500, 1099}) == 2


class TestSamplePartition:
    def run_clique(self, quota, depth, seed=0):
        scene = clique_scene()
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        assert len(set(comms.labels)) == 1
        return sample_partition(
            graph, [True] * graph.node_count, quota, depth,
            comms, scene.positions(graph.ids), seed,
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
            sample_partition(graph, [False] * graph.node_count, 3, 3, comms, scene.positions(graph.ids), 0)

    def test_quota_below_one(self):
        scene = clique_scene(5)
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        with pytest.raises(ValueError, match="quota"):
            sample_partition(graph, [True] * graph.node_count, 0, 3, comms, scene.positions(graph.ids), 0)

    def test_search_views_past_the_budget_raise(self, monkeypatch):
        # with the Steiner tree kept whole, its views overrun min(quota, depth)
        # as soon as depth is one below the tree's size
        monkeypatch.setattr(sampler, "_max_terminal_subtree", keep_whole_tree)
        scene = ring_scene(6, 8)
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        args = (graph, [True] * graph.node_count, 40)
        picked = sample_partition(*args, 40, comms, scene.positions(graph.ids), 0)
        tree = sum(1 for _, p in picked if p.phase in (Phase.TERMINAL, Phase.STEINER))
        assert 6 <= tree < 40
        sample_partition(*args, tree, comms, scene.positions(graph.ids), 0)
        with pytest.raises(InvariantViolation, match=f"{tree} search views, budget min"):
            sample_partition(*args, tree - 1, comms, scene.positions(graph.ids), 0)

    def test_greedy_count_bounded_by_depth(self, rng):
        scene = ring_scene(6, 8)
        graph = prune_edges(build_graph(scene), 50)
        comms = louvain(graph, seed=1)
        pos = scene.positions(graph.ids)
        for trial in range(30):
            depth = rng.randint(1, 20)
            quota = rng.randint(1, 20)
            picked = sample_partition(graph, [True] * graph.node_count, quota, depth, comms, pos, trial)
            phases = [p.phase for _, p in picked]
            non_fill = [ph for ph in phases if ph is not Phase.FILL]
            assert sum(1 for ph in phases if ph is Phase.GREEDY) <= depth
            assert len(non_fill) <= min(quota, depth)
            assert len(picked) == quota  # part is large and connected

    def test_deterministic(self):
        a = self.run_clique(quota=10, depth=6, seed=3)
        b = self.run_clique(quota=10, depth=6, seed=3)
        assert a == b


def test_fill_stays_in_the_sampled_component():
    # fill draws from the 1-hop ring of the sampled set only, so on a part of
    # two components it stops once the terminal's component is sampled
    graph = graph_of([(1, 2, 100), (2, 3, 100), (10, 11, 100), (11, 12, 100)])
    part = [True] * graph.node_count
    comms = CommunityAssignment([0] * graph.node_count, (0.0,))
    positions = [(float(v), 0.0, 0.0) for v in graph.ids]
    for seed in range(10):
        picked = sample_partition(graph, part, 6, 1, comms, positions, seed)
        assert {graph.ids[v] for v, _ in picked} in ({1, 2, 3}, {10, 11, 12})
        assert [p.phase for _, p in picked] == [Phase.TERMINAL, Phase.FILL, Phase.FILL]


def test_prepare_scene_reads_a_sampling_config():
    # the config's threshold prunes and its seed drives Louvain
    scene = ring_scene(6, 6)
    ctx = prepare_scene(scene, SamplingConfig(prune_threshold=0, seed=7))
    pruned = prune_edges(build_graph(scene), 0)
    assert ctx.pruned == pruned
    assert ctx.communities == louvain(pruned, derive_seed(7, "louvain"))
    assert ctx.positions == [scene.views[v].position for v in pruned.ids]


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
        assert component_count(ctx.pruned, batch.views) == 1

    def test_component_bound_over_seeds(self):
        scene = ring_scene(8, 6)
        cfg = SamplingConfig(n_views=16, max_components=3, search_depth=10, seed=0)
        ctx = prepare_scene(scene, cfg)
        batches = generate_batches(scene, cfg, 50)
        for batch in batches:
            assert component_count(ctx.pruned, batch.views) <= 3
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
        assert graph.node(b) in graph.adjacency[graph.node(a)]

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

    def test_view_outside_the_graph(self):
        batch, graph = self.make_batch()
        outside = replace(batch, views=[*batch.views[:-1], 999])
        with pytest.raises(UnknownNode) as exc:
            dfs_subsample(outside, graph, 2, seed=0)
        assert exc.value.node == 999

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


@pytest.mark.parametrize("count", [0, -3])
def test_generate_batches_refuses_a_count_below_one_before_the_set_up(monkeypatch, count):
    def no_set_up(*args):
        raise AssertionError("prepare_scene ran")

    monkeypatch.setattr(sampler, "prepare_scene", no_set_up)
    with pytest.raises(InvalidSpec, match=f"count must be >= 1, got {count}$"):
        generate_batches(ring_scene(), SamplingConfig(), count)


def test_generate_batches_refuses_a_negative_prune_threshold():
    with pytest.raises(InvalidSpec, match="threshold must be >= 0, got -1$"):
        generate_batches(ring_scene(), SamplingConfig(prune_threshold=-1), 1)


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


def test_ncc_above_the_node_count_is_clamped(tmp_path):
    scene, out = tmp_path / "three", tmp_path / "b.jsonl"
    assert run(["synth", "--kind", "ring", "--clusters", "1", "--cluster-size", "3",
                "--out", str(scene), "--quiet"]) == 0
    assert run(["sample", "--scene", str(scene), "--n", "8", "--ncc", "5", "--batches", "2",
                "--prune-threshold", "0", "--out", str(out), "--quiet"]) == 0
    graph = prune_edges(build_graph(load_scene_dir(str(scene))), 0)
    for batch in read_batches(str(out)):
        assert batch.config.max_components == 3
        assert batch.truncated
        assert len(batch.views) <= 3
        assert component_count(graph, batch.views) <= 3


# Batches are sampled in forked workers, one per usable CPU (`_usable_cpus`)
# with the calling process as one; worker k samples batches k, k + W, ...
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@needs_fork
@pytest.mark.parametrize("preset", [Preset.SPARSE, Preset.MIXED], ids=lambda p: p.value)
def test_worker_count_changes_no_batch(monkeypatch, forks, preset):
    scene = ring_scene(8, 6)
    cfg = SamplingConfig(n_views=12, seed=4, preset=preset)
    got = {}
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        got[cpus] = generate_batches(scene, cfg, 7)
    assert len(forks) == 0 + 1 + 2 + 4
    assert got[2] == got[1] and got[3] == got[1] and got[5] == got[1]


def failing_batches(config, count, failures):
    """Stand-in for `_sample_one` that raises failures[i] for batch i."""
    index = {derive_seed(config.seed, "batch", i): i for i in range(count)}
    real = sampler._sample_one

    def sample_one(ctx, config, batch_seed):
        failure = failures.get(index[batch_seed])
        if failure is not None:
            raise failure
        return real(ctx, config, batch_seed)

    return sample_one


@needs_fork
def test_the_lowest_failing_batch_wins_as_in_the_serial_loop(monkeypatch, forks, tmp_path, capsys):
    # with two workers batch 1 fails in the child and batch 2 in this process
    cfg = SamplingConfig(n_views=12, max_components=2, search_depth=8, seed=9)
    failures = {1: DisconnectedTerminals([7, 3]), 2: InvariantViolation("batch 2")}
    monkeypatch.setattr(sampler, "_sample_one", failing_batches(cfg, 6, failures))
    scene = tmp_path / "ring"
    assert run(["synth", "--kind", "ring", "--out", str(scene), "--quiet"]) == 0
    argv = ["sample", "--scene", str(scene), "--n", "12", "--ncc", "2", "--depth", "8",
            "--seed", "9", "--batches", "6", "--out", str(tmp_path / "b.jsonl")]
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        with pytest.raises(DisconnectedTerminals) as info:
            generate_batches(ring_scene(6, 6), cfg, 6)
        capsys.readouterr()
        code = run(argv)
        outcomes.append((str(info.value), code, capsys.readouterr().err))
    assert len(forks) == 2
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "terminals not reachable: [3, 7]"
    assert outcomes[0][1] == 1


@needs_fork
def test_a_killed_worker_raises_and_is_reaped(monkeypatch, forks):
    parent = os.getpid()
    real = sampler._sample_one

    def dying(ctx, config, batch_seed):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(ctx, config, batch_seed)

    def hung(signum, frame):
        raise TimeoutError("generate_batches still waiting after 30 s")

    monkeypatch.setattr(sampler, "_sample_one", dying)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    start = time.monotonic()
    try:
        with pytest.raises(InvariantViolation, match=r"batches 1::2 of 4 died \(exit status -9\)"):
            generate_batches(ring_scene(6, 6), SamplingConfig(n_views=12, seed=2), 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # already reaped: no zombie left
        os.waitpid(forks[0], os.WNOHANG)


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_fork_closes_its_pipe_and_reaps_the_workers_before_it(monkeypatch, forks, workers):
    """The last worker's fork fails: the error is raised, both ends of that
    worker's pipe are closed, and a worker forked before it is reaped."""
    counting_fork = os.fork

    def failing_fork():
        if len(forks) == workers - 2:
            raise BlockingIOError(11, "fork: Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: workers)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        generate_batches(ring_scene(6, 6), SamplingConfig(n_views=12, seed=2), 4)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert len(forks) == workers - 2
    for pid in forks:
        with pytest.raises(ChildProcessError):  # already reaped: no zombie left
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and two usable CPUs",
)
def test_one_cpu_writes_the_same_batches(tmp_path):
    scene = tmp_path / "ring"
    assert run(["synth", "--kind", "ring", "--clusters", "8", "--cluster-size", "6",
                "--seed", "5", "--out", str(scene), "--quiet"]) == 0
    outputs = []
    for pin in ("", ONE_CPU):
        out = tmp_path / f"b{len(outputs)}.jsonl"
        argv = ["sample", "--scene", str(scene), "--preset", "mixed", "--n", "12",
                "--batches", "7", "--seed", "3", "--out", str(out), "--quiet"]
        proc = subprocess.run([sys.executable, "-c", pin + "from sparseview.cli import main; main()",
                               *argv], capture_output=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
