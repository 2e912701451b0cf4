"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`.
"""

import functools
import math
import random
import sys
import time
from collections import deque

import numpy as np
import pytest

from conftest import graph_of, random_graph, random_positions
from oracles import (
    best_modularity_partition,
    greedy_choice,
    mst_weight,
    steiner_optimum,
)
from sparseview.batches import Phase, read_batches, write_batches
from sparseview.cli import run as cli_run
from sparseview.community import louvain
from sparseview.depth_filter import DepthMap, filter_depth
from sparseview.errors import DisconnectedTerminals
from sparseview.metrics import (
    avg_nearest_sample_dist,
    dispersion,
    k_hop_coverage,
    pose_pair_errors,
)
from sparseview.partition import partition_round_robin
from sparseview.pfm import read_pfm, write_pfm
from sparseview.recon_io import load_scene_dir, write_reconstruction
from sparseview.sampler import (
    Preset,
    SamplingConfig,
    derive_seed,
    generate_batches,
    greedy_step,
    induced_component_count,
    prepare_scene,
    _sample_one,
)
from sparseview.steiner import WeightMode, approximate_steiner_tree
from sparseview.synth import SynthKind, SynthSpec, gen_depth_fixture, gen_ring_scene
from sparseview.view_graph import connected_components, subgraph
from test_community import triple_triangles, two_cliques_with_bridge
from test_metrics import apply_similarity, random_pose


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}", file=sys.__stdout__)
                raise
            print(f"[PASS] criterion {num}: {desc}", file=sys.__stdout__)

        return wrapper

    return deco


def ring_scene_12x12():
    spec = SynthSpec(
        kind=SynthKind.RING_OF_CLUSTERS, cluster_count=12, cluster_size=12,
        intra_weight=100, inter_weight=60, radius=10.0, noise_sigma=0.1, seed=0,
    )
    return gen_ring_scene(spec)


def assert_monotone(values, direction):
    """At most one adjacent-pair violation, and only of <=2% relative size."""
    small = 0
    for a, b in zip(values, values[1:]):
        delta = (b - a) if direction == "up" else (a - b)
        if delta < 0:
            rel = abs(delta) / max(abs(a), abs(b), 1e-12)
            assert rel <= 0.02, f"{values} not monotone ({direction}), {rel:.3%} violation"
            small += 1
    assert small <= 1, f"{values}: {small} adjacent violations"


@criterion(1, "coverage/dispersion trends monotone in search depth (32 seeds)")
def test_depth_sweep_monotonicity():
    start = time.monotonic()
    scene = ring_scene_12x12()
    means = {"cov": [], "near": [], "gdisp": [], "edisp": []}
    for depth in (2, 6, 12, 24):
        cfg = SamplingConfig(n_views=24, max_components=1, search_depth=depth, seed=0)
        ctx = prepare_scene(scene, cfg)
        nodes = sorted(ctx.pruned.adjacency)
        acc = {"cov": 0.0, "near": 0.0, "gdisp": 0.0, "edisp": 0.0}
        for s in range(32):
            batch = _sample_one(ctx, cfg, derive_seed(0, "batch", s))
            acc["cov"] += k_hop_coverage(ctx.pruned, batch.views, 2)
            acc["near"] += avg_nearest_sample_dist(ctx.positions, nodes, batch.views)
            disp = dispersion(ctx.pruned, ctx.positions, batch.views)
            acc["gdisp"] += disp.graph_dispersion
            acc["edisp"] += disp.euclidean_dispersion
        for key in acc:
            means[key].append(acc[key] / 32)
    assert_monotone(means["cov"], "up")
    assert_monotone(means["near"], "down")
    assert_monotone(means["gdisp"], "up")
    assert_monotone(means["edisp"], "up")
    assert time.monotonic() - start < 60.0


@criterion(2, "phase accounting: depth 24 -> no fill, depth 12 -> exactly 12 fill")
def test_phase_accounting():
    spec = SynthSpec(
        kind=SynthKind.RING_OF_CLUSTERS, cluster_count=1, cluster_size=30,
        intra_weight=100, inter_weight=60, noise_sigma=0.05, seed=0,
    )
    scene = gen_ring_scene(spec)
    full = generate_batches(
        scene, SamplingConfig(n_views=24, max_components=1, search_depth=24, seed=1), 1
    )[0]
    assert len(full.views) == 24
    assert all(
        p.phase in (Phase.TERMINAL, Phase.STEINER, Phase.GREEDY) for p in full.provenance
    )
    half = generate_batches(
        scene, SamplingConfig(n_views=24, max_components=1, search_depth=12, seed=1), 1
    )[0]
    assert len(half.views) == 24
    assert sum(1 for p in half.provenance if p.phase is Phase.FILL) == 12


@criterion(3, "component bound holds on 1000 batches across presets")
def test_component_bound_thousand_batches():
    start = time.monotonic()
    scene = ring_scene_12x12()
    violations = 0
    total = 0
    for preset in (Preset.DENSE, Preset.SPARSE, Preset.MIXED):
        cfg = SamplingConfig(n_views=24, seed=11, preset=preset)
        ctx = prepare_scene(scene, cfg)
        for i in range(334):
            batch = _sample_one(ctx, cfg, derive_seed(cfg.seed, "batch", i))
            total += 1
            if induced_component_count(ctx.pruned, batch.views) > batch.config.max_components:
                violations += 1
    assert total >= 1000
    assert violations == 0
    assert time.monotonic() - start < 120.0


@criterion(4, "Steiner trees within 2(1-1/|T|) of brute-force optimum (200 graphs)")
def test_steiner_approximation_bound():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.uniform(0.25, 0.8))
        t_count = rng.randint(2, 4)
        terminals = set(rng.sample(sorted(g.nodes), t_count))
        try:
            res = approximate_steiner_tree(g, terminals, WeightMode.UNIT_HOP)
        except DisconnectedTerminals:
            continue
        opt = steiner_optimum(g.nodes, [(u, v, 1.0) for u, v, _ in g.edges()], terminals)
        assert res.total_weight <= 2.0 * (1.0 - 1.0 / t_count) * opt + 1e-9
        checked += 1
    # terminals = whole node set reduces to the MST
    rng = random.Random(7)
    mst_checked = 0
    while mst_checked < 30:
        g = random_graph(rng, rng.randint(2, 9), 0.7)
        want = mst_weight(set(g.nodes), [(u, v, 1.0) for u, v, _ in g.edges()])
        if want is None:
            continue
        res = approximate_steiner_tree(g, set(g.nodes), WeightMode.UNIT_HOP)
        assert sum(sorted([1.0] * len(res.tree_edges))) == want
        assert res.total_weight == want
        mst_checked += 1


@criterion(5, "Louvain equals brute-force best partition; levels non-decreasing")
def test_louvain_against_brute_force():
    for g, seed in ((two_cliques_with_bridge(), 0), (triple_triangles(), 3)):
        got = louvain(g, seed=seed)
        blocks = {frozenset(m) for m in got.community_members().values()}
        _, best_blocks = best_modularity_partition(g.nodes, list(g.edges()))
        assert blocks == set(best_blocks)
    rng = random.Random(17)
    done = 0
    while done < 100:
        g = random_graph(rng, rng.randint(2, 18), rng.uniform(0.1, 0.7))
        if g.edge_count == 0:
            continue
        got = louvain(g, seed=done)
        for a, b in zip(got.level_modularities, got.level_modularities[1:]):
            assert b >= a - 1e-9
        done += 1


@criterion(6, "greedy step equals exhaustive sort oracle on 1000 neighborhoods")
def test_greedy_step_oracle():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randint(3, 16)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        nodes = sorted(g.nodes)
        labels = {v: rng.randint(0, 4) for v in nodes}
        positions = random_positions(rng, nodes)
        current = rng.choice(nodes)
        sampled = {current} | set(rng.sample(nodes, rng.randint(0, n - 1)))
        from sparseview.community import CommunityAssignment

        comms = CommunityAssignment(labels=labels, modularity=0.0, level_count=1)
        got = greedy_step(g, current, sampled, comms, positions)
        want = greedy_choice(
            [u for u, _ in g.adjacency[current]], current, sampled, labels, positions
        )
        assert got == want


@criterion(7, "partition invariants hold on 500 seeded partitionings")
def test_partition_invariants():
    rng = random.Random(31)
    for trial in range(500):
        g = random_graph(rng, rng.randint(4, 30), rng.uniform(0.05, 0.5))
        n_cc = rng.randint(1, min(5, g.node_count))
        parts = partition_round_robin(g, n_cc, trial, louvain(g, seed=trial))
        # disjointness and seed containment
        seen = set()
        for i, part in enumerate(parts.parts):
            assert not (part & seen)
            seen |= part
            assert parts.seed_nodes[i] in part
            assert len(connected_components(subgraph(g, part))) == 1
        # cover of exactly the nodes reachable from the seed set
        reachable = set(parts.seed_nodes)
        queue = deque(parts.seed_nodes)
        while queue:
            u = queue.popleft()
            for v, _ in g.adjacency[u]:
                if v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        assert seen == reachable


@criterion(8, "depth filter removes the blob, spares the rest, scale-invariant")
def test_depth_filter_fixture():
    spec = SynthSpec(kind=SynthKind.DEPTH_FIXTURE, seed=21)
    geom, mono, blob = gen_depth_fixture(spec)
    filtered, report = filter_depth(geom, mono)
    removed = geom.valid_mask & ~filtered.valid_mask
    assert all(removed[r, c] for r, c in blob)
    outside = int(removed.sum()) - len(blob)
    assert outside <= 0.02 * (geom.values.size - len(blob))

    reference = filtered.valid_mask
    for factor in (0.1, 1.0, 10.0):
        out, _ = filter_depth(DepthMap(geom.values * factor), mono)
        assert np.array_equal(out.valid_mask, reference)
    for factor in (0.3, 1.0, 2.7):
        out, _ = filter_depth(geom, DepthMap(mono.values * factor))
        assert np.array_equal(out.valid_mask, reference)


@criterion(9, "pose metrics exact on identity, similarity-invariant to 1e-6 deg")
def test_pose_metric_sanity():
    rng = random.Random(5)
    views = [random_pose(rng, i) for i in range(1, 8)]
    res = pose_pair_errors(views, views, thresholds=(5,))
    assert res.rra_at[5] == 1.0
    assert res.rta_at[5] == 1.0
    assert res.auc_at[5] == 1.0
    assert res.mre == 0.0
    assert res.mte == 0.0
    for trial in range(100):
        n = rng.randint(3, 6)
        gt = [random_pose(rng, i) for i in range(1, n + 1)]
        pred = [random_pose(rng, i) for i in range(1, n + 1)]
        base = pose_pair_errors(pred, gt, thresholds=(15,))
        scale = rng.uniform(0.1, 8.0)
        q_g = random_pose(rng, 0).rotation
        t_g = tuple(rng.uniform(-5, 5) for _ in range(3))
        moved = [apply_similarity(v, scale, q_g, t_g) for v in pred]
        res = pose_pair_errors(moved, gt, thresholds=(15,))
        for a, b in zip(base.rotation_errors, res.rotation_errors):
            assert abs(a - b) < 1e-6
        for a, b in zip(base.translation_errors, res.translation_errors):
            assert abs(a - b) < 1e-6
        assert abs(base.mre - res.mre) < 1e-6
        assert abs(base.mte - res.mte) < 1e-6


@criterion(10, "scene, matches, PFM and batch formats round-trip byte-identically")
def test_format_round_trips(tmp_path):
    rng = random.Random(77)
    # scenes (cameras/images/points/matches)
    for trial in range(5):
        spec = SynthSpec(
            kind=SynthKind.RING_OF_CLUSTERS,
            cluster_count=rng.randint(2, 8),
            cluster_size=rng.randint(1, 6),
            noise_sigma=rng.random(),
            seed=trial,
        )
        scene = gen_ring_scene(spec)
        d1 = tmp_path / f"s{trial}a"
        d2 = tmp_path / f"s{trial}b"
        write_reconstruction(scene, str(d1))
        write_reconstruction(load_scene_dir(str(d1)), str(d2))
        for name in ("cameras.txt", "images.txt", "points3D.txt", "matches.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # PFM maps
    npr = np.random.default_rng(3)
    for trial in range(5):
        values = npr.uniform(0, 10, size=(npr.integers(2, 12), npr.integers(2, 12)))
        values[npr.random(values.shape) < 0.15] = np.nan
        p1 = tmp_path / f"d{trial}a.pfm"
        p2 = tmp_path / f"d{trial}b.pfm"
        write_pfm(str(p1), DepthMap(values))
        write_pfm(str(p2), read_pfm(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()
    # batch records
    scene = gen_ring_scene(
        SynthSpec(kind=SynthKind.RING_OF_CLUSTERS, cluster_count=5, cluster_size=5, seed=1)
    )
    cfg = SamplingConfig(n_views=10, max_components=2, search_depth=6, seed=4)
    ctx = prepare_scene(scene, cfg)
    batches = [_sample_one(ctx, cfg, derive_seed(4, "batch", i)) for i in range(6)]
    b1 = tmp_path / "b1.jsonl"
    b2 = tmp_path / "b2.jsonl"
    write_batches(batches, str(b1))
    write_batches(read_batches(str(b1)), str(b2))
    assert b1.read_bytes() == b2.read_bytes()


@criterion(11, "every CLI subcommand is byte-deterministic under a fixed seed")
def test_cli_determinism(tmp_path):
    def run_twice(args_fn, outputs_fn):
        blobs = []
        for tag in ("x", "y"):
            code = cli_run(args_fn(tag))
            assert code == 0
            blobs.append([p.read_bytes() for p in outputs_fn(tag)])
        assert blobs[0] == blobs[1]

    scene_dir = tmp_path / "scene"
    cli_run(["synth", "--kind", "ring", "--clusters", "6", "--cluster-size", "5",
             "--noise", "0.05", "--seed", "3", "--out", str(scene_dir), "--quiet"])
    fix_dir = tmp_path / "fix"
    cli_run(["synth", "--kind", "depth", "--seed", "5", "--out", str(fix_dir), "--quiet"])
    batches_path = tmp_path / "cov_batches.jsonl"
    cli_run(["sample", "--scene", str(scene_dir), "--n", "12", "--ncc", "2", "--depth", "8",
             "--batches", "3", "--seed", "7", "--out", str(batches_path), "--quiet"])

    scene_files = ("cameras.txt", "images.txt", "points3D.txt", "matches.txt")
    run_twice(
        lambda t: ["synth", "--kind", "ring", "--noise", "0.2", "--seed", "9",
                   "--out", str(tmp_path / f"synth{t}"), "--quiet"],
        lambda t: [tmp_path / f"synth{t}" / f for f in scene_files],
    )
    run_twice(
        lambda t: ["parse", "--scene", str(scene_dir), "--out", str(tmp_path / f"parse{t}.txt"),
                   "--quiet"],
        lambda t: [tmp_path / f"parse{t}.txt"],
    )
    run_twice(
        lambda t: ["stats", "--scene", str(scene_dir), "--out", str(tmp_path / f"stats{t}.txt"),
                   "--quiet"],
        lambda t: [tmp_path / f"stats{t}.txt"],
    )
    run_twice(
        lambda t: ["communities", "--scene", str(scene_dir), "--seed", "4",
                   "--out", str(tmp_path / f"comm{t}.txt"), "--quiet"],
        lambda t: [tmp_path / f"comm{t}.txt"],
    )
    run_twice(
        lambda t: ["partition", "--scene", str(scene_dir), "--ncc", "3", "--seed", "4",
                   "--out", str(tmp_path / f"part{t}.txt"), "--quiet"],
        lambda t: [tmp_path / f"part{t}.txt"],
    )
    run_twice(
        lambda t: ["sample", "--scene", str(scene_dir), "--preset", "mixed", "--n", "16",
                   "--batches", "5", "--seed", "6", "--out", str(tmp_path / f"sample{t}.jsonl"),
                   "--quiet"],
        lambda t: [tmp_path / f"sample{t}.jsonl"],
    )
    run_twice(
        lambda t: ["coverage", "--scene", str(scene_dir), "--batches", str(batches_path),
                   "--out", str(tmp_path / f"cov{t}.txt"), "--quiet"],
        lambda t: [tmp_path / f"cov{t}.txt"],
    )
    run_twice(
        lambda t: ["filter-depth", "--geom", str(fix_dir / "geom.pfm"),
                   "--mono", str(fix_dir / "mono.pfm"), "--out", str(tmp_path / f"f{t}.pfm"),
                   "--report", str(tmp_path / f"f{t}.json"), "--quiet"],
        lambda t: [tmp_path / f"f{t}.pfm", tmp_path / f"f{t}.json"],
    )
    run_twice(
        lambda t: ["pose-eval", "--pred", str(scene_dir / "images.txt"),
                   "--gt", str(scene_dir / "images.txt"),
                   "--out", str(tmp_path / f"pose{t}.txt"), "--quiet"],
        lambda t: [tmp_path / f"pose{t}.txt"],
    )
