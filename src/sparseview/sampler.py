"""Sparsity-aware view sampling.

A batch of N views with at most `max_components` connected pieces is drawn
from a pruned view graph in stages:

  1. round-robin BFS partitioning into `max_components` parts,
  2. per part: one terminal per community, an approximate Steiner tree over
     the terminals, and a greedy walk that prefers (unseen community,
     larger jump) moves,
  3. local fill from the neighborhood of the sampled set up to the quota.

The search budget per part is min(quota, search_depth): a shallow search
keeps the sample concentrated, a deep one spreads it across the part.
Every random choice is driven by seeds derived from the batch seed, so
batches are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from enum import Enum

from .batches import BatchConfig, Phase, SampledBatch, ViewProvenance
from .community import CommunityAssignment, louvain
from .errors import (
    EmptyPartition, InsufficientViews, InvalidK, InvalidSpec, InvariantViolation, UnknownNode,
)
from .partition import partition_round_robin
from .recon_io import SceneReconstruction
from .steiner import WeightMode, approximate_steiner_tree, select_terminals
from .view_graph import ViewGraph, build_graph, prune_edges, subgraph


class Preset(Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    MIXED = "mixed"
    RANDOM = "random"


@dataclass(frozen=True)
class SamplingConfig:
    n_views: int = 24
    max_components: int = 1
    search_depth: int = 24
    prune_threshold: int = 50
    weight_mode: WeightMode = WeightMode.UNIT_HOP
    seed: int = 0
    preset: Preset | None = None

    def __post_init__(self):
        if self.n_views < 2:
            raise InvalidSpec(f"n_views must be >= 2, got {self.n_views}")
        if not 1 <= self.max_components <= self.n_views:
            raise InvalidSpec(f"max_components must be in [1, n_views], got {self.max_components}")
        if self.search_depth < 1:
            raise InvalidSpec(f"search_depth must be >= 1, got {self.search_depth}")


def derive_seed(seed: int, *parts) -> int:
    """Stable sub-seed for a named role; independent of PYTHONHASHSEED."""
    data = ":".join([str(seed), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def resolve_config(config: SamplingConfig, batch_seed: int) -> BatchConfig:
    """Expand a preset into concrete per-batch parameters."""
    depth, n_cc = config.search_depth, config.max_components
    if config.preset is Preset.DENSE:
        depth, n_cc = 5, 1
    elif config.preset is Preset.SPARSE:
        depth, n_cc = 24, 4
    elif config.preset is Preset.MIXED:
        rng = random.Random(derive_seed(batch_seed, "mixed"))
        depth = rng.randint(5, 24)
        n_cc = rng.randint(1, 4)
    elif config.preset is Preset.RANDOM:
        # uniform choice imposes no component bound
        n_cc = config.n_views
    n_cc = min(n_cc, config.n_views)
    return BatchConfig(config.n_views, n_cc, depth, batch_seed)


def greedy_step(
    graph: ViewGraph,
    current: int,
    sampled,
    communities: CommunityAssignment,
    positions,
) -> int | None:
    """Best unsampled neighbor of `current`, or None if there is none.

    Candidates are ranked by (community not yet sampled, Euclidean distance
    from `current`) descending, with node id ascending as the final
    tie-break.
    """
    if not graph.has_node(current):
        raise UnknownNode(current)
    sampled = set(sampled)
    seen_comms = {communities.labels[s] for s in sampled}
    best_key, best = None, None
    for u, _ in graph.adjacency[current]:
        if u in sampled:
            continue
        novelty = communities.labels[u] not in seen_comms
        dist = math.dist(positions[u], positions[current])
        key = (novelty, dist, -u)
        if best_key is None or key > best_key:
            best_key, best = key, u
    return best


def _max_terminal_subtree(tree_nodes, tree_edges, terminals, budget: int) -> set[int]:
    """Connected subtree of exactly `budget` nodes keeping as many terminals
    as possible (tree knapsack, deterministic over ascending node ids)."""
    nodes = sorted(tree_nodes)
    if len(nodes) <= budget:
        return set(nodes)
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    for n in adj:
        adj[n].sort()
    root = nodes[0]
    parent: dict[int, int | None] = {root: None}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adj[u]:
            if v != parent[u]:
                parent[v] = u
                stack.append(v)
    # f[u][k] = (max terminals, child splits) over connected subtrees of
    # size k rooted at u inside u's subtree
    f: dict[int, dict[int, tuple[int, list[tuple[int, int]]]]] = {}
    for u in reversed(order):
        dp = {1: ((1 if u in terminals else 0), [])}
        for c in adj[u]:
            if c == parent[u]:
                continue
            merged = dict(dp)
            for k, (t, ch) in dp.items():
                for j, (tc, _) in f[c].items():
                    kk = k + j
                    if kk > budget:
                        continue
                    if kk not in merged or t + tc > merged[kk][0]:
                        merged[kk] = (t + tc, ch + [(c, j)])
            dp = merged
        f[u] = dp
    best_u, best_t = None, -1
    for u in nodes:
        if budget in f[u] and f[u][budget][0] > best_t:
            best_u, best_t = u, f[u][budget][0]
    keep: set[int] = set()

    def collect(u: int, k: int) -> None:
        keep.add(u)
        for c, j in f[u][k][1]:
            collect(c, j)

    collect(best_u, budget)
    return keep


def _fill_draw(sub: ViewGraph, sampled: set[int], rng: random.Random) -> int | None:
    """One local fill draw: 1-hop neighborhood of the sampled set, widening
    to the rest of the part when exhausted (a closed 1-hop set makes the
    2-hop tier identical, so it collapses away)."""
    pool: set[int] = set()
    for s in sampled:
        pool.update(v for v, _ in sub.adjacency[s])
    pool -= sampled
    if not pool:
        pool = set(sub.adjacency) - sampled
    if not pool:
        return None
    return rng.choice(sorted(pool))


def sample_partition(
    graph: ViewGraph,
    part,
    quota: int,
    depth: int,
    communities: CommunityAssignment,
    positions,
    seed: int,
    part_index: int = 0,
    weight_mode: WeightMode = WeightMode.UNIT_HOP,
) -> list[tuple[int, ViewProvenance]]:
    """Sample up to `quota` views from one partition.

    Steiner-tree views come first (phases terminal/steiner), then greedy
    expansion, then local fill; terminal+steiner+greedy together never
    exceed min(quota, depth).
    """
    part = set(part)
    if not part:
        raise EmptyPartition("cannot sample from an empty partition")
    if quota < 1:
        raise ValueError("quota must be >= 1")
    sub = subgraph(graph, part)
    labels = communities.labels
    budget = min(quota, depth)

    terminals = select_terminals(part, communities, derive_seed(seed, "terminals"))
    tree = approximate_steiner_tree(sub, terminals, weight_mode)
    keep = _max_terminal_subtree(tree.tree_nodes, tree.tree_edges, tree.terminals, budget)

    out: list[tuple[int, ViewProvenance]] = []
    sampled: set[int] = set()
    for n in sorted(keep):
        phase = Phase.TERMINAL if n in terminals else Phase.STEINER
        out.append((n, ViewProvenance(part_index, labels[n], phase)))
        sampled.add(n)

    walk_rng = random.Random(derive_seed(seed, "walk"))
    walk = [walk_rng.choice(sorted(keep))]
    while len(sampled) < budget and walk:
        nxt = greedy_step(sub, walk[-1], sampled, communities, positions)
        if nxt is None:
            walk.pop()  # backtrack to the most recent node with candidates
        else:
            sampled.add(nxt)
            out.append((nxt, ViewProvenance(part_index, labels[nxt], Phase.GREEDY)))
            walk.append(nxt)

    fill_rng = random.Random(derive_seed(seed, "fill"))
    while len(sampled) < quota:
        pick = _fill_draw(sub, sampled, fill_rng)
        if pick is None:
            break
        sampled.add(pick)
        out.append((pick, ViewProvenance(part_index, labels[pick], Phase.FILL)))
    return out


def _random_composition(n: int, parts: int, rng: random.Random) -> list[int]:
    """Uniform composition of n into `parts` positive integers."""
    if parts == 1:
        return [n]
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    bounds = [0, *cuts, n]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def induced_component_count(graph: ViewGraph, views) -> int:
    views = set(views)
    seen: set[int] = set()
    count = 0
    for start in sorted(views):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v, _ in graph.adjacency[u]:
                if v in views and v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


@dataclass
class SceneContext:
    """Per-scene precomputation shared by all batches."""

    scene_id: str
    pruned: ViewGraph
    communities: CommunityAssignment
    positions: dict[int, tuple[float, float, float]]


def prepare_scene(scene: SceneReconstruction, config: SamplingConfig) -> SceneContext:
    pruned = prune_edges(build_graph(scene), config.prune_threshold)
    communities = louvain(pruned, derive_seed(config.seed, "louvain"))
    return SceneContext(scene.scene_id, pruned, communities, scene.positions())


def _sample_one(
    ctx: SceneContext,
    config: SamplingConfig,
    batch_seed: int,
    allow_truncated: bool = True,
) -> SampledBatch:
    resolved = resolve_config(config, batch_seed)
    labels = ctx.communities.labels

    if config.preset is Preset.RANDOM:
        rng = random.Random(derive_seed(batch_seed, "random"))
        nodes = sorted(ctx.pruned.adjacency)
        k = min(resolved.n_views, len(nodes))
        if k < resolved.n_views and not allow_truncated:
            raise InsufficientViews(k, resolved.n_views)
        views = rng.sample(nodes, k)
        prov = [ViewProvenance(0, labels[v], Phase.FILL) for v in views]
        return SampledBatch(ctx.scene_id, resolved, views, prov, truncated=k < resolved.n_views)

    n_cc = min(resolved.max_components, ctx.pruned.node_count)
    if n_cc != resolved.max_components:
        resolved = replace(resolved, max_components=n_cc)
    parts = partition_round_robin(
        ctx.pruned, n_cc, derive_seed(batch_seed, "partition"), ctx.communities
    )
    quotas = _random_composition(
        resolved.n_views, n_cc, random.Random(derive_seed(batch_seed, "quota"))
    )
    views: list[int] = []
    prov: list[ViewProvenance] = []
    for i in range(n_cc):
        picked = sample_partition(
            ctx.pruned,
            parts.parts[i],
            quotas[i],
            resolved.search_depth,
            ctx.communities,
            ctx.positions,
            derive_seed(batch_seed, "part", i),
            part_index=i,
            weight_mode=config.weight_mode,
        )
        for v, p in picked:
            views.append(v)
            prov.append(p)
    if len(views) < resolved.n_views and not allow_truncated:
        raise InsufficientViews(len(views), resolved.n_views)
    batch = SampledBatch(
        ctx.scene_id, resolved, views, prov, truncated=len(views) < resolved.n_views
    )
    got = induced_component_count(ctx.pruned, views)
    if got > n_cc:
        raise InvariantViolation(f"sampled {got} components, bound is {n_cc}")
    return batch


def generate_batches(
    scene: SceneReconstruction,
    config: SamplingConfig,
    count: int,
    allow_truncated: bool = True,
) -> list[SampledBatch]:
    """Offline batch generation; communities are computed once and reused."""
    ctx = prepare_scene(scene, config)
    seeds = [derive_seed(config.seed, "batch", i) for i in range(count)]
    return [_sample_one(ctx, config, s, allow_truncated=allow_truncated) for s in seeds]


def dfs_subsample(
    batch: SampledBatch, graph: ViewGraph, k: int, seed: int
) -> SampledBatch:
    """Subsample k views by preorder DFS over the batch-induced subgraph,
    restarting from a random unvisited batch view when a component runs out."""
    if k < 2 or k > len(batch.views):
        raise InvalidK(f"k={k} not in [2, {len(batch.views)}]")
    induced = subgraph(graph, batch.views)
    prov_of = dict(zip(batch.views, batch.provenance))
    rng = random.Random(seed)
    visited: set[int] = set()
    out: list[int] = []
    while len(out) < k:
        remaining = sorted(set(batch.views) - visited)
        stack = [rng.choice(remaining)]
        while stack and len(out) < k:
            u = stack.pop()
            if u in visited:
                continue
            visited.add(u)
            out.append(u)
            for v, _ in reversed(induced.adjacency[u]):
                if v not in visited:
                    stack.append(v)
    prov = [replace(prov_of[v], phase=Phase.DFS) for v in out]
    return SampledBatch(batch.scene_id, batch.config, out, prov, batch.truncated)
