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
import os
import pickle
import random
import threading
from dataclasses import dataclass, replace
from enum import Enum

from . import _usable_cpus
from .batches import BatchConfig, Phase, SampledBatch, ViewProvenance
from .community import DEFAULT_RESOLUTION, CommunityAssignment, louvain
from .errors import EmptyPartition, InvalidK, InvalidSpec, InvariantViolation, UnknownNode
from .partition import partition_round_robin
from .recon_io import SceneReconstruction
from .steiner import WeightMode, approximate_steiner_tree, select_terminals
from .view_graph import DEFAULT_PRUNE_THRESHOLD, ViewGraph, build_graph, connected_components
from .view_graph import from_edge_weights, prune_edges, subgraph


class Preset(Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    MIXED = "mixed"
    RANDOM = "random"


# what an unset max_components and search_depth mean when no preset sets them
DEFAULT_MAX_COMPONENTS = 1
DEFAULT_SEARCH_DEPTH = 24


@dataclass(frozen=True)
class SamplingConfig:
    n_views: int = 24
    max_components: int | None = None
    search_depth: int | None = None
    prune_threshold: int = DEFAULT_PRUNE_THRESHOLD
    weight_mode: WeightMode = WeightMode.UNIT_HOP
    seed: int = 0
    preset: Preset | None = None

    def __post_init__(self):
        if self.n_views < 2:
            raise InvalidSpec(f"n_views must be >= 2, got {self.n_views}")
        if self.preset is not None:
            for name in ("max_components", "search_depth"):
                if getattr(self, name) is not None:
                    raise InvalidSpec(
                        f"{name} cannot be given with preset {self.preset.value}, which sets it"
                    )
            return
        if self.max_components is None:
            object.__setattr__(self, "max_components", DEFAULT_MAX_COMPONENTS)
        if self.search_depth is None:
            object.__setattr__(self, "search_depth", DEFAULT_SEARCH_DEPTH)
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
        # uniform choice runs no search, and its bound of n_views always holds
        depth, n_cc = DEFAULT_SEARCH_DEPTH, config.n_views
    return BatchConfig(config.n_views, n_cc, depth, batch_seed)


def greedy_step(
    graph: ViewGraph,
    current: int,
    sampled,
    communities: CommunityAssignment,
    positions,
    part=None,
) -> int | None:
    """Best unsampled neighbor of `current`, or None if there is none.

    Candidates are ranked by (community not yet sampled, Euclidean distance
    from `current`) descending, with node ascending as the final tie-break.
    Only nodes of `part` (None: the whole graph) are candidates, as on
    `subgraph(graph, part)`; a `current` outside the part is UnknownNode.
    """
    if part is not None and not part[current]:
        raise UnknownNode(graph.ids[current])
    labels = communities.labels
    sampled = set(sampled)
    seen_comms = {labels[s] for s in sampled}
    best_key, best = None, None
    for u in graph.adjacency[current]:
        if u in sampled or (part is not None and not part[u]):
            continue
        key = (labels[u] not in seen_comms, math.dist(positions[u], positions[current]), -u)
        if best_key is None or key > best_key:
            best_key, best = key, u
    return best


def _max_terminal_subtree(tree_nodes, tree_edges, terminals, budget: int) -> set[int]:
    """Connected subtree of exactly `budget` nodes keeping as many terminals
    as possible (tree knapsack, deterministic over ascending node ids)."""
    if len(tree_nodes) <= budget:
        return set(tree_nodes)
    tree = from_edge_weights(tree_nodes, dict.fromkeys(tree_edges, 1))
    adj = tree.adjacency
    # f[u][k] = (max terminals, child splits) over connected subtrees of
    # size k rooted at u inside u's subtree, the tree rooted at node 0. In
    # reverse BFS order from 0 every child is done before its parent, so a
    # neighbour with an f is a child and the one without is the parent
    f: list[dict[int, tuple[int, list[tuple[int, int]]]]] = [{} for _ in adj]
    for u in reversed(connected_components(tree)[0]):
        dp = {1: (int(tree.ids[u] in terminals), [])}
        for c in adj[u]:
            if not f[c]:
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
    for u, dp in enumerate(f):
        if budget in dp and dp[budget][0] > best_t:
            best_u, best_t = u, dp[budget][0]
    # walk the kept splits with a stack: the kept subtree can be `budget` deep
    keep: set[int] = set()
    stack = [(best_u, budget)]
    while stack:
        u, k = stack.pop()
        keep.add(tree.ids[u])
        stack.extend(f[u][k][1])
    return keep


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
    """Sample up to `quota` nodes from one partition.

    Steiner-tree nodes come first (phases terminal/steiner), then greedy
    expansion, then local fill; terminal+steiner+greedy together never
    exceed min(quota, depth). Each stage walks `graph` only inside `part`.
    """
    if not any(part):
        raise EmptyPartition("cannot sample from an empty partition")
    if quota < 1:
        raise ValueError("quota must be >= 1")
    labels = communities.labels
    budget = min(quota, depth)

    terminals = select_terminals(part, communities, derive_seed(seed, "terminals"))
    tree = approximate_steiner_tree(graph, terminals, weight_mode, part)
    keep = sorted(_max_terminal_subtree(tree.tree_nodes, tree.tree_edges, tree.terminals, budget))

    phase = {True: Phase.TERMINAL, False: Phase.STEINER}
    out = [(n, ViewProvenance(part_index, labels[n], phase[n in tree.terminals])) for n in keep]
    sampled = list(keep)

    walk_rng = random.Random(derive_seed(seed, "walk"))
    walk = [walk_rng.choice(keep)]
    while len(sampled) < budget and walk:
        nxt = greedy_step(graph, walk[-1], sampled, communities, positions, part)
        if nxt is None:
            walk.pop()  # backtrack to the most recent node with candidates
        else:
            sampled.append(nxt)
            out.append((nxt, ViewProvenance(part_index, labels[nxt], Phase.GREEDY)))
            walk.append(nxt)
    if len(sampled) > budget:
        raise InvariantViolation(
            f"part {part_index}: {len(sampled)} search views, budget min(quota, depth) is {budget}"
        )

    # local fill: each draw is from the part's unsampled neighbours of the
    # sampled set. So the fill never leaves the sampled set's component: a
    # round-robin part is connected, and its sampled set always has an
    # unsampled neighbour until the whole part is sampled.
    fill_rng = random.Random(derive_seed(seed, "fill"))
    while len(sampled) < quota:
        pool = {v for s in sampled for v in graph.adjacency[s] if part[v]}.difference(sampled)
        if not pool:
            break
        pick = fill_rng.choice(sorted(pool))
        sampled.append(pick)
        out.append((pick, ViewProvenance(part_index, labels[pick], Phase.FILL)))
    return out


def _random_composition(n: int, parts: int, rng: random.Random) -> list[int]:
    """Uniform composition of n into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    bounds = [0, *cuts, n]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


@dataclass
class SceneContext:
    """Per-scene precomputation shared by all batches."""

    scene_id: str
    pruned: ViewGraph
    communities: CommunityAssignment
    positions: list[tuple[float, float, float]]  # by node of `pruned`


def prepare_scene(
    scene: SceneReconstruction, config: SamplingConfig, resolution=DEFAULT_RESOLUTION
) -> SceneContext:
    """The graph pruned at the config's threshold, its Louvain communities
    under the config's seed and the view positions: the one prune -> Louvain
    set-up, so `communities`, `partition` and `sample` see the same labels."""
    pruned = prune_edges(build_graph(scene), config.prune_threshold)
    communities = louvain(pruned, derive_seed(config.seed, "louvain"), resolution)
    return SceneContext(scene.scene_id, pruned, communities, scene.positions(pruned.ids))


def _sample_one(ctx: SceneContext, config: SamplingConfig, batch_seed: int) -> SampledBatch:
    resolved = resolve_config(config, batch_seed)
    labels = ctx.communities.labels
    n = ctx.pruned.node_count

    if config.preset is Preset.RANDOM:
        rng = random.Random(derive_seed(batch_seed, "random"))
        views = rng.sample(range(n), min(resolved.n_views, n))
        prov = [ViewProvenance(0, labels[v], Phase.FILL) for v in views]
    else:
        n_cc = min(resolved.max_components, resolved.n_views, n)
        if n_cc != resolved.max_components:
            resolved = replace(resolved, max_components=n_cc)
        assignment = partition_round_robin(
            ctx.pruned, n_cc, derive_seed(batch_seed, "partition"), ctx.communities
        )
        quotas = _random_composition(
            resolved.n_views, n_cc, random.Random(derive_seed(batch_seed, "quota"))
        )
        views, prov = [], []
        for i in range(n_cc):
            picked = sample_partition(
                ctx.pruned,
                list(map(i.__eq__, assignment)),
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
    sub = subgraph(ctx.pruned, views)
    components, bound = connected_components(sub), resolved.max_components
    if len(components) > bound:
        lows = sorted(sub.ids[c[0]] for c in components)
        raise InvariantViolation(
            f"sampled {len(components)} components, bound is {bound}; they start at views {lows}"
        )
    views = [ctx.pruned.ids[v] for v in views]
    truncated = len(views) < resolved.n_views
    return SampledBatch(ctx.scene_id, resolved, views, prov, truncated=truncated)


def _sample_share(ctx: SceneContext, config: SamplingConfig, seeds, first: int, step: int):
    """Batches for seeds[first::step], or (batch index, exception) of the
    share's first failure, which is its smallest failing index."""
    out = []
    for i in range(first, len(seeds), step):
        try:
            out.append(_sample_one(ctx, config, seeds[i]))
        except Exception as exc:  # noqa: BLE001 - handed to _sample_shares
            return i, exc
    return out


def _sample_shares(ctx: SceneContext, config: SamplingConfig, seeds, workers: int):
    """Share k is every `workers`-th batch from k. Each of `workers - 1`
    forked children samples one share and pickles its result into a pipe,
    then exits 0; this process samples share 0 and reads every pipe to EOF,
    so one worker forks nothing. A child shares the context copy-on-write
    and never returns into the caller. The failure with the smallest batch
    index is raised, whichever share it came from. A fork that fails closes
    its pipe, and the children forked before it are still reaped."""
    children = []  # (pid, read end) of shares 1, 2, ...
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    payload = pickle.dumps(_sample_share(ctx, config, seeds, k, workers))
                    with os.fdopen(w, "wb") as f:
                        f.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [_sample_share(ctx, config, seeds, 0, workers)]
        payloads = [f.read() for _, f in children]
    finally:
        statuses = []
        for pid, f in children:
            f.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for k, (payload, status) in enumerate(zip(payloads, statuses), 1):
        if status != 0:
            raise InvariantViolation(
                f"the worker sampling batches {k}::{workers} of {len(seeds)} died"
                f" (exit status {os.waitstatus_to_exitcode(status)}) without a result"
            )
        results.append(pickle.loads(payload))
    failures = [res for res in results if isinstance(res, tuple)]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    batches: list = [None] * len(seeds)
    for k, share in enumerate(results):
        batches[k::workers] = share
    return batches


def generate_batches(
    scene: SceneReconstruction, config: SamplingConfig, count: int
) -> list[SampledBatch]:
    """Offline batch generation; communities are computed once and reused.
    A `count` below 1 is InvalidSpec, raised before that set-up.

    A batch depends only on the scene context and its own seed, so one loop
    samples every batch in `_sample_shares`: one worker per usable CPU, this
    process being one and each other a forked child, and the result does not
    depend on the worker count. Where `fork` is missing or the caller runs
    other Python threads (a fork copies locks they may hold) there is one
    worker and nothing forks. The guard counts Python threads only, not the
    OS threads a native library started: the CLI's `sample` never loads
    numpy and forks from one OS thread, but a caller that has loaded numpy
    itself also has numpy's BLAS pool thread, and on Python 3.12 and later
    `os.fork` then warns (`DeprecationWarning`).
    """
    if count < 1:
        raise InvalidSpec(f"count must be >= 1, got {count}")
    ctx = prepare_scene(scene, config)
    seeds = [derive_seed(config.seed, "batch", i) for i in range(count)]
    workers = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = max(1, min(count, _usable_cpus()))
    return _sample_shares(ctx, config, seeds, workers)


def dfs_subsample(
    batch: SampledBatch, graph: ViewGraph, k: int, seed: int
) -> SampledBatch:
    """Subsample k views by preorder DFS over the batch-induced subgraph,
    restarting from a random unvisited batch view when a component runs out."""
    if k < 2 or k > len(batch.views):
        raise InvalidK(f"k={k} not in [2, {len(batch.views)}]")
    induced = subgraph(graph, [graph.node(v) for v in batch.views])
    prov_of = dict(zip(batch.views, batch.provenance))
    rng = random.Random(seed)
    visited = [False] * induced.node_count
    out: list[int] = []
    while len(out) < k:
        stack = [rng.choice([v for v, seen in enumerate(visited) if not seen])]
        while stack and len(out) < k:
            u = stack.pop()
            if visited[u]:
                continue
            visited[u] = True
            out.append(u)
            for v in reversed(induced.adjacency[u]):
                if not visited[v]:
                    stack.append(v)
    views = [induced.ids[u] for u in out]
    prov = [replace(prov_of[v], phase=Phase.DFS) for v in views]
    return SampledBatch(batch.scene_id, batch.config, views, prov, batch.truncated)
