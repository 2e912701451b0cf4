"""Round-robin BFS partitioning of the view graph into connected parts.

Seed nodes are drawn without replacement, stratified across communities when
enough distinct communities exist; each part then grows one BFS layer per
round in fixed part order, claiming still-unassigned nodes. Nodes no frontier
can reach stay unassigned.
"""

from __future__ import annotations

import random

from .community import CommunityAssignment
from .errors import InvalidNcc
from .view_graph import ViewGraph


def _pick_seeds(
    graph: ViewGraph, n_cc: int, rng: random.Random, communities: CommunityAssignment
) -> list[int]:
    members = communities.members
    community_ids = [c for c, m in enumerate(members) if m]
    rng.shuffle(community_ids)
    seeds = [rng.choice(members[cid]) for cid in community_ids[:n_cc]]
    if len(seeds) < n_cc:
        taken = set(seeds)
        remaining = [v for v in range(graph.node_count) if v not in taken]
        seeds.extend(rng.sample(remaining, n_cc - len(seeds)))
    return seeds


def partition_round_robin(
    graph: ViewGraph, n_cc: int, seed: int, communities: CommunityAssignment
) -> list[int]:
    """Round-robin BFS into up to n_cc connected parts: node -> part, or -1 if none reached it."""
    if n_cc < 1 or n_cc > graph.node_count:
        raise InvalidNcc(f"n_cc={n_cc} not in [1, {graph.node_count}]")
    seed_nodes = _pick_seeds(graph, n_cc, random.Random(seed), communities)

    adj = graph.adjacency
    assignment = [-1] * graph.node_count
    for i, s in enumerate(seed_nodes):
        assignment[s] = i
    frontiers: list[list[int]] = [[s] for s in seed_nodes]
    while any(frontiers):
        for i in range(n_cc):
            new_frontier: list[int] = []
            for u in frontiers[i]:
                for v in adj[u]:
                    if assignment[v] < 0:
                        assignment[v] = i
                        new_frontier.append(v)
            frontiers[i] = new_frontier
    return assignment
