"""Round-robin BFS partitioning of the view graph into connected parts.

Seed nodes are drawn without replacement, stratified across communities when
enough distinct communities exist; each part then grows one BFS layer per
round in fixed part order, claiming still-unassigned nodes. Nodes no frontier
can reach stay unassigned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .community import CommunityAssignment
from .errors import InvalidNcc
from .view_graph import ViewGraph


@dataclass
class Partitioning:
    parts: list[set[int]]
    seed_nodes: list[int]
    assignment: dict[int, int]


def _pick_seeds(
    graph: ViewGraph, n_cc: int, rng: random.Random, communities: CommunityAssignment
) -> list[int]:
    nodes = sorted(graph.adjacency)
    members: dict[int, list[int]] = {}
    for v in nodes:
        members.setdefault(communities.labels[v], []).append(v)
    community_ids = sorted(members)
    rng.shuffle(community_ids)
    seeds: list[int] = []
    for cid in community_ids[:n_cc]:
        seeds.append(rng.choice(members[cid]))
    if len(seeds) < n_cc:
        remaining = sorted(set(nodes) - set(seeds))
        seeds.extend(rng.sample(remaining, n_cc - len(seeds)))
    return seeds


def partition_round_robin(
    graph: ViewGraph, n_cc: int, seed: int, communities: CommunityAssignment
) -> Partitioning:
    """Split the graph into up to n_cc connected parts by round-robin BFS."""
    if n_cc < 1 or n_cc > graph.node_count:
        raise InvalidNcc(f"n_cc={n_cc} not in [1, {graph.node_count}]")
    seed_nodes = _pick_seeds(graph, n_cc, random.Random(seed), communities)

    assignment = {s: i for i, s in enumerate(seed_nodes)}
    parts: list[set[int]] = [{s} for s in seed_nodes]
    frontiers: list[list[int]] = [[s] for s in seed_nodes]
    while any(frontiers):
        for i in range(n_cc):
            new_frontier: list[int] = []
            for u in frontiers[i]:
                for v, _ in graph.adjacency[u]:
                    if v not in assignment:
                        assignment[v] = i
                        parts[i].add(v)
                        new_frontier.append(v)
            frontiers[i] = new_frontier
    return Partitioning(parts=parts, seed_nodes=seed_nodes, assignment=assignment)
