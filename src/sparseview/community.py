"""Louvain community detection on the weighted view graph.

Match counts are used as edge weights. The local-move phase visits nodes in
a seeded shuffled order, so results are reproducible given (graph, seed).
Ties between candidate communities are broken toward the lowest community id.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyGraph, InvalidSpec
from .view_graph import ViewGraph


DEFAULT_RESOLUTION = 1.0  # wherever no resolution is given


@dataclass(frozen=True)
class CommunityAssignment:
    labels: list[int]  # node -> community, a label >= 0
    level_modularities: tuple[float, ...]  # on the input graph, after each level

    @property
    def modularity(self) -> float:
        return self.level_modularities[-1]

    @property
    def level_count(self) -> int:
        return len(self.level_modularities)

    @cached_property
    def members(self) -> list[list[int]]:
        """Each label's nodes, ascending (empty for an unused label)."""
        members: list[list[int]] = [[] for _ in range(max(self.labels, default=-1) + 1)]
        for v, c in enumerate(self.labels):
            members[c].append(v)
        return members


def modularity(graph: ViewGraph, labels, resolution=DEFAULT_RESOLUTION) -> float:
    """Weighted Newman-Girvan modularity of `labels` (node -> community).

    Q = sum_c [ w_in(c)/m - resolution * (k(c)/(2m))^2 ], where w_in(c) is the
    total weight of edges internal to community c, k(c) the summed weighted
    degree and m the total edge weight. Integer weights keep every sum exact.
    """
    w_in: dict[int, int] = {}  # twice the internal weight: each edge is seen from both ends
    k_tot: dict[int, int] = {}
    two_m = 0
    for u, (nbrs, wts) in enumerate(zip(graph.adjacency, graph.weights)):
        c = labels[u]
        k = inside = 0
        for v, w in zip(nbrs, wts):
            k += w
            if labels[v] == c:
                inside += w
        k_tot[c] = k_tot.get(c, 0) + k
        w_in[c] = w_in.get(c, 0) + inside
        two_m += k
    if two_m == 0:
        raise EmptyGraph("modularity undefined on a graph with no edges")
    q = 0.0
    for c in k_tot:  # first-appearance order, so the float sum is reproducible
        q += w_in[c] / two_m - resolution * (k_tot[c] / two_m) ** 2
    return q


def _aggregate(adj, wts, degree: list[int], community: list[int], k: int):
    """One node per community, joined by the summed boundary weights; the
    weight inside a community survives only in its summed member degree."""
    boundary: list[dict[int, int]] = [{} for _ in range(k)]
    summed = [0] * k
    for u, nbrs in enumerate(adj):
        cu = community[u]
        summed[cu] += degree[u]
        row = boundary[cu]
        for v, w in zip(nbrs, wts[u]):
            cv = community[v]
            if cv != cu:
                row[cv] = row.get(cv, 0) + w
    rows = [sorted(row) for row in boundary]
    return rows, [[row[c] for c in cs] for row, cs in zip(boundary, rows)], summed


# A local move evaluates node u only when its choice can have changed since
# its last evaluation. u's gain from community c is
#     g(c) = links[c] - resolution * k_tot[c] * k_u / 2m
# with u taken out of its own community, so the gains do not depend on where
# u itself sits, and u keeps its community C while no g(c) passes g(C) (a
# candidate must pass g(C) + 1e-12 to take u, so the epsilon only helps C).
# An evaluation records the margin  min(g(C) - g2, g(C)),  g2 the highest gain
# of u's other candidates, less a slack; the skip test is
#     resolution * k_u * drift / 2m + harm < margin.
# - Drift. `drift` sums the |change| of each community's k_tot. The k_tot
#   terms can close g(C) - g(c) by at most resolution * k_u / 2m times the
#   growth of the drift summed over u's candidates, C among them. A neighbour
#   that moves changes the k_tot of the community it leaves, which is a
#   candidate (every edge weighs at least 1), so while that sum has not grown
#   nothing u sees has changed and u is skipped whatever its margin.
# - Harm. A neighbour whose edge to u weighs w and that moves a -> b closes
#   the links part of g(C) - g(c), for any c, by at most 2w if a is C (links[C]
#   falls by w, links[b] rises by w), by nothing if b is C, and by at most w
#   otherwise (links[b] rises by w). `harm` sums these since the evaluation.
# - A community new to u's neighbours has g(c) <= links[c] (k_tot >= 0 and
#   resolution > 0), weight that moved into it and so is counted in harm,
#   while g(C) has fallen by at most the drift and harm terms: the g(C) half
#   of the margin covers it.
# - Slack. Each gain is a few roundings of |links| <= k_u and of
#   resolution * k_tot * k_u / 2m <= resolution * k_u, so it is within about
#   8 * 2**-53 * (1 + resolution) * k_u of its real value. The test compares
#   four gains and rounds a few times more; (1 + resolution) * k_u * 2**-40
#   covers that many times over, and 1e-12 on top covers gains that underflow.
#   A C kept over a higher gain by the tie epsilon has a negative margin.
# - NaN. A huge resolution overflows the k_tot terms to inf, and inf - inf in
#   the margin is NaN. `x < margin` is false for a NaN on either side and for
#   an inf test value, so such a node is evaluated.
# Until its first evaluation a node's summed drift reads 1 above its record
# and its margin is 0, which a test value of at least 0 never passes, so every
# node is evaluated in the first sweep. Every sweep still shuffles, so the
# seeded order, the sweeps and every result are those of evaluating every node.
def _one_level(adj, wts, degree: list[int], two_m: int, rng: random.Random, resolution: float):
    """Local-move phase; returns node -> community after convergence. A node
    is evaluated only when its choice can have changed (see above)."""
    n = len(adj)
    nodes = list(range(n))  # each sweep shuffles a copy, which shares its ints
    community = nodes[:]
    k_tot = list(degree)  # community -> summed degree
    drift = [0] * n  # community -> summed |change| of its k_tot
    # node -> its candidates at its last evaluation, their summed drift after
    # it (-1 before the first), its margin less the slack (n doubles, with no
    # float object per node), and its harm since
    cands: list[tuple[int, ...]] = [()] * n
    seen = [-1] * n
    room = memoryview(bytearray(8 * n)).cast("d")
    harm = [0] * n
    scale = resolution / two_m
    slack = (1.0 + resolution) * 2.0**-40
    moved = True
    while moved:
        moved = False
        order = nodes[:]
        rng.shuffle(order)
        for u in order:
            ku = degree[u]
            d = sum(map(drift.__getitem__, cands[u])) - seen[u]
            if not d or scale * ku * d + harm[u] < room[u]:
                continue
            cu = community[u]
            # weights from u into each neighboring community, u removed from its own
            k_tot[cu] -= ku
            links: dict[int, int] = {cu: 0}
            for v, w in zip(adj[u], wts[u]):
                cv = community[v]
                links[cv] = links.get(cv, 0) + w
            # ascending candidate order + strict improvement = lowest-id tie-break
            best_c, best_gain = cu, links[cu] - resolution * k_tot[cu] * ku / two_m
            second = -math.inf  # the highest gain of the others
            total = 0  # the candidates' summed drift
            for c in sorted(links):
                total += drift[c]
                if c == cu:
                    continue
                gain = links[c] - resolution * k_tot[c] * ku / two_m
                if gain > best_gain + 1e-12:
                    if best_gain > second:
                        second = best_gain
                    best_c, best_gain = c, gain
                elif not gain <= second:  # a NaN gain too
                    second = gain
            k_tot[best_c] += ku
            if best_c != cu:
                community[u] = best_c
                drift[cu] += ku
                drift[best_c] += ku
                total += ku + ku
                for v, w in zip(adj[u], wts[u]):
                    cv = community[v]
                    if cv == cu:
                        harm[v] += w + w
                    elif cv != best_c:
                        harm[v] += w
                moved = True
            cands[u] = tuple(links)
            seen[u] = total
            gap = best_gain - second
            # min(gap, best_gain), but NaN if gap is
            room[u] = (best_gain if best_gain <= gap else gap) - (slack * ku + 1e-12)
            harm[u] = 0
    return community


def louvain(graph: ViewGraph, seed: int, resolution=DEFAULT_RESOLUTION) -> CommunityAssignment:
    """Run Louvain to convergence; isolated nodes get singleton communities.

    Levels alternate local moves with graph aggregation until a level makes
    no move. Modularity (on the input graph) is recorded after each level.
    Each level renumbers its communities in ascending order, which keeps the
    next level's lowest-id tie-break. `resolution` must be a finite number
    > 0 (InvalidSpec otherwise).
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidSpec(f"resolution must be a finite number > 0, got {resolution}")
    n = graph.node_count
    if n == 0:
        raise EmptyGraph("louvain needs at least one node")
    if graph.edge_count == 0:
        # modularity undefined without edges; 0.0 by convention
        return CommunityAssignment(list(range(n)), (0.0,))

    rng = random.Random(seed)
    work, wts = graph.adjacency, graph.weights
    degree = [sum(row) for row in wts]
    two_m = sum(degree)  # aggregation keeps the total weight
    labels = list(range(n))  # original node -> its node in the work graph
    level_mods: list[float] = []
    while True:
        community = _one_level(work, wts, degree, two_m, rng, resolution)
        settled = all(c == u for u, c in enumerate(community))
        used = sorted(set(community))
        rank = [0] * len(work)  # community -> its rank among the communities
        for i, c in enumerate(used):
            rank[c] = i
        community = [rank[c] for c in community]
        labels = [community[c] for c in labels]
        # a level that moves nothing keeps the previous level's grouping, and
        # modularity depends only on the grouping, so its score is the same
        if settled and level_mods:
            level_mods.append(level_mods[-1])
        else:
            level_mods.append(modularity(graph, labels, resolution))
        if settled:
            break
        work, wts, degree = _aggregate(work, wts, degree, community, len(used))

    dense: dict[int, int] = {}  # community -> its rank by first member
    return CommunityAssignment([dense.setdefault(c, len(dense)) for c in labels], tuple(level_mods))
