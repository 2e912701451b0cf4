"""Span tracing from outside the program.

`Tracer.install` replaces each traced function at the module attribute its
callers look it up by (for example `sparseview.sampler.approximate_steiner_tree`,
which the sampler calls) with a wrapper that records one span per call:
name, start, end, parent span and round. Counts are recorded at the same
boundaries from the call's arguments and result. Spans stay in memory until
the run ends; `per_round` then reduces them to total time, self time (the
span minus its direct child spans) and calls per name and round.
"""

from __future__ import annotations

import importlib
import os
import time


def _dispersion_pairs(args, result) -> int:
    n = len(set(args[2]))
    return n * (n - 1) // 2 - result.excluded_pairs


def _kept_tree_views(args, result) -> int:
    return sum(1 for _, prov in result if prov.phase.value in ("terminal", "steiner"))


# (module, attribute, span name, counter name, count of one call)
SPANS = [
    ("cli", "run", "cli.run", None, None),
    ("cli", "load_scene_dir", "recon_io.load_scene_dir", None, None),
    ("cli", "parse_images", "recon_io.parse_images", None, None),
    ("cli", "build_graph", "view_graph.build_graph", None, None),
    ("sampler", "build_graph", "view_graph.build_graph", None, None),
    ("cli", "prune_edges", "view_graph.prune_edges", None, None),
    ("sampler", "prune_edges", "view_graph.prune_edges", None, None),
    ("sampler", "louvain", "community.louvain", "community.louvain.levels", lambda a, r: r.level_count),
    ("community", "modularity", "community.modularity", None, None),
    ("cli", "generate_batches", "sampler.generate_batches", None, None),
    ("sampler", "prepare_scene", "sampler.prepare_scene", None, None),
    ("sampler", "partition_round_robin", "partition.partition_round_robin", None, None),
    ("sampler", "sample_partition", "sampler.sample_partition", "steiner.tree_kept_views", _kept_tree_views),
    ("sampler", "subgraph", "view_graph.subgraph", "view_graph.subgraph.nodes", lambda a, r: len(r.adjacency)),
    ("sampler", "select_terminals", "steiner.select_terminals", "steiner.terminals", lambda a, r: len(r)),
    ("sampler", "approximate_steiner_tree", "steiner.approximate_steiner_tree", "steiner.tree_nodes",
     lambda a, r: len(r.tree_nodes)),
    ("steiner", "bfs_distances", "steiner.bfs_distances", "steiner.bfs_distances.nodes", lambda a, r: len(r)),
    ("sampler", "greedy_step", "sampler.greedy_step", "sampler.greedy_step.useful",
     lambda a, r: int(r is not None)),
    ("batches", "write_batches", "batches.write_batches", None, None),
    ("batches", "read_batches", "batches.read_batches", None, None),
    ("metrics", "k_hop_coverage", "metrics.k_hop_coverage", None, None),
    ("metrics", "avg_nearest_sample_dist", "metrics.avg_nearest_sample_dist", None, None),
    ("metrics", "dispersion", "metrics.dispersion", "metrics.dispersion.pairs_resolved", _dispersion_pairs),
    ("metrics", "bfs_distances", "metrics.bfs_distances", "metrics.bfs_distances.nodes", lambda a, r: len(r)),
    ("metrics", "pose_pair_errors", "metrics.pose_pair_errors", None, None),
    ("cli", "read_pfm", "pfm.read_pfm", "pfm.bytes", lambda a, r: os.path.getsize(a[0])),
    ("cli", "write_pfm", "pfm.write_pfm", "pfm.bytes", lambda a, r: os.path.getsize(a[0])),
    ("cli", "filter_depth", "depth_filter.filter_depth", None, None),
    ("depth_filter", "median_scale", "depth_filter.median_scale", None, None),
    ("depth_filter", "depth_discrepancy", "depth_filter.depth_discrepancy", None, None),
    ("depth_filter", "gradient_discrepancy", "depth_filter.gradient_discrepancy", None, None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts: list[dict[str, int]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def start_round(self) -> None:
        self.counts.append({})

    def install(self) -> None:
        """Wrap every traced attribute; one the program no longer has is
        listed in `missing`, so the run can fail instead of showing a layer
        as free."""
        for module, attr, name, counter, count in SPANS:
            try:
                mod = importlib.import_module(f"sparseview.{module}")
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"sparseview.{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name, counter, count))

    def _wrap(self, fn, name: str, counter: str | None, count):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, len(counts) - 1)
            if counter is not None:
                bucket = counts[-1]
                bucket[counter] = bucket.get(counter, 0) + count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def per_round(self) -> list[dict[str, dict[str, float]]]:
        """For each round: span name -> {s, self_s, calls}, plus the counters
        under 'counts'."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rounds: list[dict] = [
            {"counts": dict(c), **{n: {"s": 0.0, "self_s": 0.0, "calls": 0} for n in self.names}}
            for c in self.counts
        ]
        for idx, (name_id, start, end, _, rnd) in enumerate(self.spans):
            agg = rounds[rnd][self.names[name_id]]
            agg["s"] += end - start
            agg["self_s"] += end - start - child[idx]
            agg["calls"] += 1
        return rounds

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name_id, start, end, parent, rnd in self.spans:
                f.write(f'["{self.names[name_id]}",{start!r},{end!r},{parent},{rnd}]\n')
