"""Sparsity-aware view sampling over SfM view graphs, plus monocular-guided
depth-map filtering. See the CLI (`sparseview --help`) for the pipeline.

Importing the package loads none of its modules: each public name below
imports its owner on first use (PEP 562), so a caller pays only for the
half of the toolkit it runs."""

import importlib
import os

__version__ = "0.1.0"

# public name -> the submodule that owns it
_OWNERS = {
    name: owner
    for owner, names in {
        "batches": (
            "BatchConfig",
            "Phase",
            "SampledBatch",
            "ViewProvenance",
            "read_batches",
            "write_batches",
        ),
        "community": ("CommunityAssignment", "louvain", "modularity"),
        "depth_filter": ("DepthMap", "FilterConfig", "FilterReport", "filter_depth"),
        "metrics": (
            "AzimuthCoverage",
            "DispersionResult",
            "PosePairErrors",
            "avg_nearest_sample_dist",
            "azimuth_coverage",
            "dispersion",
            "k_hop_coverage",
            "pose_pair_errors",
        ),
        "partition": ("partition_round_robin",),
        "pfm": ("read_pfm", "write_pfm"),
        "recon_io": (
            "CameraIntrinsics",
            "CameraModel",
            "PosedView",
            "SceneReconstruction",
            "ScenePoint",
            "load_scene_dir",
            "parse_match_graph",
            "write_reconstruction",
        ),
        "sampler": (
            "Preset",
            "SamplingConfig",
            "dfs_subsample",
            "generate_batches",
            "greedy_step",
            "sample_partition",
        ),
        "steiner": ("SteinerResult", "WeightMode", "approximate_steiner_tree", "select_terminals"),
        "synth": ("SynthSpec", "gen_depth_fixture", "gen_grid_scene", "gen_ring_scene"),
        "view_graph": (
            "GraphStatsReport",
            "ViewGraph",
            "build_graph",
            "compute_stats",
            "connected_components",
            "prune_edges",
            "subgraph",
        ),
    }.items()
    for name in names
}

__all__ = list(_OWNERS)


def __getattr__(name):
    owner = _OWNERS.get(name)
    if owner is None:  # also how `from sparseview import community` finds the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _usable_cpus() -> int:
    """The CPUs this process may run on: the worker count of the sampler's
    batch loop and of the depth filter's band pool."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1
