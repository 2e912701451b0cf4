"""Sparsity-aware view sampling over SfM view graphs, plus monocular-guided
depth-map filtering. See the CLI (`sparseview --help`) for the pipeline."""

__version__ = "0.1.0"

from .batches import BatchConfig, Phase, SampledBatch, ViewProvenance, read_batches, write_batches
from .community import CommunityAssignment, louvain, modularity
from .depth_filter import DepthMap, FilterConfig, FilterReport, filter_depth
from .metrics import (
    AzimuthCoverage,
    DispersionResult,
    PosePairErrors,
    avg_nearest_sample_dist,
    azimuth_coverage,
    dispersion,
    k_hop_coverage,
    pose_pair_errors,
)
from .partition import Partitioning, partition_round_robin
from .pfm import read_pfm, write_pfm
from .recon_io import (
    CameraIntrinsics,
    CameraModel,
    MatchEdge,
    PosedView,
    SceneReconstruction,
    ScenePoint,
    load_scene_dir,
    parse_match_graph,
    parse_reconstruction,
    write_reconstruction,
)
from .sampler import (
    Preset,
    SamplingConfig,
    dfs_subsample,
    generate_batches,
    greedy_step,
    sample_partition,
)
from .steiner import SteinerResult, WeightMode, approximate_steiner_tree, select_terminals
from .synth import SynthKind, SynthSpec, gen_depth_fixture, gen_grid_scene, gen_ring_scene
from .view_graph import (
    GraphStatsReport,
    ViewGraph,
    build_graph,
    compute_stats,
    connected_components,
    prune_edges,
    subgraph,
)
