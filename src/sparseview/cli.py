"""Command-line interface.

Subcommands: parse, stats, communities, partition, sample, coverage,
filter-depth, pose-eval, synth. Exit codes: 0 success, 1 input/usage error,
2 internal invariant violation. All outputs are deterministic given the
inputs and, where a subcommand takes it, --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import batches as batches_io
from . import community as community_mod
from . import metrics as metrics_mod
from . import synth as synth_mod
from .depth_filter import FilterConfig, filter_depth
from .errors import InvariantViolation, SparseViewError
from .partition import partition_round_robin
from .pfm import read_pfm, write_pfm
from .recon_io import load_scene_dir, parse_images, write_reconstruction
from .sampler import Preset, SamplingConfig, generate_batches, prepare_scene
from .steiner import WeightMode
from .view_graph import build_graph, compute_stats, prune_edges


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse reports a non-number as "invalid float value"


def _thresholds(text: str) -> list[int]:
    """argparse type: comma-separated whole degrees, each >= 1."""
    return [_at_least(1)(t) for t in text.split(",") if t]


def _add_common(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress log output")
    parser.add_argument("--out", help="output path (default stdout)")


def _add_scene_flags(parser: argparse.ArgumentParser, prune: bool = True) -> None:
    parser.add_argument("--scene", required=True, help="scene directory with cameras.txt/images.txt")
    parser.add_argument("--matches", help="match edge list (default <scene>/matches.txt)")
    if prune:
        parser.add_argument("--prune-threshold", type=_at_least(0), default=50)


def _load_scene(args):
    return load_scene_dir(args.scene, matches_path=args.matches)


def _load_graph(args):
    """The scene and its view graph pruned at --prune-threshold."""
    scene = _load_scene(args)
    return scene, prune_edges(build_graph(scene), args.prune_threshold)


def cmd_parse(args) -> int:
    scene = _load_scene(args)
    lines = [
        f"scene {scene.scene_id}",
        f"cameras {len(scene.intrinsics)}",
        f"views {len(scene.views)}",
        f"edges {len(scene.edges)}",
        f"points {len(scene.points)}",
    ]
    _write_out(args, "".join(line + "\n" for line in lines))
    return 0


def _fmt(x) -> str:
    if x is None:
        return "absent"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_stats(args) -> int:
    scene, graph = _load_graph(args)
    stats = compute_stats(graph)
    lines = [
        f"scene {scene.scene_id}",
        f"prune_threshold {args.prune_threshold}",
        f"nodes {stats.node_count}",
        f"edges {stats.edge_count}",
        f"mean_match_count {_fmt(stats.mean_match_count)}",
    ]
    for k in sorted(stats.frac_degree_le):
        lines.append(f"frac_degree_le_{k} {_fmt(stats.frac_degree_le[k])}")
    lines.append("[degree_histogram]")
    for d in sorted(stats.degree_histogram):
        lines.append(f"{d} {stats.degree_histogram[d]}")
    lines.append("[component_sizes]")
    for size in stats.connected_component_sizes:
        lines.append(str(size))
    if scene.points:
        az = metrics_mod.azimuth_coverage(scene, gravity_axis=args.gravity)
        lines.append("[azimuth_coverage]")
        lines.append(f"positional_pct {_fmt(az.positional_pct)}")
        lines.append(f"rotational_pct {_fmt(az.rotational_pct)}")
    _write_out(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_communities(args) -> int:
    _, graph = _load_graph(args)
    assignment = community_mod.louvain(graph, args.seed, resolution=args.resolution)
    _log(args, f"seed {args.seed}")
    _log(args, f"modularity {assignment.modularity!r} levels {assignment.level_count}")
    lines = [f"{v} {assignment.labels[v]}" for v in sorted(assignment.labels)]
    _write_out(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_partition(args) -> int:
    config = SamplingConfig(prune_threshold=args.prune_threshold, seed=args.seed)
    ctx = prepare_scene(_load_scene(args), config)
    _log(args, f"seed {args.seed}")
    parts = partition_round_robin(ctx.pruned, args.ncc, args.seed, ctx.communities)
    lines = [f"{v} {parts.assignment[v]}" for v in sorted(parts.assignment)]
    _write_out(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_sample(args) -> int:
    if not args.out:
        raise _UsageError("--out is required for sample")
    scene = _load_scene(args)
    config = SamplingConfig(
        n_views=args.n,
        max_components=args.ncc,
        search_depth=args.depth,
        prune_threshold=args.prune_threshold,
        weight_mode=WeightMode(args.weight_mode),
        seed=args.seed,
        preset=Preset(args.preset) if args.preset else None,
    )
    _log(args, f"seed {args.seed}")
    result = generate_batches(scene, config, args.batches)
    truncated = sum(1 for b in result if b.truncated)
    if truncated:
        _log(args, f"warning: {truncated} of {len(result)} batches truncated")
    batches_io.write_batches(result, args.out)
    _log(args, f"wrote {len(result)} batches to {args.out}")
    return 0


def cmd_coverage(args) -> int:
    scene, graph = _load_graph(args)
    positions = scene.positions()
    nodes = sorted(graph.adjacency)
    loaded = batches_io.read_batches(args.batches)
    lines = []
    sums = {"cov": 0.0, "near": 0.0, "gdisp": 0.0, "edisp": 0.0}
    gdisp_count = 0
    for idx, batch in enumerate(loaded):
        cov = metrics_mod.k_hop_coverage(graph, batch.views, args.k)
        near = metrics_mod.avg_nearest_sample_dist(positions, nodes, batch.views)
        disp = metrics_mod.dispersion(graph, positions, batch.views)
        sums["cov"] += cov
        sums["near"] += near
        sums["edisp"] += disp.euclidean_dispersion
        if disp.graph_dispersion is not None:
            sums["gdisp"] += disp.graph_dispersion
            gdisp_count += 1
        lines.append(
            f"batch {idx} views {len(batch.views)} cov{args.k} {_fmt(cov)} "
            f"avg_nearest {_fmt(near)} graph_disp {_fmt(disp.graph_dispersion)} "
            f"euclid_disp {_fmt(disp.euclidean_dispersion)} "
            f"excluded_pairs {disp.excluded_pairs}"
        )
    n = len(loaded)
    if n:
        lines.append(
            f"aggregate batches {n} cov{args.k} {_fmt(sums['cov'] / n)} "
            f"avg_nearest {_fmt(sums['near'] / n)} "
            f"graph_disp {_fmt(sums['gdisp'] / gdisp_count if gdisp_count else None)} "
            f"euclid_disp {_fmt(sums['edisp'] / n)}"
        )
    _write_out(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_filter_depth(args) -> int:
    geom = read_pfm(args.geom)
    mono = read_pfm(args.mono)
    config = FilterConfig(tau_depth=args.tau_depth, tau_grad=args.tau_grad)
    try:
        filtered, report = filter_depth(geom, mono, config)
    except SparseViewError as exc:  # a fault of the pair, so name both files
        raise SparseViewError(f"{args.geom}, {args.mono}: {exc}") from exc
    write_pfm(args.out_pfm, filtered)
    if args.report:
        payload = {
            "scale_s": report.scale_s,
            "removed_by_depth": report.removed_by_depth,
            "removed_by_grad": report.removed_by_grad,
            "removed_total": report.removed_total,
            "kept": report.kept,
        }
        with open(args.report, "w") as f:
            f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
            f.write("\n")
    _log(
        args,
        f"scale {report.scale_s!r} removed {report.removed_total} kept {report.kept}",
    )
    return 0


def cmd_pose_eval(args) -> int:
    pred = parse_images(args.pred)
    gt = parse_images(args.gt)
    ids = sorted(gt)
    try:
        pred_list = [pred[i] for i in ids]
    except KeyError as exc:
        raise SparseViewError(f"{args.pred}: prediction missing view {exc}") from exc
    gt_list = [gt[i] for i in ids]
    errors = metrics_mod.pose_pair_errors(pred_list, gt_list, args.thresholds)
    lines = [f"pairs {len(errors.rotation_errors)}"]
    for t in args.thresholds:
        lines.append(f"rra@{t} {_fmt(errors.rra_at[t])}")
    for t in args.thresholds:
        lines.append(f"rta@{t} {_fmt(errors.rta_at[t])}")
    for t in args.thresholds:
        lines.append(f"auc@{t} {_fmt(errors.auc_at[t])}")
    lines.append(f"mre {_fmt(errors.mre)}")
    lines.append(f"mte {_fmt(errors.mte)}")
    _write_out(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_synth(args) -> int:
    _log(args, f"seed {args.seed}")
    if not args.out:
        raise _UsageError("--out directory is required for synth")
    kind = synth_mod.SynthKind(args.kind)
    spec = synth_mod.SynthSpec(
        kind=kind,
        cluster_count=args.clusters,
        cluster_size=args.cluster_size,
        intra_weight=args.intra,
        inter_weight=args.inter,
        radius=args.radius,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    if kind is synth_mod.SynthKind.DEPTH_FIXTURE:
        os.makedirs(args.out, exist_ok=True)
        geom, mono, blob = synth_mod.gen_depth_fixture(spec)
        write_pfm(os.path.join(args.out, "geom.pfm"), geom)
        write_pfm(os.path.join(args.out, "mono.pfm"), mono)
        with open(os.path.join(args.out, "blob.json"), "w") as f:
            f.write(json.dumps(sorted(blob), sort_keys=True, separators=(",", ":")))
            f.write("\n")
        _log(args, f"wrote depth fixture to {args.out}")
        return 0
    if kind is synth_mod.SynthKind.RING_OF_CLUSTERS:
        scene = synth_mod.gen_ring_scene(spec)
    else:
        scene = synth_mod.gen_grid_scene(spec)
    write_reconstruction(scene, args.out)
    _log(args, f"wrote scene {scene.scene_id} to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sparseview", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a scene and print a summary")
    _add_scene_flags(p, prune=False)
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("stats", help="view-graph statistics report")
    _add_scene_flags(p)
    p.add_argument("--gravity", choices=("y", "z"), default="y")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("communities", help="Louvain community labels")
    _add_scene_flags(p)
    p.add_argument("--resolution", type=_positive_float, default=1.0)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("partition", help="round-robin BFS partition labels")
    _add_scene_flags(p)
    p.add_argument("--ncc", type=int, required=True, help="number of partitions")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sample", help="generate sampled batches (jsonl)")
    _add_scene_flags(p)
    p.add_argument("--n", type=int, default=24, help="views per batch")
    p.add_argument("--ncc", type=int, default=1, help="max connected components")
    p.add_argument("--depth", type=int, default=24, help="greedy search depth")
    p.add_argument("--preset", choices=[m.value for m in Preset])
    p.add_argument("--batches", type=_at_least(1), default=1, help="number of batches")
    p.add_argument(
        "--weight-mode",
        choices=[m.value for m in WeightMode],
        default=WeightMode.UNIT_HOP.value,
    )
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("coverage", help="coverage/sparsity report for batches")
    _add_scene_flags(p)
    p.add_argument("--batches", required=True, help="batches.jsonl path")
    p.add_argument("--k", type=_at_least(0), default=2, help="hop radius for coverage")
    _add_common(p)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("filter-depth", help="monocular-guided depth filtering")
    p.add_argument("--geom", required=True, help="geometric depth (pfm)")
    p.add_argument("--mono", required=True, help="monocular prior depth (pfm)")
    p.add_argument("--tau-depth", type=float, default=0.25)
    p.add_argument("--tau-grad", type=float, default=0.10)
    p.add_argument("--out", dest="out_pfm", required=True, help="filtered depth (pfm)")
    p.add_argument("--report", help="write a json report here")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_filter_depth)

    p = sub.add_parser("pose-eval", help="pairwise pose errors pred vs gt")
    p.add_argument("--pred", required=True, help="predicted poses (images.txt format)")
    p.add_argument("--gt", required=True, help="ground-truth poses (images.txt format)")
    p.add_argument(
        "--thresholds", type=_thresholds, default=[5, 10, 15, 30], help="degrees, comma-separated"
    )
    _add_common(p)
    p.set_defaults(func=cmd_pose_eval)

    p = sub.add_parser("synth", help="generate synthetic scenes / depth fixtures")
    p.add_argument("--kind", choices=[m.value for m in synth_mod.SynthKind], default="ring")
    p.add_argument("--clusters", type=int, default=6)
    p.add_argument("--cluster-size", type=int, default=5)
    p.add_argument("--intra", type=int, default=100)
    p.add_argument("--inter", type=int, default=60)
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.0)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_synth)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SparseViewError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
