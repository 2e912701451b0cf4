"""Command-line interface.

Subcommands: parse, stats, communities, partition, sample, coverage,
filter-depth, pose-eval, synth. Exit codes: 0 success, 1 input/usage error,
2 internal invariant violation. All outputs are deterministic given the
inputs and, where a subcommand takes it, --seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from dataclasses import asdict

from .errors import EmptySample, InvalidSpec, InvariantViolation, SparseViewError

# name -> the module that owns it. Only `errors` is imported above;
# `__getattr__` imports an owner below the first time a subcommand reads one
# of its names. Code here reads these names through `_cli`, never a local
# import, so a wrapper set on this module is what runs. A name equal to its
# owner is that module itself.
_LAZY = {
    "batches": "batches",
    "metrics": "metrics",
    "synth": "synth",
    "DEFAULT_RESOLUTION": "community",
    "FilterConfig": "depth_filter",
    "filter_depth": "depth_filter",
    "DEFAULT_THRESHOLDS": "metrics",
    "partition_round_robin": "partition",
    "read_pfm": "pfm",
    "write_pfm": "pfm",
    "load_scene_dir": "recon_io",
    "parse_images": "recon_io",
    "write_reconstruction": "recon_io",
    "DEFAULT_MAX_COMPONENTS": "sampler",
    "DEFAULT_SEARCH_DEPTH": "sampler",
    "Preset": "sampler",
    "SamplingConfig": "sampler",
    "generate_batches": "sampler",
    "prepare_scene": "sampler",
    "WeightMode": "steiner",
    "DEFAULT_PRUNE_THRESHOLD": "view_graph",
    "build_graph": "view_graph",
    "compute_stats": "view_graph",
    "prune_edges": "view_graph",
}


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


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
    """argparse type: comma-separated degrees under `metrics.check_thresholds`."""
    try:
        values = [int(t) for t in text.split(",")]
        _cli.metrics.check_thresholds(values)
    except ValueError:  # an empty or non-integer entry; argparse would name this function
        raise argparse.ArgumentTypeError(f"must be whole degrees, got {text!r}") from None
    except InvalidSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return values


def _add_common(parser: argparse.ArgumentParser, seed: bool = False, writes: str = "") -> None:
    """--seed if the subcommand takes one, --quiet, and --out: where `run`
    writes the report, or, for a subcommand that `writes` files, their
    required path."""
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress log output")
    text = writes or "output path (default stdout)"
    parser.add_argument("--out", required=bool(writes), help=text)


def _add_scene_flags(parser: argparse.ArgumentParser, prune: bool = True) -> None:
    parser.add_argument("--scene", required=True, help="scene directory with cameras.txt/images.txt")
    parser.add_argument("--matches", help="match edge list (default <scene>/matches.txt)")
    if prune:
        parser.add_argument("--prune-threshold", type=_at_least(0), default=_cli.DEFAULT_PRUNE_THRESHOLD)


def _load_scene(args):
    return _cli.load_scene_dir(args.scene, matches_path=args.matches)


def _load_graph(args):
    """The scene and its view graph pruned at --prune-threshold."""
    scene = _load_scene(args)
    return scene, _cli.prune_edges(_cli.build_graph(scene), args.prune_threshold)


def cmd_parse(args) -> list[str]:
    scene = _load_scene(args)
    return [
        f"scene {scene.scene_id}",
        f"cameras {len(scene.intrinsics)}",
        f"views {len(scene.views)}",
        f"edges {len(scene.edges)}",
        f"points {len(scene.points)}",
    ]


def _fmt(x: float | None) -> str:
    return "absent" if x is None else repr(x)


def cmd_stats(args) -> list[str]:
    scene, graph = _load_graph(args)
    stats = _cli.compute_stats(graph)
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
        az = _cli.metrics.azimuth_coverage(scene, gravity_axis=args.gravity)
        lines.append("[azimuth_coverage]")
        lines.append(f"positional_pct {_fmt(az.positional_pct)}")
        lines.append(f"rotational_pct {_fmt(az.rotational_pct)}")
    return lines


def cmd_communities(args) -> list[str]:
    config = _cli.SamplingConfig(prune_threshold=args.prune_threshold, seed=args.seed)
    ctx = _cli.prepare_scene(_load_scene(args), config, args.resolution)
    _log(args, f"modularity {ctx.communities.modularity!r} levels {ctx.communities.level_count}")
    return [f"{v} {c}" for v, c in zip(ctx.pruned.ids, ctx.communities.labels)]


def cmd_partition(args) -> list[str]:
    config = _cli.SamplingConfig(prune_threshold=args.prune_threshold, seed=args.seed)
    ctx = _cli.prepare_scene(_load_scene(args), config)
    assignment = _cli.partition_round_robin(ctx.pruned, args.ncc, args.seed, ctx.communities)
    return [f"{v} {i}" for v, i in zip(ctx.pruned.ids, assignment) if i >= 0]


def cmd_sample(args) -> None:
    if args.weight_mode is not None and args.preset == _cli.Preset.RANDOM.value:
        raise _UsageError("sample --preset random does not read --weight-mode")
    config = _cli.SamplingConfig(
        n_views=args.n,
        max_components=args.ncc,
        search_depth=args.depth,
        prune_threshold=args.prune_threshold,
        weight_mode=_cli.WeightMode(args.weight_mode or _cli.SamplingConfig.weight_mode.value),
        seed=args.seed,
        preset=_cli.Preset(args.preset) if args.preset else None,
    )
    scene = _load_scene(args)
    result = _cli.generate_batches(scene, config, args.batches)
    truncated = sum(1 for b in result if b.truncated)
    if truncated:
        _log(args, f"warning: {truncated} of {len(result)} batches truncated")
    _cli.batches.write_batches(result, args.out)
    _log(args, f"wrote {len(result)} batches to {args.out}")


def cmd_coverage(args) -> list[str]:
    scene, graph = _load_graph(args)
    positions = scene.positions(graph.ids)
    nodes = range(graph.node_count)
    loaded = _cli.batches.read_batches(args.batches)
    if not loaded:
        raise EmptySample(f"{args.batches}: holds no batch")
    lines = []
    sums = {"cov": 0.0, "near": 0.0, "gdisp": 0.0, "edisp": 0.0}
    gdisp_count = 0
    for idx, batch in enumerate(loaded):
        try:
            views = [graph.node(v) for v in batch.views]
            cov = _cli.metrics.k_hop_coverage(graph, views, args.k)
            near = _cli.metrics.avg_nearest_sample_dist(positions, nodes, views)
            disp = _cli.metrics.dispersion(graph, positions, views)
        except SparseViewError as exc:  # a fault of one batch, so name the file and the batch
            raise SparseViewError(f"{args.batches}: batch {idx}: {exc}") from exc
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
    lines.append(
        f"aggregate batches {n} cov{args.k} {_fmt(sums['cov'] / n)} "
        f"avg_nearest {_fmt(sums['near'] / n)} "
        f"graph_disp {_fmt(sums['gdisp'] / gdisp_count if gdisp_count else None)} "
        f"euclid_disp {_fmt(sums['edisp'] / n)}"
    )
    return lines


def cmd_filter_depth(args) -> None:
    geom = _cli.read_pfm(args.geom)
    mono = _cli.read_pfm(args.mono)
    config = _cli.FilterConfig(tau_depth=args.tau_depth, tau_grad=args.tau_grad)
    try:
        filtered, report = _cli.filter_depth(geom, mono, config)
    except SparseViewError as exc:  # a fault of the pair, so name both files
        raise SparseViewError(f"{args.geom}, {args.mono}: {exc}") from exc
    _cli.write_pfm(args.out, filtered)
    if args.report:
        with open(args.report, "w") as f:
            f.write(json.dumps(asdict(report), sort_keys=True, separators=(",", ":")))
            f.write("\n")
    _log(args, f"scale {report.scale_s!r} removed {report.removed_total} kept {report.kept}")


def cmd_pose_eval(args) -> list[str]:
    pred = _cli.parse_images(args.pred)
    gt = _cli.parse_images(args.gt)
    ids = sorted(gt)
    try:
        pred_list = [pred[i] for i in ids]
    except KeyError as exc:
        raise SparseViewError(f"{args.pred}: prediction missing view {exc}") from exc
    gt_list = [gt[i] for i in ids]
    errors = _cli.metrics.pose_pair_errors(pred_list, gt_list, args.thresholds)
    lines = [f"pairs {len(errors.rotation_errors)}"]
    for name, at in (("rra", errors.rra_at), ("rta", errors.rta_at), ("auc", errors.auc_at)):
        lines += [f"{name}@{t} {_fmt(at[t])}" for t in args.thresholds]
    lines.append(f"mre {_fmt(errors.mre)}")
    lines.append(f"mte {_fmt(errors.mte)}")
    return lines


# synth flag -> (the SynthSpec field it sets, the kinds that read it); an unset
# flag is None, so SynthSpec owns each default and, through it, the flag's type
_SYNTH_FLAGS = {
    "--clusters": ("cluster_count", ("ring", "grid")),
    "--cluster-size": ("cluster_size", ("ring",)),
    "--intra": ("intra_weight", ("ring", "grid")),
    "--inter": ("inter_weight", ("ring",)),
    "--radius": ("radius", ("ring", "grid")),
    "--noise": ("noise_sigma", ("ring", "grid")),
}


def cmd_synth(args) -> None:
    given = {f: name for f, (name, _) in _SYNTH_FLAGS.items() if getattr(args, name) is not None}
    unread = [flag for flag in given if args.kind not in _SYNTH_FLAGS[flag][1]]
    if unread:
        raise _UsageError(f"synth --kind {args.kind} does not read {', '.join(unread)}")
    spec = _cli.synth.SynthSpec(seed=args.seed, **{f: getattr(args, f) for f in given.values()})
    if args.kind == "depth":
        os.makedirs(args.out, exist_ok=True)
        geom, mono, blob = _cli.synth.gen_depth_fixture(spec)
        _cli.write_pfm(os.path.join(args.out, "geom.pfm"), geom)
        _cli.write_pfm(os.path.join(args.out, "mono.pfm"), mono)
        with open(os.path.join(args.out, "blob.json"), "w") as f:
            f.write(json.dumps(sorted(blob), sort_keys=True, separators=(",", ":")))
            f.write("\n")
        _log(args, f"wrote depth fixture to {args.out}")
        return
    if args.kind == "ring":
        scene = _cli.synth.gen_ring_scene(spec)
    else:
        scene = _cli.synth.gen_grid_scene(spec)
    _cli.write_reconstruction(scene, args.out)
    _log(args, f"wrote scene {scene.scene_id} to {args.out}")


def _parse_flags(p) -> None:
    _add_scene_flags(p, prune=False)
    _add_common(p)


def _stats_flags(p) -> None:
    _add_scene_flags(p)
    p.add_argument("--gravity", choices=("y", "z"), default="y")
    _add_common(p)


def _communities_flags(p) -> None:
    _add_scene_flags(p)
    p.add_argument("--resolution", type=_positive_float, default=_cli.DEFAULT_RESOLUTION)
    _add_common(p, seed=True)


def _partition_flags(p) -> None:
    _add_scene_flags(p)
    p.add_argument("--ncc", type=int, required=True, help="number of partitions")
    _add_common(p, seed=True)


def _sample_flags(p) -> None:
    config = _cli.SamplingConfig
    _add_scene_flags(p)
    p.add_argument("--n", type=int, default=config.n_views, help="views per batch")
    for flag, what, default in (("--ncc", "max connected components", _cli.DEFAULT_MAX_COMPONENTS),
                                ("--depth", "greedy search depth", _cli.DEFAULT_SEARCH_DEPTH)):
        p.add_argument(flag, type=int, help=f"{what} (default {default}; not with --preset)")
    p.add_argument("--preset", choices=[m.value for m in _cli.Preset])
    p.add_argument("--batches", type=_at_least(1), default=1, help="number of batches")
    p.add_argument(
        "--weight-mode",
        choices=[m.value for m in _cli.WeightMode],
        help=f"Steiner edge weights (default {config.weight_mode.value}; not with random)",
    )
    _add_common(p, seed=True, writes="batches file to write (jsonl)")


def _coverage_flags(p) -> None:
    _add_scene_flags(p)
    p.add_argument("--batches", required=True, help="batches.jsonl path")
    p.add_argument("--k", type=_at_least(0), default=2, help="hop radius for coverage")
    _add_common(p)


def _filter_depth_flags(p) -> None:
    p.add_argument("--geom", required=True, help="geometric depth (pfm)")
    p.add_argument("--mono", required=True, help="monocular prior depth (pfm)")
    p.add_argument("--tau-depth", type=_positive_float, default=_cli.FilterConfig.tau_depth)
    p.add_argument("--tau-grad", type=_positive_float, default=_cli.FilterConfig.tau_grad)
    p.add_argument("--report", help="write a json report here")
    _add_common(p, writes="filtered depth map to write (pfm)")


def _pose_eval_flags(p) -> None:
    p.add_argument("--pred", required=True, help="predicted poses (images.txt format)")
    p.add_argument("--gt", required=True, help="ground-truth poses (images.txt format)")
    p.add_argument(
        "--thresholds",
        type=_thresholds,
        default=_cli.DEFAULT_THRESHOLDS,
        help="comma-separated degrees",
    )
    _add_common(p)


def _synth_flags(p) -> None:
    p.add_argument("--kind", choices=("ring", "grid", "depth"), default="ring")
    for flag, (name, kinds) in _SYNTH_FLAGS.items():
        default = getattr(_cli.synth.SynthSpec, name)
        text = f"read by {'/'.join(kinds)} (default {default})"
        p.add_argument(flag, dest=name, type=type(default), help=text)
    _add_common(p, seed=True, writes="directory to write the scene or depth fixture into")


# subcommand -> (its --help line, what adds its flags, its handler), in --help order
_SUBCOMMANDS = {
    "parse": ("parse a scene and print a summary", _parse_flags, cmd_parse),
    "stats": ("view-graph statistics report", _stats_flags, cmd_stats),
    "communities": ("Louvain community labels", _communities_flags, cmd_communities),
    "partition": ("round-robin BFS partition labels", _partition_flags, cmd_partition),
    "sample": ("generate sampled batches (jsonl)", _sample_flags, cmd_sample),
    "coverage": ("coverage/sparsity report for batches", _coverage_flags, cmd_coverage),
    "filter-depth": ("monocular-guided depth filtering", _filter_depth_flags, cmd_filter_depth),
    "pose-eval": ("pairwise pose errors pred vs gt", _pose_eval_flags, cmd_pose_eval),
    "synth": ("generate synthetic scenes / depth fixtures", _synth_flags, cmd_synth),
}


def build_parser(argv: list[str]) -> _Parser:
    """The parser for `argv`. Only the subcommands named in `argv` get their
    flags: argparse parses with the chosen one alone, and the flags read
    their defaults from the modules that own them, so building the parser
    imports only the chosen subcommand's modules."""
    parser = _Parser(prog="sparseview", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, func) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name in argv:
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def run(argv: list[str]) -> int:
    """Parse `argv`, echo the seed, run the subcommand and write the report
    it returns to --out or stdout; the exit code."""
    try:
        args = build_parser(argv).parse_args(argv)
        if "seed" in args:
            _log(args, f"seed {args.seed}")
        lines = args.func(args)
        if lines is not None:
            text = "".join(line + "\n" for line in lines)
            if args.out:
                with open(args.out, "w") as f:
                    f.write(text)
            else:
                sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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
