"""sparseview benchmark: three workloads through the real CLI, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all           # every workload, one after another

Run it from the root of a checkout; it imports sparseview from ./src. The
benchmark writes its inputs from --seed, runs each workload in child
processes (bench/worker.py, single-threaded), checks every output with
bench/checks.py and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
peak_rss_mib); with --trace 1 they are the per-layer ones, from a traced
pass next to an untraced pass, each half of --seconds. A run record with
machine facts and input and output digests goes to .bench_out/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_SAMPLES = 7  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT_S = 150
MPX_PER_MAP = inputs.DEPTH_W * inputs.DEPTH_H / 1e6
COVERAGE_K = 2

# `reference` is the loop that measures the machine's speed (reference.py);
# `ref_passes` passes of it open each round and follow each timed call
WORKLOADS = {
    "sample-landmark": {"batches": 24, "views": 48, "preset": "sparse", "reference": "python", "ref_passes": 3},
    "sample-eval-grid": {"batches": 8, "views": 24, "preset": "mixed", "reference": "python", "ref_passes": 1},
    "filter-depth-1080p": {"pairs": 2, "reference": "numpy", "ref_passes": 1},
}

SAMPLE_SPANS = [
    "cli.run", "recon_io.load_scene_dir", "view_graph.build_graph", "view_graph.prune_edges",
    "community.louvain", "community.modularity", "sampler.generate_batches", "sampler.prepare_scene",
    "partition.partition_round_robin", "sampler.sample_partition", "view_graph.subgraph",
    "steiner.select_terminals", "steiner.approximate_steiner_tree", "steiner.bfs_distances",
    "batches.write_batches",
]
EXPECTED_SPANS = {  # spans each workload must call; zero calls fails the traced run
    "sample-landmark": SAMPLE_SPANS + ["sampler.greedy_step"],
    "sample-eval-grid": SAMPLE_SPANS + [
        "batches.read_batches", "metrics.k_hop_coverage", "metrics.avg_nearest_sample_dist",
        "metrics.dispersion", "metrics.bfs_distances", "metrics.pose_pair_errors", "recon_io.parse_images",
    ],
    "filter-depth-1080p": [
        "cli.run", "pfm.read_pfm", "pfm.write_pfm", "depth_filter.filter_depth",
        "depth_filter.median_scale", "depth_filter.depth_discrepancy", "depth_filter.gradient_discrepancy",
    ],
}

# per-layer metric -> (unit, source); a source is ("span", name, field),
# ("count", counter) or ("ratio", numerator metric, denominator metric)
PER_LAYER = {
    "cli.run.self_s": ("s", ("span", "cli.run", "self_s")),
    "recon_io.load_scene_dir.s": ("s", ("span", "recon_io.load_scene_dir", "s")),
    "view_graph.build_graph.s": ("s", ("span", "view_graph.build_graph", "s")),
    "view_graph.prune_edges.s": ("s", ("span", "view_graph.prune_edges", "s")),
    "community.louvain.s": ("s", ("span", "community.louvain", "s")),
    "community.louvain.levels": ("count", ("count", "community.louvain.levels")),
    "community.modularity.calls": ("count", ("span", "community.modularity", "calls")),
    "sampler.prepare_scene.s": ("s", ("span", "sampler.prepare_scene", "s")),
    "sampler.generate_batches.self_s": ("s", ("span", "sampler.generate_batches", "self_s")),
    "partition.partition_round_robin.s": ("s", ("span", "partition.partition_round_robin", "s")),
    "partition.partition_round_robin.calls": ("count", ("span", "partition.partition_round_robin", "calls")),
    "view_graph.subgraph.s": ("s", ("span", "view_graph.subgraph", "s")),
    "view_graph.subgraph.nodes": ("count", ("count", "view_graph.subgraph.nodes")),
    "steiner.select_terminals.s": ("s", ("span", "steiner.select_terminals", "s")),
    "steiner.approximate_steiner_tree.self_s": ("s", ("span", "steiner.approximate_steiner_tree", "self_s")),
    "steiner.approximate_steiner_tree.calls": ("count", ("span", "steiner.approximate_steiner_tree", "calls")),
    "steiner.terminals": ("count", ("count", "steiner.terminals")),
    "steiner.tree_nodes": ("count", ("count", "steiner.tree_nodes")),
    "steiner.tree_kept_views": ("count", ("count", "steiner.tree_kept_views")),
    "steiner.tree_kept_ratio": ("ratio", ("ratio", "steiner.tree_kept_views", "steiner.tree_nodes")),
    "steiner.bfs_distances.nodes": ("count", ("count", "steiner.bfs_distances.nodes")),
    "sampler.greedy_step.s": ("s", ("span", "sampler.greedy_step", "s")),
    "sampler.greedy_step.calls": ("count", ("span", "sampler.greedy_step", "calls")),
    "sampler.greedy_step.useful": ("count", ("count", "sampler.greedy_step.useful")),
    "sampler.greedy_step.useful_ratio": ("ratio", ("ratio", "sampler.greedy_step.useful", "sampler.greedy_step.calls")),
    "sampler.sample_partition.self_s": ("s", ("span", "sampler.sample_partition", "self_s")),
    "batches.write_batches.s": ("s", ("span", "batches.write_batches", "s")),
    "batches.read_batches.s": ("s", ("span", "batches.read_batches", "s")),
    "metrics.k_hop_coverage.s": ("s", ("span", "metrics.k_hop_coverage", "s")),
    "metrics.avg_nearest_sample_dist.s": ("s", ("span", "metrics.avg_nearest_sample_dist", "s")),
    "metrics.dispersion.s": ("s", ("span", "metrics.dispersion", "s")),
    "metrics.dispersion.self_s": ("s", ("span", "metrics.dispersion", "self_s")),
    "metrics.dispersion.pairs_resolved": ("count", ("count", "metrics.dispersion.pairs_resolved")),
    "metrics.bfs_distances.nodes": ("count", ("count", "metrics.bfs_distances.nodes")),
    "metrics.dispersion.useful_ratio": (
        "ratio", ("ratio", "metrics.dispersion.pairs_resolved", "metrics.bfs_distances.nodes")),
    "metrics.pose_pair_errors.s": ("s", ("span", "metrics.pose_pair_errors", "s")),
    "recon_io.parse_images.s": ("s", ("span", "recon_io.parse_images", "s")),
    "pfm.read_pfm.s": ("s", ("span", "pfm.read_pfm", "s")),
    "pfm.write_pfm.s": ("s", ("span", "pfm.write_pfm", "s")),
    "pfm.bytes": ("byte", ("count", "pfm.bytes")),
    "depth_filter.filter_depth.self_s": ("s", ("span", "depth_filter.filter_depth", "self_s")),
    "depth_filter.median_scale.s": ("s", ("span", "depth_filter.median_scale", "s")),
    "depth_filter.depth_discrepancy.s": ("s", ("span", "depth_filter.depth_discrepancy", "s")),
    "depth_filter.gradient_discrepancy.s": ("s", ("span", "depth_filter.gradient_discrepancy", "s")),
}


def make_inputs(workload: str, seed: int, work: str) -> tuple[dict, dict]:
    """Write the workload's inputs under `work`; return (plan, truth)."""
    spec = WORKLOADS[workload]
    plan = {
        "src": os.path.join(ROOT, "src"), "bench": HERE, "scene": None, "poses": None,
        "prune_threshold": inputs.PRUNE_THRESHOLD, "cli_seed": seed, "work": work,
        "reference": spec["reference"], "ref_passes": spec["ref_passes"], "workload": workload,
    }
    truth: dict = {}
    if workload == "filter-depth-1080p":
        pairs = []
        for i in range(spec["pairs"]):
            pair = inputs.depth_pair(seed, i)
            geom, mono = os.path.join(work, f"geom_{i}.pfm"), os.path.join(work, f"mono_{i}.pfm")
            inputs.write_pfm(geom, pair.geom)
            inputs.write_pfm(mono, pair.mono)
            pairs.append((geom, mono, pair.blob, pair.hole))
        truth["pairs"] = pairs
        return plan, truth
    scene = inputs.landmark_scene(seed) if workload == "sample-landmark" else inputs.grid_scene(seed)
    plan["scene"] = os.path.join(work, scene.scene_id)
    inputs.write_scene(scene, plan["scene"])
    truth["scene"] = checks.SceneTruth(scene)
    if workload == "sample-eval-grid":
        plan["poses"] = os.path.join(work, "poses.npz")
        np.savez(plan["poses"], quats=scene.quats, trans=scene.trans)
    return plan, truth


def round_steps(workload: str, plan: dict, out: str) -> tuple[list, list]:
    """The CLI calls of one round, and the files whose digest the round reports."""
    spec = WORKLOADS[workload]
    q = ["--quiet"]
    if workload == "filter-depth-1080p":
        steps, outputs = [], []
        for i in range(spec["pairs"]):
            pfm, report = os.path.join(out, f"filtered_{i}.pfm"), os.path.join(out, f"report_{i}.json")
            steps.append({"argv": [
                "filter-depth", "--geom", os.path.join(plan["work"], f"geom_{i}.pfm"),
                "--mono", os.path.join(plan["work"], f"mono_{i}.pfm"), "--out", pfm, "--report", report, *q]})
            outputs += [pfm, report]
        return steps, outputs
    batches = os.path.join(out, "batches.jsonl")
    scene = ["--scene", plan["scene"], "--prune-threshold", str(plan["prune_threshold"])]
    steps = [{"argv": [
        "sample", *scene, "--preset", spec["preset"], "--n", str(spec["views"]), "--batches", str(spec["batches"]),
        "--seed", str(plan["cli_seed"]), "--out", batches, *q]}]
    outputs = [batches]
    if workload == "sample-eval-grid":
        coverage = os.path.join(out, "coverage.txt")
        steps.append({"batches": batches, "dir": out, "seed": plan["cli_seed"]})
        steps.append({"argv": [
            "coverage", *scene, "--batches", batches, "--k", str(COVERAGE_K), "--out", coverage, *q]})
        outputs.append(coverage)
        for b in range(spec["batches"]):
            pose = os.path.join(out, f"pose_{b}.txt")
            steps.append({"argv": [
                "pose-eval", "--pred", os.path.join(out, f"pred_{b}.txt"),
                "--gt", os.path.join(out, f"gt_{b}.txt"), "--out", pose, *q]})
            outputs.append(pose)
    return steps, outputs


def spawn(plan: dict, work: str, tag: str, seconds: float, mode: str) -> dict:
    """Run one worker process (worker.py, in `mode`) to completion and return its result."""
    out = os.path.join(work, f"out-{tag}")
    os.makedirs(out, exist_ok=True)
    steps, outputs = round_steps(plan["workload"], plan, out)
    child_plan = {**plan, "steps": steps, "outputs": outputs, "seconds": seconds, "out": out,
                  "calls_per_round": sum(1 for s in steps if "argv" in s),
                  "spans_path": os.path.join(work, f"spans-{tag}.jsonl")}
    plan_path, result_path = os.path.join(work, f"plan-{tag}.json"), os.path.join(work, f"result-{tag}.json")
    with open(plan_path, "w") as f:
        json.dump(child_plan, f)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    with open(os.path.join(work, f"stderr-{tag}.txt"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, repr(t0), result_path, mode],
            stdin=subprocess.DEVNULL, stdout=err, stderr=err, env=env, cwd=work)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{tag} worker did not finish in {CHILD_TIMEOUT_S} s")
    if code != 0:
        with open(os.path.join(work, f"stderr-{tag}.txt")) as f:
            raise RuntimeError(f"{tag} worker exited with {code}:\n{f.read()[-3000:]}")
    with open(result_path) as f:
        result = json.load(f)
    result["out"], result["outputs"] = out, outputs
    return result


def ops_per_round(workload: str) -> int:
    spec = WORKLOADS[workload]
    return spec.get("batches", spec.get("pairs"))


def check_outputs(workload: str, plan: dict, truth: dict, result: dict) -> tuple[list[str], int, int]:
    """Check one worker's outputs. Returns (errors, attempted ops, failed ops).

    Every successful round must have produced the same bytes (the program
    is deterministic under a fixed seed), so the files left by the last
    round stand for all of them."""
    per_round = ops_per_round(workload)
    rounds = result["rounds"]
    attempted = per_round * len(rounds)
    good = good_rounds(result)
    failed = per_round * (len(rounds) - len(good))
    errors: list[str] = []
    if not good:
        return ["no round completed"], attempted, failed
    if len({r["digest"] for r in good}) != 1:
        errors.append("determinism: identical rounds wrote different bytes")
    if rounds[-1]["digest"] is None:
        return errors + ["last round failed; its outputs cannot be checked"], attempted, failed
    out = result["out"]
    if workload == "filter-depth-1080p":
        for i, (geom, mono, blob, hole) in enumerate(truth["pairs"]):
            errors += checks.check_filter_files(
                os.path.join(out, f"filtered_{i}.pfm"), geom, mono, blob, hole,
                os.path.join(out, f"report_{i}.json"))
        return errors, attempted, failed
    spec, scene = WORKLOADS[workload], truth["scene"]
    with open(os.path.join(out, "batches.jsonl")) as f:
        errs, truncated, records = checks.check_batches(
            f.read(), scene, spec["preset"], spec["views"], spec["batches"])
    errors += errs
    failed += truncated * len(good)
    if workload == "sample-eval-grid":
        with open(os.path.join(out, "coverage.txt")) as f:
            errors += checks.check_coverage(f.read(), records, scene, COVERAGE_K)
        for b, rec in enumerate(records):
            with open(os.path.join(out, f"pose_{b}.txt")) as f:
                errors += checks.check_pose(f.read(), rec["views"], scene, plan["cli_seed"], b)
    return errors, attempted, failed


def slowdown(ref_s: float, kind: str) -> float:
    """How much slower than the reference host a process ran when the
    reference loop took `ref_s` (its fastest pass at that moment)."""
    return ref_s / reference.NOMINAL_S[kind]


def good_rounds(result: dict) -> list[dict]:
    return [r for r in result["rounds"] if r["digest"] is not None]


def lower_quartile(values) -> float:
    return sorted(values)[len(values) // 4]


def round_seconds(result: dict, kind: str) -> float:
    """Program time of one round, in seconds on the reference host.

    Each call's time is divided by its round's slowdown (the round's fastest
    reference pass over the nominal time), and the round's time is the sum
    over its calls of each call's lower-quartile scaled time over the
    rounds. Every round repeats the same calls on the same inputs, so the
    spread between rounds is the machine's (see README, "Noise")."""
    scaled = [[c / slowdown(min(r["ref_s"]), kind) for c in r["call_s"]] for r in good_rounds(result)]
    return sum(lower_quartile(times) for times in zip(*scaled)) if scaled else float("inf")


def setup_seconds(result: dict, kind: str) -> float:
    return result["setup_s"] / slowdown(min(result["setup_ref_s"]), kind)


def per_layer_metrics(result: dict, kind: str) -> dict:
    """Each metric per round: counts repeat exactly from round to round;
    times are divided by the round's slowdown and the lower quartile over
    the rounds is reported, as for the round time."""
    rounds = result["trace"]["per_round"]
    scales = [slowdown(min(r["ref_s"]), kind) for r in result["rounds"]]

    def value(source) -> float:
        if source[0] == "count":
            return min(r["counts"].get(source[1], 0) for r in rounds)
        per_round = [r.get(source[1], {}).get(source[2], 0) for r in rounds]
        if source[2] == "calls":
            return min(per_round)
        return lower_quartile([v / scale for v, scale in zip(per_round, scales)])

    out = {}
    for name, (unit, source) in PER_LAYER.items():
        if source[0] == "ratio":
            den = value(PER_LAYER[source[2]][1])
            out[name] = {"value": value(PER_LAYER[source[1]][1]) / den if den else 0.0, "unit": unit}
        else:
            out[name] = {"value": value(source), "unit": unit}
    return out


def zero_call_spans(workload: str, trace: dict) -> list[str]:
    calls = {}
    for r in trace["per_round"]:
        for name, agg in r.items():
            if name != "counts":
                calls[name] = calls.get(name, 0) + agg["calls"]
    return [n for n in EXPECTED_SPANS[workload] if not calls.get(n)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_root = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_root, f"work-{workload}-s{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan, truth = make_inputs(workload, seed, work)
        input_digest = inputs.digest_tree(work)
        setups, kind = [], plan["reference"]
        if not trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(setup_seconds(spawn(plan, work, f"setup{i}", seconds, "setup"), kind))
        # a traced run splits its time between an untraced and a traced pass
        pass_s = seconds / 2 if trace else seconds
        plain = spawn(plan, work, "plain", pass_s, "plain")
        setups.append(setup_seconds(plain, kind))
        errors, attempted, failed = check_outputs(workload, plan, truth, plain)
        if not trace:
            # peak memory comes from a process that never runs the reference loop
            peak = spawn(plan, work, "peak", pass_s, "peak")
            if good_rounds(plain) and peak["rounds"][0]["digest"] != good_rounds(plain)[0]["digest"]:
                errors.append("peak_digest: the peak-memory round wrote other bytes than the timed rounds")
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "inputs_sha256": input_digest,
            "outputs_sha256": {os.path.basename(p): inputs.digest_files([p]) for p in plain["outputs"]
                               if os.path.exists(p)},
            "round_call_s": [r["call_s"] for r in plain["rounds"]],
            "round_reference_s": [r["ref_s"] for r in plain["rounds"]],
            "setup_s_samples": setups,
        }
        unit_ops = ops_per_round(workload)
        if not trace:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_s": {"value": unit_ops / round_seconds(plain, kind), "unit": "op/s"},
                "peak_rss_mib": {"value": peak["peak_rss_mib"], "unit": "MiB"},
            }
        else:
            traced = spawn(plan, work, "traced", pass_s, "trace")
            t_errors, t_attempted, t_failed = check_outputs(workload, plan, truth, traced)
            errors += t_errors
            attempted, failed = attempted + t_attempted, failed + t_failed
            if {r["digest"] for r in traced["rounds"]} != {plain["rounds"][0]["digest"]}:
                errors.append("trace_digest: tracing changed an output digest")
            zero = zero_call_spans(workload, traced["trace"])
            if zero or traced["trace"]["missing"]:
                errors.append(f"trace_calls: no calls through {zero + traced['trace']['missing']}")
            metrics = per_layer_metrics(traced, kind)
            traced_s, plain_s = round_seconds(traced, kind), round_seconds(plain, kind)
            metrics.update({
                "trace.rounds": {"value": len(traced["rounds"]), "unit": "count"},
                "trace.round_s": {"value": traced_s, "unit": "s"},
                "trace.untraced_round_s": {"value": plain_s, "unit": "s"},
                "trace.overhead_s": {"value": traced_s - plain_s, "unit": "s"},
                "trace.overhead_ratio": {"value": (traced_s - plain_s) / plain_s, "unit": "ratio"},
            })
            shutil.copy(os.path.join(work, "spans-traced.jsonl"),
                        os.path.join(out_root, f"spans_{workload}_seed{seed}.jsonl"))
        record.update(attempted=attempted, failed=failed, errors=errors, metrics=metrics)
        with open(os.path.join(out_root, f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(record: dict) -> None:
    w = record["workload"]
    print(f"== {w}  seed {record['seed']}  inputs sha256 {record['inputs_sha256'][:16]}  "
          f"nproc {record['nproc']}  python {record['python']}  numpy {record['numpy']}")
    for name, m in record["metrics"].items():
        print(f"{w:20s} {name:42s} {m['value']:.6g} {m['unit']}")
    if "ops_per_s" in record["metrics"]:
        rate = record["metrics"]["ops_per_s"]["value"]
        if w == "filter-depth-1080p":
            print(f"{w:20s} {'mpix_per_s':42s} {rate * MPX_PER_MAP:.6g} Mpx/s")
        else:
            print(f"{w:20s} {'batches_per_s':42s} {rate:.6g} batch/s")
    print(f"{w:20s} attempted {record['attempted']} failed {record['failed']} "
          f"correct {str(not record['errors']).lower()}")
    for name, digest in sorted(record["outputs_sha256"].items())[:4]:
        print(f"{w:20s} output {name} sha256 {digest[:16]}")
    for e in record["errors"][:20]:
        print(f"{w:20s} CHECK FAILED {e}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sparseview", "cli.py")):
        print(f"error: no sparseview sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        report(records[-1])
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["errors"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
