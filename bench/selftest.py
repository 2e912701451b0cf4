"""Checker self-test: every check must pass real output and reject a
corrupted copy of it.

    python3 bench/selftest.py

Runs the real CLI on small seeded inputs, checks the outputs, then feeds
each checker one output corrupted in the way that checker exists to catch
and expects an error that names it. Exits 1 if any check passes a
corruption or fails a real output.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from sparseview import cli  # noqa: E402

SEED = 11
failures: list[str] = []


def expect(name: str, errors: list[str], corrupted: bool = True) -> None:
    hit = any(e.startswith(name) for e in errors)
    if corrupted and not hit:
        failures.append(f"{name}: corrupted output passed ({errors[:3]})")
    elif not corrupted and errors:
        failures.append(f"{name}: real output failed: {errors[:3]}")
    print(f"{'PASS' if hit == corrupted else 'FAIL'} {name}{'' if corrupted else ' (real output)'}")


def cli_ok(argv: list[str]) -> None:
    if cli.run([*argv, "--quiet"]) != 0:
        raise SystemExit(f"sparseview {' '.join(argv)} failed")


def lines(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def independent_views(truth: checks.SceneTruth, count: int) -> list[int]:
    picked: list[int] = []
    for v in range(1, truth.n + 1):
        if all(u not in picked for u in truth.neighbours[v]):
            picked.append(v)
        if len(picked) == count:
            break
    return picked


def batch_checks(work: str) -> None:
    scene = inputs.landmark_scene(SEED, clusters=4, per_cluster=40, knn=8)
    scene_dir = os.path.join(work, scene.scene_id)
    inputs.write_scene(scene, scene_dir)
    truth = checks.SceneTruth(scene)
    out = os.path.join(work, "batches.jsonl")
    cli_ok(["sample", "--scene", scene_dir, "--preset", "sparse", "--n", "24", "--batches", "4",
            "--seed", str(SEED), "--out", out])
    with open(out) as f:
        text = f.read()
    errors, truncated, records = checks.check_batches(text, truth, "sparse", 24, 4)
    expect("batches", errors + [f"batches: {truncated} truncated"] * bool(truncated), corrupted=False)

    def corrupt(edit) -> tuple[list[str], int]:
        recs = json.loads(json.dumps(records))
        edit(recs)
        errs, trunc, _ = checks.check_batches(lines(recs), truth, "sparse", 24, len(recs))
        return errs, trunc

    def scatter(recs):
        views = independent_views(truth, 8)
        recs[0]["views"], recs[0]["provenance"] = views, recs[0]["provenance"][: len(views)]
    expect("component_bound", corrupt(scatter)[0])

    def split_partition(recs):
        rec = recs[0]
        part = rec["provenance"][0]["partition"]
        members = [v for v, p in zip(rec["views"], rec["provenance"]) if p["partition"] == part]
        far = next(v for v in range(truth.n, 0, -1)
                   if v not in rec["views"] and not set(truth.neighbours[v]) & set(members))
        rec["views"][0] = far
    expect("partition_connected", corrupt(split_partition)[0])

    def shallow(recs):
        recs[0]["config"]["search_depth"] = 1
    expect("search_depth", corrupt(shallow)[0])

    def repeat_view(recs):
        recs[0]["views"][1] = recs[0]["views"][0]
    expect("views_distinct_in_scene", corrupt(repeat_view)[0])

    def foreign_view(recs):
        recs[0]["views"][1] = truth.n + 7
    expect("views_distinct_in_scene", corrupt(foreign_view)[0])

    def relabel(recs):
        copy = json.loads(json.dumps(recs[0]))
        copy["provenance"][0]["community"] += 1000
        recs.append(copy)
    expect("community_consistent", corrupt(relabel)[0])

    def truncate(recs):
        recs[0]["truncated"] = True
    trunc = corrupt(truncate)[1]
    expect("not_truncated", ["not_truncated: counted as failed"] if trunc == 1 else [])


def coverage_and_pose_checks(work: str) -> None:
    scene = inputs.grid_scene(SEED, side=16)
    scene_dir = os.path.join(work, scene.scene_id)
    inputs.write_scene(scene, scene_dir)
    truth = checks.SceneTruth(scene)
    batches, coverage = os.path.join(work, "grid.jsonl"), os.path.join(work, "coverage.txt")
    cli_ok(["sample", "--scene", scene_dir, "--preset", "mixed", "--n", "24", "--batches", "3",
            "--seed", str(SEED), "--out", batches])
    cli_ok(["coverage", "--scene", scene_dir, "--batches", batches, "--k", "2", "--out", coverage])
    with open(batches) as f:
        errors, _, records = checks.check_batches(f.read(), truth, "mixed", 24, 3)
    with open(coverage) as f:
        cov_text = f.read()
    expect("coverage", errors + checks.check_coverage(cov_text, records, truth, 2), corrupted=False)
    first = cov_text.splitlines()[0].split()
    i = first.index("avg_nearest") + 1
    first[i] = repr(float(first[i]) * (1 + 1e-6))
    bad = "\n".join([" ".join(first), *cov_text.splitlines()[1:]]) + "\n"
    expect("coverage", checks.check_coverage(bad, records, truth, 2))

    gt, pred, pose = (os.path.join(work, n) for n in ("gt.txt", "pred.txt", "pose.txt"))
    inputs.write_pose_files(scene.quats, scene.trans, records[0]["views"], SEED, 0, gt, pred)
    cli_ok(["pose-eval", "--pred", pred, "--gt", gt, "--out", pose])
    with open(pose) as f:
        pose_text = f.read()
    expect("pose_eval", checks.check_pose(pose_text, records[0]["views"], truth, SEED, 0), corrupted=False)
    bad = "".join(
        f"mre {float(line.split()[1]) + 1e-3!r}\n" if line.startswith("mre ") else line + "\n"
        for line in pose_text.splitlines())
    expect("pose_eval", checks.check_pose(bad, records[0]["views"], truth, SEED, 0))
    # the same poses evaluated against the wrong planted view must fail too
    expect("pose_eval", checks.check_pose(pose_text, records[0]["views"], truth, SEED, 1))


def filter_checks(work: str) -> None:
    pair = inputs.depth_pair(SEED, 0, w=256, h=160)
    geom, mono, out, report = (os.path.join(work, n) for n in ("g.pfm", "m.pfm", "f.pfm", "r.json"))
    inputs.write_pfm(geom, pair.geom)
    inputs.write_pfm(mono, pair.mono)
    cli_ok(["filter-depth", "--geom", geom, "--mono", mono, "--out", out, "--report", report])
    filtered = inputs.read_pfm(out)
    with open(report) as f:
        report_text = f.read()

    def run_check(values=filtered, text=report_text) -> list[str]:
        return checks.check_filtered(values, pair.geom, pair.mono, pair.blob, pair.hole, text)

    expect("filtered", run_check(), corrupted=False)
    valid = pair.geom > 0
    near_blob = checks._dilate(pair.blob)

    def edited(mask, value):
        out_copy = filtered.copy()
        r, c = np.argwhere(mask)[0]
        out_copy[r, c] = pair.geom[r, c] if value is None else value
        return out_copy

    expect("blob_removed", run_check(edited(pair.blob & valid, None)))
    expect("nothing_far_removed", run_check(edited(valid & ~near_blob & ~pair.hole, 0.0)))
    expect("holes_zero", run_check(edited(pair.hole, 1.0)))
    kept = filtered != 0
    r, c = np.argwhere(kept)[0]
    flipped = filtered.copy()
    flipped[r, c] = np.nextafter(flipped[r, c], np.float32(np.inf))
    expect("survivor_bits", run_check(flipped))
    rep = json.loads(report_text)
    rep["kept"] += 1
    expect("report_counts", run_check(text=json.dumps(rep)))


def trace_checks() -> None:
    workload = "filter-depth-1080p"
    calls = {name: {"s": 0.1, "self_s": 0.1, "calls": 1} for name in run.EXPECTED_SPANS[workload]}
    expect("trace_calls", ["trace_calls"] * bool(run.zero_call_spans(workload, {"per_round": [calls]})),
           corrupted=False)
    calls["depth_filter.gradient_discrepancy"]["calls"] = 0
    missing = run.zero_call_spans(workload, {"per_round": [calls]})
    expect("trace_calls", ["trace_calls"] if missing == ["depth_filter.gradient_discrepancy"] else [])


def main() -> int:
    out_root = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as work:
        batch_checks(work)
        coverage_and_pose_checks(work)
        filter_checks(work)
    trace_checks()
    for f in failures:
        print("FAILED", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
