"""One workload process: set-up, then timed rounds of real CLI calls.

    python3 bench/worker.py PLAN T0 RESULT setup|plain|trace|peak

PLAN is the JSON plan run.py wrote; T0 is the time.monotonic() reading the
parent took just before starting this process, so set-up time includes
interpreter start-up. Set-up is importing sparseview and, on scene
workloads, load_scene_dir + build_graph + prune_edges + louvain.

`setup` stops there. `plain` and `trace` then repeat whole rounds of
`sparseview.cli.run(argv)` calls until the plan's seconds have passed. Each
call is timed on its own, with passes of the reference loop (reference.py)
right before and after it; work the benchmark does between calls (pose
files, digests) is not timed. `peak` runs one round with no reference
passes and reports the process's peak resident memory, which is then the
program's alone.

Only the standard library is imported before set-up ends, so set-up time
is the program's.
"""

import json
import os
import resource
import sys
import time

SETUP_REFERENCE_PASSES = 5


def setup(plan: dict) -> None:
    sys.path.insert(0, plan["src"])
    import sparseview.cli  # noqa: F401  (the CLI and everything it imports)

    here = os.path.realpath(sparseview.cli.__file__)
    if not here.startswith(os.path.realpath(plan["src"]) + os.sep):
        raise SystemExit(f"sparseview imported from {here}, not from {plan['src']}")
    if plan["scene"]:
        from sparseview import community, recon_io, view_graph
        from sparseview.sampler import derive_seed

        scene = recon_io.load_scene_dir(plan["scene"])
        graph = view_graph.prune_edges(view_graph.build_graph(scene), plan["prune_threshold"])
        community.louvain(graph, derive_seed(plan["cli_seed"], "louvain"))


def peak_rss_mib() -> float:
    """Peak resident memory of this process since it was exec'd. Linux's
    ru_maxrss would also count the parent's resident set at fork time."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_pose_files(step: dict, quats, trans) -> None:
    import inputs

    with open(step["batches"]) as f:
        records = [json.loads(line) for line in f if line.strip()]
    for b, rec in enumerate(records):
        inputs.write_pose_files(
            quats, trans, rec["views"], step["seed"], b,
            os.path.join(step["dir"], f"gt_{b}.txt"), os.path.join(step["dir"], f"pred_{b}.txt"),
        )


def run_rounds(plan: dict, mode: str) -> dict:
    import numpy as np

    import inputs
    from sparseview import cli

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if mode != "peak":
        import reference

    def take_reference(ref_s: list) -> None:
        if mode != "peak":
            ref_s.append(min(reference.sample(plan["reference"]) for _ in range(plan["ref_passes"])))

    poses = np.load(plan["poses"]) if plan["poses"] else None
    rounds = []
    poses_for = None
    start = time.monotonic()
    while True:
        if tracer:
            tracer.start_round()
        # reference passes open the round and follow every call
        call_s, codes, ref_s = [], [], []
        take_reference(ref_s)
        for step in plan["steps"]:
            if "argv" in step:
                t = time.perf_counter()
                code = cli.run(step["argv"])
                call_s.append(time.perf_counter() - t)
                codes.append(code)
                take_reference(ref_s)
                if code != 0:
                    break
            elif inputs.digest_files([step["batches"]]) != poses_for:
                write_pose_files(step, poses["quats"], poses["trans"])
                poses_for = inputs.digest_files([step["batches"]])
        ok = all(c == 0 for c in codes) and len(codes) == plan["calls_per_round"]
        rounds.append({
            "call_s": call_s,
            "ref_s": ref_s,
            "codes": codes,
            "digest": inputs.digest_files(plan["outputs"]) if ok else None,
        })
        if mode == "peak" or time.monotonic() - start >= plan["seconds"]:
            break
    out = {"rounds": rounds, "peak_rss_mib": peak_rss_mib()}
    if tracer:
        tracer.dump(plan["spans_path"])
        out["trace"] = {"per_round": tracer.per_round(), "missing": tracer.missing}
    return out


def main() -> None:
    plan_path, t0, result_path, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4]
    with open(plan_path) as f:
        plan = json.load(f)
    setup(plan)
    result = {"setup_s": time.monotonic() - t0}
    sys.path.insert(0, plan["bench"])
    if mode != "peak":
        import reference

        result["setup_ref_s"] = [reference.sample(plan["reference"]) for _ in range(SETUP_REFERENCE_PASSES)]
    if mode != "setup":
        result.update(run_rounds(plan, mode))
    with open(result_path + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(result_path + ".tmp", result_path)


if __name__ == "__main__":
    main()
