"""Per-batch sampling cost against scene size (the ROADMAP scaling table).

    python3 bench/scaling.py

Builds ring scenes of 12x12, 36x20, 60x30 and 100x50 views (clusters x
views per cluster; `inputs.landmark_scene` with complete covisibility
inside a cluster and one bridge to the next cluster, so 144 / 720 / 1 800 /
5 000 views), writes them as COLMAP text, loads them back and times on
each, in this process:

  * Louvain on the pruned graph,
  * per batch: B batches of the `sparse` preset (n=24, ncc=4) sampled from
    one prepared scene, divided by B.

Each timing is divided by the slowdown the reference loop (reference.py)
shows next to it, so times are seconds on the reference host (see README,
"Noise"). The sizes take turns within each of REPEATS repeats, and the
fastest scaled time of each is printed as a markdown table.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
from sparseview import community, recon_io, sampler  # noqa: E402

SIZES = [(12, 12, 20), (36, 20, 10), (60, 30, 6), (100, 50, 4)]  # clusters, views each, batches timed
SEED = 1
REPEATS = 3
REF_PASSES = 3  # reference passes right before and right after each timing


def scaled_seconds(fn) -> float:
    """Wall-clock time of fn() over the slowdown the reference loop shows
    around it (its fastest pass there over its nominal time)."""
    ref = [reference.sample("python") for _ in range(REF_PASSES)]
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    ref += [reference.sample("python") for _ in range(REF_PASSES)]
    return elapsed * reference.NOMINAL_S["python"] / min(ref)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        scenes = []
        for clusters, size, count in SIZES:
            scene_dir = os.path.join(work, f"ring-{clusters}x{size}")
            inputs.write_scene(inputs.landmark_scene(SEED, clusters, size, knn=size - 1, bridges=1), scene_dir)
            config = sampler.SamplingConfig(seed=SEED, preset=sampler.Preset.SPARSE)
            ctx = sampler.prepare_scene(recon_io.load_scene_dir(scene_dir), config)
            seeds = [sampler.derive_seed(config.seed, "batch", i) for i in range(count)]
            scenes.append((ctx, config, seeds))
    finally:
        shutil.rmtree(work)
    louvain_s = [math.inf] * len(scenes)
    batch_s = [math.inf] * len(scenes)
    for _ in range(REPEATS):
        for i, (ctx, config, seeds) in enumerate(scenes):
            louvain_seed = sampler.derive_seed(config.seed, "louvain")
            louvain_s[i] = min(louvain_s[i], scaled_seconds(lambda: community.louvain(ctx.pruned, louvain_seed)))
            # generate_batches' batch loop, without its prepare_scene
            batches = scaled_seconds(lambda: [sampler._sample_one(ctx, config, s) for s in seeds])
            batch_s[i] = min(batch_s[i], batches / len(seeds))
    print("| views / pruned edges | Louvain | per batch |")
    print("|---|---|---|")
    for (ctx, _, _), lv, pb in zip(scenes, louvain_s, batch_s):
        print(f"| {ctx.pruned.node_count:,} / {ctx.pruned.edge_count:,} | {lv * 1e3:.0f} ms "
              f"| {pb * 1e3:.1f} ms |".replace(",", " "))
    return 0


if __name__ == "__main__":
    sys.exit(main())
