"""Pins the bytes the graph subcommands write: `sample` under every preset
and weight mode, `communities` and `partition`, on a seeded ring scene and on
the same scene with its view ids spread out (v -> 7 v + 10**9), so gaps
between ids and ids far from 0 cannot change what is written."""

import dataclasses
import hashlib

import pytest

from sparseview import synth
from sparseview.cli import run
from sparseview.recon_io import SceneReconstruction, ScenePoint, write_reconstruction


def spread_ids(scene: SceneReconstruction, f) -> SceneReconstruction:
    """The scene with every view id v renamed f(v); f must be increasing."""
    return SceneReconstruction(
        scene_id=scene.scene_id,
        intrinsics=scene.intrinsics,
        views={f(v): dataclasses.replace(view, view_id=f(v)) for v, view in scene.views.items()},
        edges={(f(a), f(b)): w for (a, b), w in scene.edges.items()},
        points=[ScenePoint(p.point_id, p.xyz, tuple(map(f, p.track))) for p in scene.points],
    )


SPEC = synth.SynthSpec(cluster_count=8, cluster_size=6, noise_sigma=0.05, seed=3)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    ring = synth.gen_ring_scene(SPEC)
    out = {"ring": root / "a" / "scene", "spread": root / "b" / "scene"}
    write_reconstruction(ring, str(out["ring"]))
    write_reconstruction(spread_ids(ring, lambda v: 7 * v + 10**9), str(out["spread"]))
    return out


# (argv after --scene, or None for the subcommands that write to stdout)
CALLS = [
    *(["sample", "--preset", p, "--weight-mode", m]
      for p in ("dense", "sparse", "mixed") for m in ("unit-hop", "inverse-match")),
    ["sample", "--preset", "random"],  # random reads no --weight-mode
    ["sample", "--ncc", "3", "--depth", "4", "--weight-mode", "inverse-match"],
    ["communities", "--seed", "5"],
    ["communities", "--seed", "2", "--resolution", "0.5"],
    ["partition", "--ncc", "3", "--seed", "4"],
    ["partition", "--ncc", "1", "--seed", "0"],
]

# sha256 over the written bytes of every CALLS entry, per scene
GOLDEN = {
    "ring": "508028954f129f56d5eaa8301a754418aad094027bf216b1d5ce62930e266047",
    "spread": "d9d6577a116c8a93359ba73395c85909197508a220f1ff5ff91047887174a939",
}


def _digest(scene_dir, tmp_path) -> str:
    h = hashlib.sha256()
    for i, (cmd, *flags) in enumerate(CALLS):
        out = tmp_path / f"out{i}"
        argv = [cmd, "--scene", str(scene_dir), *flags, "--out", str(out), "--quiet"]
        if cmd == "sample":
            argv += ["--n", "10", "--batches", "3", "--seed", "7"]
        assert run(argv) == 0, argv
        h.update(out.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("which", sorted(GOLDEN))
def test_graph_subcommand_bytes_are_pinned(scenes, tmp_path, which):
    assert _digest(scenes[which], tmp_path) == GOLDEN[which]


def test_spread_ids_change_only_the_ids(scenes, tmp_path):
    """The spread scene's communities and partition are the ring's with each
    id mapped through the same function."""
    f = {str(v): str(7 * v + 10**9) for v in range(1, SPEC.cluster_count * SPEC.cluster_size + 1)}
    for flags in (["communities", "--seed", "5"], ["partition", "--ncc", "3", "--seed", "4"]):
        lines = {}
        for which in ("ring", "spread"):
            out = tmp_path / f"{which}.txt"
            assert run([flags[0], "--scene", str(scenes[which]), *flags[1:], "--out", str(out), "--quiet"]) == 0
            lines[which] = out.read_text().splitlines()
        mapped = [f"{f[v]} {label}" for v, label in (line.split() for line in lines["ring"])]
        assert mapped == lines["spread"]
