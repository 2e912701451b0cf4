"""What importing the package and running each subcommand loads.

`import sparseview` loads no submodule: each public name imports its owner
on first use (PEP 562). `sparseview.cli` imports only `errors`, and each
subcommand loads its own modules when it runs. Every check runs in a fresh
interpreter, whose `sys.modules` this process cannot touch. Only the
subcommands that compute with numpy, and the depth half's modules, need it.
No import crosses between the graph half of the toolkit and its depth half.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import sparseview
from conftest import CHILD_ENV
from sparseview.cli import run

# every public name of the package -> the submodule that owns it
PUBLIC = {
    "BatchConfig": "batches",
    "Phase": "batches",
    "SampledBatch": "batches",
    "ViewProvenance": "batches",
    "read_batches": "batches",
    "write_batches": "batches",
    "CommunityAssignment": "community",
    "louvain": "community",
    "modularity": "community",
    "DepthMap": "depth_filter",
    "FilterConfig": "depth_filter",
    "FilterReport": "depth_filter",
    "filter_depth": "depth_filter",
    "AzimuthCoverage": "metrics",
    "DispersionResult": "metrics",
    "PosePairErrors": "metrics",
    "avg_nearest_sample_dist": "metrics",
    "azimuth_coverage": "metrics",
    "dispersion": "metrics",
    "k_hop_coverage": "metrics",
    "pose_pair_errors": "metrics",
    "partition_round_robin": "partition",
    "read_pfm": "pfm",
    "write_pfm": "pfm",
    "CameraIntrinsics": "recon_io",
    "CameraModel": "recon_io",
    "PosedView": "recon_io",
    "SceneReconstruction": "recon_io",
    "ScenePoint": "recon_io",
    "load_scene_dir": "recon_io",
    "parse_match_graph": "recon_io",
    "write_reconstruction": "recon_io",
    "Preset": "sampler",
    "SamplingConfig": "sampler",
    "dfs_subsample": "sampler",
    "generate_batches": "sampler",
    "greedy_step": "sampler",
    "sample_partition": "sampler",
    "SteinerResult": "steiner",
    "WeightMode": "steiner",
    "approximate_steiner_tree": "steiner",
    "select_terminals": "steiner",
    "SynthSpec": "synth",
    "gen_depth_fixture": "synth",
    "gen_grid_scene": "synth",
    "gen_ring_scene": "synth",
    "GraphStatsReport": "view_graph",
    "ViewGraph": "view_graph",
    "build_graph": "view_graph",
    "compute_stats": "view_graph",
    "connected_components": "view_graph",
    "prune_edges": "view_graph",
    "subgraph": "view_graph",
}


def _child(script: str, *argv: str) -> list[str]:
    """The stdout lines of `script` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().splitlines()


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('sparseview'))))\n"


def test_public_names_are_the_owners_objects():
    assert sorted(sparseview.__all__) == sorted(PUBLIC)
    assert len(set(sparseview.__all__)) == len(sparseview.__all__)
    assert not hasattr(sparseview, "no_such_name")
    # the depth half's names last, as they need numpy
    for name, owner in sorted(PUBLIC.items(), key=lambda item: item[1] in DEPTH_HALF):
        if owner in DEPTH_HALF:
            pytest.importorskip("numpy")
        assert getattr(sparseview, name) is getattr(importlib.import_module(f"sparseview.{owner}"), name)


def test_star_import_binds_every_public_name():
    pytest.importorskip("numpy")  # the star import loads the depth half too
    script = "from sparseview import *\nprint(' '.join(sorted(k for k in dir() if not k.startswith('_'))))\n"
    assert _child(script) == [" ".join(sorted(PUBLIC))]


def test_dir_lists_every_public_name_before_any_is_used():
    script = "import sparseview\nprint(' '.join(sorted(dir(sparseview))))\n"
    assert set(PUBLIC) <= set(_child(script)[0].split())


def test_a_submodule_is_still_imported_from_the_package():
    script = "from sparseview import community\nprint(type(community).__name__, community.__name__)\n"
    assert _child(script) == ["module sparseview.community"]


def test_import_sparseview_loads_no_submodule():
    assert _child("import sys, sparseview\n" + LOADED) == ["sparseview"]


def test_import_cli_loads_only_errors():
    assert _child("import sys, sparseview.cli\n" + LOADED) == [
        "sparseview sparseview.cli sparseview.errors"
    ]


def test_cli_has_no_unknown_attribute():
    from sparseview import cli

    assert not hasattr(cli, "no_such_name")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A ring scene with points and a batches file over it, both written
    without numpy."""
    root = tmp_path_factory.mktemp("inputs")
    ring, batches = root / "ring", root / "batches.jsonl"
    assert run(["synth", "--kind", "ring", "--noise", "0.05", "--seed", "3",
                "--out", str(ring), "--quiet"]) == 0
    assert run(["sample", "--scene", str(ring), "--n", "6", "--out", str(batches), "--quiet"]) == 0
    return {"ring": str(ring), "batches": str(batches)}


BASE = {"cli", "errors"}
# what `sampler` imports, which every subcommand that samples or runs Louvain loads
SAMPLER = BASE | {"batches", "community", "partition", "recon_io", "sampler", "steiner", "view_graph"}
# what a subcommand that prunes and measures the graph, but samples nothing, loads
GRAPH = BASE | {"recon_io", "view_graph", "metrics"}

# subcommand case -> (argv, the sparseview modules loaded once it has run).
# filter-depth loads none of the graph code, the graph subcommands and
# synth ring none of the depth code, sample neither metrics nor synth, and
# stats and coverage none of the sampler.
SUBCOMMANDS = {
    "parse": (["parse", "--scene", "{ring}", "--out", "{tmp}/o.txt"], BASE | {"recon_io"}),
    "stats": (["stats", "--scene", "{ring}", "--out", "{tmp}/o.txt"], GRAPH),
    "communities": (["communities", "--scene", "{ring}", "--out", "{tmp}/o.txt"], SAMPLER),
    "partition": (["partition", "--scene", "{ring}", "--ncc", "2", "--out", "{tmp}/o.txt"], SAMPLER),
    "sample": (["sample", "--scene", "{ring}", "--n", "6", "--batches", "2", "--out", "{tmp}/b.jsonl"],
               SAMPLER),
    "coverage": (["coverage", "--scene", "{ring}", "--batches", "{batches}", "--out", "{tmp}/o.txt"],
                 GRAPH | {"batches"}),
    "filter-depth": (["filter-depth", "--geom", "{fix}/geom.pfm", "--mono", "{fix}/mono.pfm",
                      "--out", "{tmp}/f.pfm", "--report", "{tmp}/r.json"],
                     BASE | {"depth_filter", "pfm"}),
    "pose-eval": (["pose-eval", "--pred", "{ring}/images.txt", "--gt", "{ring}/images.txt",
                   "--out", "{tmp}/o.txt"], BASE | {"metrics", "recon_io", "view_graph"}),
    "synth-ring": (["synth", "--kind", "ring", "--out", "{tmp}/synth"], BASE | {"recon_io", "synth"}),
    "synth-depth": (["synth", "--kind", "depth", "--out", "{tmp}/synth"],
                    BASE | {"depth_filter", "pfm", "recon_io", "synth"}),
}
NEEDS_NUMPY = {"coverage", "filter-depth", "pose-eval", "synth-depth"}


@pytest.mark.parametrize("case", sorted(SUBCOMMANDS))
def test_a_subcommand_loads_only_its_own_modules(inputs, tmp_path, case):
    if case in NEEDS_NUMPY:
        pytest.importorskip("numpy")
    paths = {**inputs, "tmp": str(tmp_path)}
    if case == "filter-depth":
        paths["fix"] = str(tmp_path / "fix")
        assert run(["synth", "--kind", "depth", "--seed", "5", "--out", paths["fix"], "--quiet"]) == 0
    argv, loaded = SUBCOMMANDS[case]
    script = "import sys, sparseview.cli\nprint(sparseview.cli.run(sys.argv[1:]))\n" + LOADED
    lines = _child(script, *[a.format(**paths) for a in argv], "--quiet")
    assert lines == ["0", " ".join(sorted({"sparseview"} | {f"sparseview.{m}" for m in loaded}))]


def test_import_sampler_loads_no_depth_module():
    loaded = SAMPLER - {"cli"}
    assert _child("import sys, sparseview.sampler\n" + LOADED) == [
        " ".join(sorted({"sparseview"} | {f"sparseview.{m}" for m in loaded}))
    ]


# the modules that sample views from a scene's view graph, and those that
# clean depth maps; cli runs both, and synth writes inputs for both
GRAPH_HALF = {"batches", "community", "metrics", "partition", "recon_io", "sampler", "steiner",
              "view_graph"}
DEPTH_HALF = {"depth_filter", "pfm"}
SHARED = {"__init__", "cli", "errors", "synth"}
PACKAGE_DIR = os.path.dirname(sparseview.__file__)


def _package_imports(source: str) -> set[str]:
    """What `source`, a module of the package, imports from the package
    anywhere in it: the submodules, and the names the package itself defines."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from .x import y` imports x; `from . import y` imports y
            base = f"sparseview.{node.module or ''}".rstrip(".") if node.level else node.module
            names = [f"{base}.{a.name}" for a in node.names] if base == "sparseview" else [base]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("sparseview.")}
    return found


def test_the_import_walk_finds_every_form():
    source = ("import os\nfrom . import a, b\nfrom .c import x\nimport sparseview.d\n"
              "from sparseview.e import x\ndef f():\n    from sparseview import g\n")
    assert _package_imports(source) == {"a", "b", "c", "d", "e", "g"}


def test_no_import_crosses_between_the_graph_and_depth_halves():
    files = {name.removesuffix(".py") for name in os.listdir(PACKAGE_DIR) if name.endswith(".py")}
    assert GRAPH_HALF | DEPTH_HALF | SHARED == files
    for half, other in ((GRAPH_HALF, DEPTH_HALF), (DEPTH_HALF, GRAPH_HALF)):
        for module in sorted(half):
            with open(os.path.join(PACKAGE_DIR, f"{module}.py")) as f:
                crossing = _package_imports(f.read()) & other
            assert not crossing, f"{module} imports {sorted(crossing)}"
