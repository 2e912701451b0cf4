import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import CHILD_ENV, disconnected_pair
from sparseview import cli, sampler
from sparseview.batches import read_batches
from sparseview.cli import run
from sparseview.community import louvain
from sparseview.depth_filter import DepthMap
from sparseview.pfm import write_pfm
from sparseview.recon_io import load_scene_dir
from sparseview.view_graph import build_graph, prune_edges
from test_bench_spans import SPANS
from test_sampler import keep_whole_tree


@pytest.fixture
def ring_dir(tmp_path):
    out = tmp_path / "ring"
    code = run(
        ["synth", "--kind", "ring", "--clusters", "6", "--cluster-size", "5",
         "--noise", "0.05", "--seed", "3", "--out", str(out), "--quiet"]
    )
    assert code == 0
    return out


def read(path):
    return path.read_bytes()


class TestExitCodes:
    def test_missing_required_flag_names_it(self, capsys):
        code = run(["filter-depth", "--geom", "x.pfm"])
        assert code == 1
        assert "--mono" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = run(["parse", "--scene", str(tmp_path / "nope")])
        assert code == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["sample", "--help"]) == 0

    def test_invalid_ncc_is_input_error(self, ring_dir, capsys):
        code = run(["partition", "--scene", str(ring_dir), "--ncc", "0"])
        assert code == 1

    def test_synth_without_out_names_it(self, capsys):
        assert run(["synth", "--kind", "grid"]) == 1
        assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A ring scene, a depth fixture and a batch file, for argv templates."""
    root = tmp_path_factory.mktemp("inputs")
    ring, fix, batches = root / "ring", root / "fix", root / "batches.jsonl"
    assert run(["synth", "--kind", "ring", "--noise", "0.05", "--seed", "3",
                "--out", str(ring), "--quiet"]) == 0
    assert run(["synth", "--kind", "depth", "--seed", "5", "--out", str(fix), "--quiet"]) == 0
    assert run(["sample", "--scene", str(ring), "--n", "6", "--out", str(batches), "--quiet"]) == 0
    return {"ring": str(ring), "fix": str(fix), "batches": str(batches)}


# one valid call per subcommand; a case below appends one bad flag to it
VALID_ARGV = {
    "parse": ["parse", "--scene", "{ring}"],
    "stats": ["stats", "--scene", "{ring}"],
    "communities": ["communities", "--scene", "{ring}"],
    "partition": ["partition", "--scene", "{ring}", "--ncc", "2"],
    "sample": ["sample", "--scene", "{ring}", "--n", "6", "--out", "{tmp}/b.jsonl"],
    "coverage": ["coverage", "--scene", "{ring}", "--batches", "{batches}"],
    "filter-depth": ["filter-depth", "--geom", "{fix}/geom.pfm", "--mono", "{fix}/mono.pfm",
                     "--out", "{tmp}/f.pfm"],
    "pose-eval": ["pose-eval", "--pred", "{ring}/images.txt", "--gt", "{ring}/images.txt"],
    "synth": ["synth", "--out", "{tmp}/synth"],
}

# (subcommand, bad flag and value, text the error message must contain)
BAD_FLAGS = [
    ("sample", ["--n", "1"], "n_views"),
    ("sample", ["--ncc", "0"], "max_components"),
    ("sample", ["--n", "4", "--ncc", "5"], "max_components"),
    ("sample", ["--depth", "0"], "search_depth"),
    ("sample", ["--batches", "-3"], "--batches"),
    ("stats", ["--prune-threshold", "-1"], "--prune-threshold"),
    ("coverage", ["--k", "-1"], "--k"),
    ("filter-depth", ["--tau-depth", "-1"], "--tau-depth"),
    ("filter-depth", ["--tau-grad", "nan"], "--tau-grad"),
    ("filter-depth", ["--tau-depth", "inf"], "--tau-depth"),
    ("filter-depth", ["--tau-grad", "inf"], "--tau-grad"),
    ("pose-eval", ["--thresholds", "5,x"], "--thresholds"),
    ("pose-eval", ["--thresholds", "5.0"], "must be whole degrees, got '5.0'"),
    ("pose-eval", ["--thresholds", "5,a"], "must be whole degrees, got '5,a'"),
    ("pose-eval", ["--thresholds", "0"], "--thresholds"),
    ("pose-eval", ["--thresholds", ""], "--thresholds"),
    ("pose-eval", ["--thresholds", ","], "--thresholds"),
    ("pose-eval", ["--thresholds", "5,5"], "--thresholds"),
    ("pose-eval", ["--thresholds", "5,,10"], "--thresholds"),
    ("pose-eval", ["--thresholds", "5,"], "--thresholds"),
    ("pose-eval", ["--thresholds", "181"], "--thresholds"),
    ("pose-eval", ["--thresholds", "1000000"], "--thresholds"),
    ("communities", ["--resolution", "nan"], "--resolution"),
    ("communities", ["--resolution", "-1"], "--resolution"),
    ("communities", ["--resolution", "inf"], "--resolution"),
    ("synth", ["--radius", "nan"], "radius"),
    ("synth", ["--radius", "inf"], "radius"),
    ("synth", ["--radius", "0"], "radius"),
    ("synth", ["--noise", "nan"], "noise_sigma"),
    ("synth", ["--noise", "-0.1"], "noise_sigma"),
    ("synth", ["--inter", "-5"], "inter_weight"),
    ("synth", ["--intra", "-1"], "intra_weight must be >= 0"),
    ("synth", ["--intra", "10"], "intra_weight must be >= inter_weight"),
    ("synth", ["--intra", str(2**63)], "intra_weight must be below 2**63"),
    ("synth", ["--inter", str(2**63)], "inter_weight must be below 2**63"),
    # a flag its kind never reads
    ("synth", ["--kind", "grid", "--cluster-size", "0"], "--cluster-size"),
    ("synth", ["--kind", "grid", "--inter", "7"], "--inter"),
    ("synth", ["--kind", "depth", "--clusters", "0"], "--clusters"),
    ("synth", ["--kind", "depth", "--radius", "5", "--noise", "3"], "--radius, --noise"),
    *[(cmd, ["--threads", "2"], "--threads") for cmd in VALID_ARGV],
    *[(cmd, ["--seed", "1"], "--seed")
      for cmd in ("parse", "stats", "coverage", "pose-eval", "filter-depth")],
    ("sample", ["--preset", "dense", "--ncc", "3"], "max_components"),
    ("sample", ["--preset", "sparse", "--depth", "2"], "search_depth"),
    ("sample", ["--preset", "random", "--ncc", "2"], "max_components"),
    # random runs no Steiner search
    ("sample", ["--preset", "random", "--weight-mode", "inverse-match"], "--weight-mode"),
]


@pytest.mark.parametrize(
    "cmd,bad,names", BAD_FLAGS, ids=[f"{c}{''.join(b)}" for c, b, _ in BAD_FLAGS]
)
def test_bad_flag_exits_1_and_names_it(inputs, tmp_path, capsys, cmd, bad, names):
    argv = [a.format(tmp=tmp_path, **inputs) for a in VALID_ARGV[cmd]] + ["--quiet"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + bad) == 1
    err = capsys.readouterr().err
    assert names in err
    assert "invalid _" not in err  # argparse names a type function that raised ValueError
    assert "internal" not in err


def test_synth_grid_takes_an_intra_below_the_ring_bridges(tmp_path):
    # grid reads no inter_weight, so no --intra is below it
    out = tmp_path / "grid"
    assert run(["synth", "--kind", "grid", "--intra", "10", "--out", str(out), "--quiet"]) == 0
    assert set(load_scene_dir(str(out)).edges.values()) == {10}


@pytest.mark.parametrize("seed", ["0", "1"])
def test_communities_prints_the_labels_sample_records(tmp_path, seed):
    """`communities` and `sample` share one prune -> Louvain set-up, so each
    view a batch records carries the label `communities` prints at its seed."""
    grid, batches, labels = tmp_path / "grid", tmp_path / "b.jsonl", tmp_path / "labels.txt"
    assert run(["synth", "--kind", "grid", "--clusters", "20", "--out", str(grid), "--quiet"]) == 0
    assert run(["sample", "--scene", str(grid), "--preset", "sparse", "--n", "24", "--batches",
                "2", "--seed", seed, "--out", str(batches), "--quiet"]) == 0
    assert run(["communities", "--scene", str(grid), "--seed", seed, "--out", str(labels),
                "--quiet"]) == 0
    label_of = dict(map(int, line.split()) for line in labels.read_text().splitlines())
    recorded = [(v, p.community) for b in read_batches(str(batches))
                for v, p in zip(b.views, b.provenance)]
    assert len(recorded) == 48
    assert [label_of[v] for v, _ in recorded] == [c for _, c in recorded]


def test_graph_outputs_do_not_depend_on_the_hash_seed(inputs, tmp_path):
    """`sample`, `partition`, `communities` and `coverage` write the same bytes
    under two PYTHONHASHSEED values, each in a child interpreter."""
    script = (
        "import json, sys, sparseview.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert sparseview.cli.run(argv) == 0, argv\n"
    )
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        argvs = [
            ["sample", "--scene", inputs["ring"], "--preset", "mixed", "--n", "8", "--batches",
             "3", "--seed", "2", "--out", str(out / "b.jsonl")],
            ["partition", "--scene", inputs["ring"], "--ncc", "3", "--seed", "2",
             "--out", str(out / "p.txt")],
            ["communities", "--scene", inputs["ring"], "--seed", "2", "--out", str(out / "c.txt")],
            ["coverage", "--scene", inputs["ring"], "--batches", str(out / "b.jsonl"),
             "--out", str(out / "cov.txt")],
        ]
        argvs = [argv + ["--quiet"] for argv in argvs]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, env={**CHILD_ENV, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


def test_sample_without_out_fails_before_sampling(inputs, monkeypatch, capsys):
    def no_sampling(*_):
        raise AssertionError("sampled before checking --out")

    monkeypatch.setattr(cli, "generate_batches", no_sampling)
    assert run(["sample", "--scene", inputs["ring"], "--n", "6", "--quiet"]) == 1
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_sample_checks_its_config_before_loading_the_scene(tmp_path, capsys):
    argv = ["sample", "--scene", str(tmp_path / "missing"), "--out", str(tmp_path / "b.jsonl"),
            "--preset", "dense", "--ncc", "3", "--quiet"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "max_components" in err and "missing" not in err


@pytest.mark.parametrize("cmd", ["parse", "stats"])
def test_nan_translation_exits_1_naming_file_and_line(inputs, tmp_path, capsys, cmd):
    scene = tmp_path / "scene"
    shutil.copytree(inputs["ring"], scene)
    lines = (scene / "images.txt").read_text().splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, 1) if not line.startswith("#"))
    toks = lines[line_no - 1].split()
    toks[5] = "nan"  # TX
    lines[line_no - 1] = " ".join(toks) + "\n"
    (scene / "images.txt").write_text("".join(lines))
    assert run([cmd, "--scene", str(scene), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"images.txt:{line_no}:" in err
    assert "internal" not in err


# (file, lines appended to it, message): each repeats an id, or joins a view to itself
DUPLICATES = [
    ("matches.txt", ["3 3 10"], "self-loop on view 3"),
    ("cameras.txt", ["1 SIMPLE_PINHOLE 640 480 500.0 320.0 240.0"], "duplicate camera id 1"),
    ("images.txt", ["1 1 0 0 0 0 0 0 1 again.jpg", ""], "duplicate view id 1"),
    ("points3D.txt", ["1 0 0 0 0 0 0 0 1 0"], "duplicate point id 1"),
]


@pytest.mark.parametrize("name,extra,reason", DUPLICATES, ids=[d[0] for d in DUPLICATES])
def test_duplicate_or_self_loop_exits_1_naming_file_and_line(inputs, tmp_path, capsys,
                                                             name, extra, reason):
    scene = tmp_path / "scene"
    shutil.copytree(inputs["ring"], scene)
    path = scene / name
    text = path.read_text()
    line_no = text.count("\n") + 1  # the first appended line
    path.write_text(text + "".join(line + "\n" for line in extra))
    assert run(["parse", "--scene", str(scene)]) == 1
    assert f"{path}:{line_no}: {reason}" in capsys.readouterr().err


# (file, line appended to it, message): each names an id no other file defines
DANGLING = [
    ("matches.txt", "1 999 100", "reference to unknown view id 999"),
    ("images.txt", "999 1 0 0 0 0 0 0 9 extra.jpg", "reference to unknown camera id 9"),
    ("points3D.txt", "999 0 0 0 0 0 0 0 1 0 999 0", "reference to unknown view id 999"),
]


@pytest.mark.parametrize("name,extra,reason", DANGLING, ids=[d[0] for d in DANGLING])
def test_dangling_reference_exits_1_naming_file_and_line(inputs, tmp_path, capsys,
                                                         name, extra, reason):
    scene = tmp_path / "scene"
    shutil.copytree(inputs["ring"], scene)
    path = scene / name
    text = path.read_text()
    line_no = text.count("\n") + 1
    path.write_text(text + extra + "\n")
    assert run(["parse", "--scene", str(scene)]) == 1
    assert f"error: {path}:{line_no}: {reason}" in capsys.readouterr().err


def test_negative_match_count_exits_1_naming_file_and_line(inputs, tmp_path, capsys):
    scene = tmp_path / "scene"
    shutil.copytree(inputs["ring"], scene)
    path = scene / "matches.txt"
    text = path.read_text()
    line_no = text.count("\n") + 1
    path.write_text(text + "1 2 -5\n")
    assert run(["parse", "--scene", str(scene)]) == 1
    assert f"error: {path}:{line_no}: negative match count" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["parse", "stats", "communities", "sample"])
def test_match_count_of_2_63_or_more_exits_1_naming_file_and_line(inputs, tmp_path, capsys, cmd):
    scene = tmp_path / "scene"
    shutil.copytree(inputs["ring"], scene)
    path = scene / "matches.txt"
    text = path.read_text()
    line_no = text.count("\n") + 1
    path.write_text(text + f"1 2 {10**400}\n")
    argv = [cmd, "--scene", str(scene), "--out", str(tmp_path / "out"), "--quiet"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {path}:{line_no}: match count {10**400} is not below 2**63" in err


def test_zero_match_pairs_are_no_edges(tmp_path):
    # the partitioner, the Steiner pre-check and the Dijkstra all skip a
    # zero-match pair, so sample cannot fail on a part it was handed
    ring = tmp_path / "ring"
    assert run(["synth", "--kind", "ring", "--clusters", "4", "--cluster-size", "5",
                "--inter", "0", "--seed", "2", "--out", str(ring), "--quiet"]) == 0
    assert run(["sample", "--scene", str(ring), "--n", "8", "--ncc", "1",
                "--prune-threshold", "0", "--weight-mode", "inverse-match", "--batches", "3",
                "--seed", "1", "--out", str(tmp_path / "b.jsonl"), "--quiet"]) == 0
    # a scene whose every match count is 0 has no edges: singleton communities
    flat = tmp_path / "flat"
    assert run(["synth", "--kind", "ring", "--intra", "0", "--inter", "0",
                "--out", str(flat), "--quiet"]) == 0
    out = tmp_path / "c.txt"
    assert run(["communities", "--scene", str(flat), "--prune-threshold", "0",
                "--out", str(out), "--quiet"]) == 0
    labels = [line.split()[1] for line in out.read_text().splitlines()]
    assert len(set(labels)) == len(labels) == 30


def test_coverage_of_a_view_outside_the_scene_exits_1(inputs, tmp_path, capsys):
    batches = tmp_path / "b.jsonl"
    with open(inputs["batches"]) as f:
        record = json.loads(f.readline())
    record["views"][0] = 999
    batches.write_text(json.dumps(record) + "\n")
    assert run(["coverage", "--scene", inputs["ring"], "--batches", str(batches)]) == 1
    assert f"error: {batches}: batch 0: unknown node 999" in capsys.readouterr().err


def test_coverage_of_a_one_view_batch_exits_1_naming_file_and_batch(tmp_path, capsys):
    # `sample` itself writes a one-view batch, flagged truncated, for a one-view scene
    one, batches, out = tmp_path / "one", tmp_path / "b.jsonl", tmp_path / "c.txt"
    assert run(["synth", "--kind", "ring", "--clusters", "1", "--cluster-size", "1",
                "--out", str(one), "--quiet"]) == 0
    assert run(["sample", "--scene", str(one), "--n", "2", "--out", str(batches), "--quiet"]) == 0
    assert [(b.views, b.truncated) for b in read_batches(str(batches))] == [([1], True)]
    assert run(["coverage", "--scene", str(one), "--batches", str(batches),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {batches}: batch 0: dispersion needs at least two samples" in err
    assert not out.exists()


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_coverage_of_a_file_with_no_batch_exits_1_naming_it(inputs, tmp_path, capsys, content):
    batches, out = tmp_path / "b.jsonl", tmp_path / "c.txt"
    batches.write_text(content)
    assert run(["coverage", "--scene", inputs["ring"], "--batches", str(batches),
                "--out", str(out)]) == 1
    assert f"error: {batches}: holds no batch" in capsys.readouterr().err
    assert not out.exists()


# synth arguments that put a camera where no look-at direction can be computed
UNPOSABLE = [
    ["--kind", "ring", "--clusters", "3", "--cluster-size", "2", "--noise", "1e308"],
    ["--kind", "ring", "--radius", "1e300"],
    ["--kind", "ring", "--radius", "1e-13"],
    ["--kind", "grid", "--clusters", "3", "--noise", "1e308"],
]


@pytest.mark.parametrize("flags", UNPOSABLE, ids=[" ".join(f[1::2]) for f in UNPOSABLE])
def test_synth_writes_no_pose_it_could_not_compute(tmp_path, capsys, flags):
    out = tmp_path / "scene"
    assert run(["synth", *flags, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: radius and noise_sigma put a camera at")
    assert "Warning" not in err
    assert not out.exists()


def test_pose_eval_missing_view_names_pred_file(inputs, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    with open(os.path.join(inputs["ring"], "images.txt")) as f:
        lines = f.read().splitlines(keepends=True)
    pred.write_text("".join(lines[:-2]))  # drop the last pose and its observation line
    assert run(["pose-eval", "--pred", str(pred), "--gt", f"{inputs['ring']}/images.txt"]) == 1
    err = capsys.readouterr().err
    assert f"{pred}: prediction missing view" in err


# (geometric map, prior, message): each pair fails filter_depth
BAD_PAIRS = [
    (np.ones((4, 4)), np.ones((3, 3)), "4x4 vs 3x3"),
    (np.ones((3, 3)), np.zeros((3, 3)), "no jointly valid pixels"),
    (np.ones((1, 4)), np.ones((1, 4)), "gradients need width and height >= 2"),
]


@pytest.mark.parametrize("geom,mono,reason", BAD_PAIRS, ids=["mismatch", "no-overlap", "too-small"])
def test_filter_depth_pair_error_names_both_files(tmp_path, capsys, geom, mono, reason):
    g, m = tmp_path / "g.pfm", tmp_path / "m.pfm"
    write_pfm(str(g), DepthMap(geom))
    write_pfm(str(m), DepthMap(mono))
    argv = ["filter-depth", "--geom", str(g), "--mono", str(m), "--out", str(tmp_path / "f.pfm")]
    assert run(argv) == 1
    assert f"error: {g}, {m}: {reason}" in capsys.readouterr().err


def test_component_bound_violation_exits_2_even_under_O(inputs, tmp_path, monkeypatch):
    argv = ["sample", "--scene", inputs["ring"], "--n", "2", "--ncc", "1",
            "--out", str(tmp_path / "b.jsonl"), "--quiet"]
    monkeypatch.setattr(sampler, "sample_partition", disconnected_pair)
    assert run(argv) == 2
    script = (
        "import sys; from sparseview import cli, sampler; import conftest\n"
        "if not sys.flags.optimize: sys.exit('not optimized')\n"
        "sampler.sample_partition = conftest.disconnected_pair; sys.exit(cli.run(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv], capture_output=True, env=CHILD_ENV
    )
    assert proc.returncode == 2, proc.stderr.decode()
    assert b"invariant violation" in proc.stderr


def test_component_bound_is_checked_on_random_batches(inputs, tmp_path, monkeypatch, capsys):
    # a count past any batch's size breaks random's bound of n_views
    def over_count(graph):
        return [[v] for v in range(graph.node_count)] + [[0]]

    monkeypatch.setattr(sampler, "connected_components", over_count)
    argv = ["sample", "--scene", inputs["ring"], "--preset", "random", "--n", "6",
            "--out", str(tmp_path / "b.jsonl"), "--quiet"]
    assert run(argv) == 2
    assert "invariant violation: sampled 7 components, bound is 6" in capsys.readouterr().err


def test_search_budget_violation_exits_2_even_under_O(inputs, tmp_path, monkeypatch):
    # with the Steiner tree kept whole, a part's search views exceed --depth 1
    argv = ["sample", "--scene", inputs["ring"], "--n", "6", "--depth", "1",
            "--out", str(tmp_path / "b.jsonl"), "--quiet"]
    monkeypatch.setattr(sampler, "_max_terminal_subtree", keep_whole_tree)
    assert run(argv) == 2
    script = (
        "import sys; from sparseview import cli, sampler; import test_sampler\n"
        "if not sys.flags.optimize: sys.exit('not optimized')\n"
        "sampler._max_terminal_subtree = test_sampler.keep_whole_tree\n"
        "sys.exit(cli.run(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv], capture_output=True, env=CHILD_ENV
    )
    assert proc.returncode == 2, proc.stderr.decode()
    assert b"invariant violation" in proc.stderr and b"min(quota, depth) is 1" in proc.stderr


class TestSubcommands:
    def test_parse_summary(self, ring_dir, tmp_path, capsys):
        out = tmp_path / "summary.txt"
        assert run(["parse", "--scene", str(ring_dir), "--out", str(out)]) == 0
        text = out.read_text()
        assert "views 30" in text
        assert "edges 66" in text

    def test_stats_report(self, ring_dir, tmp_path):
        out = tmp_path / "stats.txt"
        assert run(["stats", "--scene", str(ring_dir), "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        assert "nodes 30" in text
        assert "[degree_histogram]" in text
        assert "positional_pct" in text

    def test_stats_above_every_count_prints_absent(self, ring_dir, tmp_path):
        out = tmp_path / "stats.txt"
        assert run(["stats", "--scene", str(ring_dir), "--prune-threshold", "101",
                    "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert "edges 0" in lines
        assert "mean_match_count absent" in lines

    def test_grid_stats_report(self, tmp_path):
        grid, out = tmp_path / "grid", tmp_path / "stats.txt"
        assert run(["synth", "--kind", "grid", "--clusters", "4", "--out", str(grid),
                    "--quiet"]) == 0
        assert run(["stats", "--scene", str(grid), "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert "nodes 16" in lines
        assert "edges 24" in lines

    def test_communities_labels(self, ring_dir, tmp_path):
        out = tmp_path / "labels.txt"
        assert run(
            ["communities", "--scene", str(ring_dir), "--seed", "1", "--out", str(out), "--quiet"]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        labels = {int(l.split()[0]): int(l.split()[1]) for l in lines}
        assert len(set(labels.values())) == 6

    def test_communities_resolution_reaches_louvain(self, ring_dir, tmp_path):
        out = tmp_path / "labels.txt"
        assert run(["communities", "--scene", str(ring_dir), "--resolution", "0.5",
                    "--out", str(out), "--quiet"]) == 0
        graph = prune_edges(build_graph(load_scene_dir(str(ring_dir))), 50)
        labels = louvain(graph, sampler.derive_seed(0, "louvain"), resolution=0.5).labels
        assert out.read_text() == "".join(f"{v} {c}\n" for v, c in zip(graph.ids, labels))

    def test_partition_labels(self, ring_dir, tmp_path):
        out = tmp_path / "parts.txt"
        assert run(
            ["partition", "--scene", str(ring_dir), "--ncc", "3", "--seed", "2",
             "--out", str(out), "--quiet"]
        ) == 0
        parts = {int(l.split()[1]) for l in out.read_text().splitlines()}
        assert parts == {0, 1, 2}

    def test_sample_writes_valid_batches(self, ring_dir, tmp_path):
        out = tmp_path / "batches.jsonl"
        assert run(
            ["sample", "--scene", str(ring_dir), "--n", "12", "--ncc", "2",
             "--depth", "8", "--batches", "4", "--seed", "7", "--out", str(out), "--quiet"]
        ) == 0
        batches = read_batches(str(out))
        assert len(batches) == 4
        scene = load_scene_dir(str(ring_dir))
        for b in batches:
            assert len(b.views) == 12
            assert set(b.views) <= set(scene.views)

    def test_sample_preset_flag(self, ring_dir, tmp_path):
        out = tmp_path / "batches.jsonl"
        assert run(
            ["sample", "--scene", str(ring_dir), "--preset", "dense", "--n", "12",
             "--batches", "2", "--seed", "7", "--out", str(out), "--quiet"]
        ) == 0
        for b in read_batches(str(out)):
            assert b.config.max_components == 1
            assert b.config.search_depth == 5

    def test_coverage_report(self, ring_dir, tmp_path):
        batches = tmp_path / "batches.jsonl"
        run(["sample", "--scene", str(ring_dir), "--n", "12", "--ncc", "2", "--depth", "8",
             "--batches", "3", "--seed", "7", "--out", str(batches), "--quiet"])
        out = tmp_path / "cov.txt"
        assert run(
            ["coverage", "--scene", str(ring_dir), "--batches", str(batches),
             "--out", str(out), "--quiet"]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # 3 per-batch lines + aggregate
        assert lines[-1].startswith("aggregate")

    def test_filter_depth_files(self, tmp_path):
        fix = tmp_path / "fix"
        assert run(["synth", "--kind", "depth", "--seed", "5", "--out", str(fix), "--quiet"]) == 0
        out_pfm = tmp_path / "filtered.pfm"
        report = tmp_path / "report.json"
        assert run(
            ["filter-depth", "--geom", str(fix / "geom.pfm"), "--mono", str(fix / "mono.pfm"),
             "--out", str(out_pfm), "--report", str(report), "--quiet"]
        ) == 0
        assert out_pfm.exists()
        assert '"removed_total":' in report.read_text()

    def test_pose_eval_identity(self, ring_dir, tmp_path):
        out = tmp_path / "pose.txt"
        images = str(ring_dir / "images.txt")
        assert run(["pose-eval", "--pred", images, "--gt", images, "--out", str(out)]) == 0
        text = out.read_text()
        assert "rra@5 1.0" in text
        assert "mre 0.0" in text

    def test_synth_parse_round_trip(self, ring_dir):
        scene = load_scene_dir(str(ring_dir))
        assert len(scene.views) == 30
        assert len(scene.points) == 6


class TestDeterminism:
    def test_sample_byte_identical(self, ring_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            run(["sample", "--scene", str(ring_dir), "--preset", "sparse", "--n", "24",
                 "--batches", "8", "--seed", "7", "--out", str(out), "--quiet"])
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_synth_byte_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["synth", "--kind", "ring", "--noise", "0.3", "--seed", "9",
                 "--out", str(out), "--quiet"])
            dirs.append(out)
        for f in ("cameras.txt", "images.txt", "points3D.txt", "matches.txt"):
            assert read(dirs[0] / f) == read(dirs[1] / f)


# the subcommands that start and run without numpy
NO_NUMPY_ARGV = {
    **{cmd: VALID_ARGV[cmd] + ["--out", "{tmp}/out.txt"]
       for cmd in ("parse", "stats", "communities", "partition")},
    "sample": VALID_ARGV["sample"] + ["--batches", "4"],
    "synth-ring": ["synth", "--kind", "ring", "--out", "{tmp}/synth"],
    "synth-grid": ["synth", "--kind", "grid", "--out", "{tmp}/synth"],
}


@pytest.mark.parametrize("cmd", sorted(NO_NUMPY_ARGV))
def test_cli_import_starts_no_thread_pool_machinery(inputs, tmp_path, cmd):
    """The graph commands and `synth --kind ring|grid` neither start up with
    nor load numpy (only the subcommands that compute with it do) or
    `concurrent.futures` and the `logging` it pulls in (only the depth filter
    does). `sample` forks its batch workers itself, so nothing loads
    `multiprocessing`, and on Linux the process it forks from has one OS
    thread."""
    script = (
        "import os, sys, sparseview.cli\n"
        "heavy = {'concurrent.futures', 'logging', 'multiprocessing', 'numpy'}\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "if sys.platform.startswith('linux'):\n"
        "    assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')\n"
        "code = sparseview.cli.run(sys.argv[1:])\n"
        "print(code, sorted(heavy & set(sys.modules)))\n"
    )
    argv = [a.format(tmp=tmp_path, **inputs) for a in NO_NUMPY_ARGV[cmd]] + ["--quiet"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == ["[]", "0 []"]


# the subcommands that compute with numpy, each writing every output to {out}
NUMPY_ARGV = {
    "filter-depth": ["filter-depth", "--geom", "{fix}/geom.pfm", "--mono", "{fix}/mono.pfm",
                     "--out", "{out}/f.pfm", "--report", "{out}/r.json"],
    "pose-eval": ["pose-eval", "--pred", "{ring}/images.txt", "--gt", "{ring}/images.txt",
                  "--out", "{out}/p.txt"],
    "coverage": ["coverage", "--scene", "{ring}", "--batches", "{batches}", "--out", "{out}/c.txt"],
    "synth-depth": ["synth", "--kind", "depth", "--seed", "5", "--out", "{out}"],
}


@pytest.mark.parametrize("cmd", sorted(NUMPY_ARGV))
def test_numpy_subcommand_cold_start_writes_the_in_process_bytes(inputs, tmp_path, cmd):
    """A numpy subcommand in a fresh interpreter, which has not imported
    numpy when the call starts, exits 0 and writes what the same call writes
    in this process, where numpy is loaded."""
    outputs = {}
    for where in ("in-process", "cold"):
        out = tmp_path / where
        out.mkdir()
        argv = [a.format(out=out, **inputs) for a in NUMPY_ARGV[cmd]] + ["--quiet"]
        if where == "in-process":
            assert run(argv) == 0
        else:
            script = (
                "import sys, sparseview.cli\n"
                "assert 'numpy' not in sys.modules\n"
                "sys.exit(sparseview.cli.run(sys.argv[1:]))\n"
            )
            proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                  env=CHILD_ENV)
            assert proc.returncode == 0, proc.stderr.decode()
        outputs[where] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["cold"] and outputs["cold"] == outputs["in-process"]


def test_every_cli_name_the_bench_wraps_is_what_run_calls(inputs, tmp_path):
    """`bench/tracing.py` replaces `sparseview.cli.<attr>` with a wrapper
    before the first `cli.run`; each wrapper must then be what runs, or its
    layer would read as free. A fresh interpreter sets a counting wrapper on
    every `cli` name of the bench's table and makes the bench's calls."""
    attrs = sorted({attr for module, attr, *_ in SPANS if module == "cli"})
    calls = [
        ["sample", "--scene", "{ring}", "--preset", "sparse", "--n", "6", "--batches", "2",
         "--seed", "1", "--out", "{batches}"],
        ["coverage", "--scene", "{ring}", "--batches", "{batches}", "--k", "2", "--out", "{out}/c.txt"],
        NUMPY_ARGV["pose-eval"],
        NUMPY_ARGV["filter-depth"],
    ]
    paths = {**inputs, "out": tmp_path, "batches": tmp_path / "b.jsonl"}
    argvs = [[a.format(**paths) for a in argv] + ["--quiet"] for argv in calls]
    script = (
        "import json, sys\n"
        "from sparseview import cli\n"
        "attrs, argvs = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "calls = dict.fromkeys(attrs, 0)\n"
        "def counting(attr, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[attr] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "for attr in attrs:\n"
        "    setattr(cli, attr, counting(attr, getattr(cli, attr)))\n"
        "print(json.dumps([[cli.run(argv) for argv in argvs], calls]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(attrs), json.dumps(argvs)],
                          capture_output=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    codes, counts = json.loads(proc.stdout)
    assert codes == [0] * len(calls)
    assert [attr for attr in attrs if counts[attr] == 0] == []


def test_console_entry_point(tmp_path):
    out = tmp_path / "scene"
    proc = subprocess.run(
        [sys.executable, "-m", "sparseview.cli", "synth", "--kind", "ring",
         "--out", str(out), "--quiet"],
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert (out / "cameras.txt").exists()
