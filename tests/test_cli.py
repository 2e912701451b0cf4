import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sparseview
from sparseview import cli, sampler
from sparseview.batches import Phase, ViewProvenance, read_batches
from sparseview.cli import run
from sparseview.depth_filter import DepthMap
from sparseview.pfm import write_pfm
from sparseview.recon_io import load_scene_dir

# child interpreters import sparseview from this checkout and test_cli from here
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(sparseview.__file__)), os.path.dirname(__file__)]
    ),
}


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
    ("filter-depth", ["--tau-depth", "-1"], "tau_depth"),
    ("filter-depth", ["--tau-grad", "nan"], "tau_grad"),
    ("pose-eval", ["--thresholds", "5,x"], "--thresholds"),
    ("pose-eval", ["--thresholds", "0"], "--thresholds"),
    ("communities", ["--resolution", "nan"], "--resolution"),
    ("communities", ["--resolution", "-1"], "--resolution"),
    ("communities", ["--resolution", "inf"], "--resolution"),
    ("synth", ["--radius", "nan"], "radius"),
    ("synth", ["--radius", "inf"], "radius"),
    ("synth", ["--radius", "0"], "radius"),
    ("synth", ["--noise", "nan"], "noise_sigma"),
    ("synth", ["--noise", "-0.1"], "noise_sigma"),
    ("synth", ["--inter", "-5"], "inter_weight"),
    *[(cmd, ["--threads", "2"], "--threads") for cmd in VALID_ARGV],
    *[(cmd, ["--seed", "1"], "--seed")
      for cmd in ("parse", "stats", "coverage", "pose-eval", "filter-depth")],
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
    assert "internal" not in err


def test_sample_without_out_fails_before_sampling(inputs, monkeypatch, capsys):
    def no_sampling(*_):
        raise AssertionError("sampled before checking --out")

    monkeypatch.setattr(cli, "generate_batches", no_sampling)
    assert run(["sample", "--scene", inputs["ring"], "--n", "6", "--quiet"]) == 1
    assert "--out is required for sample" in capsys.readouterr().err


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


def disconnected_pair(graph, part, quota, depth, communities, positions, seed, **_):
    """Stand-in for sample_partition that breaks the component bound: two
    views of the part with no edge between them."""
    first = min(part)
    near = {v for v, _ in graph.adjacency[first]}
    second = next(v for v in sorted(part) if v != first and v not in near)
    return [(v, ViewProvenance(0, communities.labels[v], Phase.FILL)) for v in (first, second)]


def test_component_bound_violation_exits_2_even_under_O(inputs, tmp_path, monkeypatch):
    argv = ["sample", "--scene", inputs["ring"], "--n", "2", "--ncc", "1",
            "--out", str(tmp_path / "b.jsonl"), "--quiet"]
    monkeypatch.setattr(sampler, "sample_partition", disconnected_pair)
    assert run(argv) == 2
    script = (
        "import sys; from sparseview import cli, sampler; import test_cli\n"
        "if not sys.flags.optimize: sys.exit('not optimized')\n"
        "sampler.sample_partition = test_cli.disconnected_pair; sys.exit(cli.run(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv], capture_output=True, env=CHILD_ENV
    )
    assert proc.returncode == 2, proc.stderr.decode()
    assert b"invariant violation" in proc.stderr


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

    def test_communities_labels(self, ring_dir, tmp_path):
        out = tmp_path / "labels.txt"
        assert run(
            ["communities", "--scene", str(ring_dir), "--seed", "1", "--out", str(out), "--quiet"]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        labels = {int(l.split()[0]): int(l.split()[1]) for l in lines}
        assert len(set(labels.values())) == 6

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
        scene.validate()


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
