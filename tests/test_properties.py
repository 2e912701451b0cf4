"""Property tests of the input contract: on any file content, the readers
raise only SparseViewError (a MalformedLine always naming its file), and
`coverage` exits 0 or 1, never 2; and of the depth filter's invariants on any
pair of small maps."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from sparseview.batches import Phase, read_batches
from sparseview.cli import run
from sparseview.depth_filter import DepthMap, FilterConfig, filter_depth
from sparseview.errors import MalformedLine, SparseViewError
from sparseview.pfm import read_pfm
from sparseview.recon_io import parse_cameras, parse_images, parse_match_graph, parse_points

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)

# whitespace-separated lines over the scene files' vocabulary, so records get
# past the field counts and into the number and model checks
tokens = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1.0", "nan", "-inf", "1e999", "x", "#",
                     "PINHOLE", "SIMPLE_PINHOLE", "OPENCV"]),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
)
token_text = st.lists(st.lists(tokens, max_size=12).map(" ".join), max_size=6).map("\n".join)

any_bytes = st.one_of(st.binary(), st.text().map(str.encode), token_text.map(str.encode))


@st.composite
def batch_records(draw):
    """A well-typed batch record over arbitrary view ids (repeats, ids outside
    the scene, none at all), half the time with one value swapped for an
    arbitrary JSON value."""
    views = draw(st.lists(st.integers(-1, 33), max_size=6))
    phase = draw(st.sampled_from([p.value for p in Phase]))
    record = {
        "config": {"max_components": 1, "n_views": len(views), "search_depth": 1, "seed": 0},
        "provenance": [{"community": 0, "partition": 0, "phase": phase} for _ in views],
        "scene_id": "s",
        "truncated": draw(st.booleans()),
        "views": views,
    }
    slots = [(record, k) for k in record] + [(record["config"], k) for k in record["config"]]
    slots += [(entry, k) for entry in record["provenance"] for k in entry]
    slots += [(views, i) for i in range(len(views))]
    if draw(st.booleans()):
        holder, key = draw(st.sampled_from(slots))
        holder[key] = draw(json_values)
    return record


batch_files = st.one_of(
    any_bytes,
    st.lists(st.one_of(batch_records(), json_values), max_size=3).map(
        lambda records: "".join(json.dumps(r) + "\n" for r in records).encode()
    ),
)

# a PFM header with small dimensions and any scale, then any payload
pfm_files = st.builds(
    lambda w, h, scale, payload: f"Pf\n{w} {h}\n{scale!r}\n".encode() + payload,
    st.integers(-1, 4), st.integers(-1, 4), st.floats(), st.binary(max_size=80),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("props")
    assert run(["synth", "--kind", "ring", "--seed", "3", "--out", str(root / "ring"),
                "--quiet"]) == 0
    return root


def read_only_sparseview_errors(reader, path, content):
    path.write_bytes(content)
    try:
        reader(str(path))
    except MalformedLine as exc:
        assert exc.path == str(path)
    except SparseViewError:
        pass


@given(content=any_bytes)
def test_scene_parsers_raise_only_sparseview_errors(workdir, content):
    for reader in (parse_cameras, parse_images, parse_points, parse_match_graph):
        read_only_sparseview_errors(reader, workdir / "scene.txt", content)


@given(content=st.one_of(st.binary(), pfm_files))
def test_read_pfm_raises_only_sparseview_errors(workdir, content):
    read_only_sparseview_errors(read_pfm, workdir / "d.pfm", content)


@given(content=batch_files)
def test_batches_files_raise_only_sparseview_errors_and_coverage_exits_0_or_1(workdir, content):
    batches = workdir / "b.jsonl"
    read_only_sparseview_errors(read_batches, batches, content)
    argv = ["coverage", "--scene", str(workdir / "ring"), "--batches", str(batches),
            "--out", str(workdir / "cov.txt"), "--quiet"]
    assert run(argv) in (0, 1)


# float32-representable depths, as a PFM holds them: four in five in a band
# where the thresholds matter, so gradient stencils are often whole; the rest
# any float32 or an invalid depth of every kind
depths = st.integers(0, 9).flatmap(
    lambda k: st.floats(1.0, 2.0, width=32) if k < 8 else st.one_of(
        st.floats(width=32),
        st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf")]),
    )
)
shapes = st.tuples(st.sampled_from([2, 3, 4, 5, 2, 1]), st.sampled_from([3, 2, 5, 4, 3, 1]))


def depth_map(shape):
    # every pixel drawn on its own: `arrays` would fill most pixels with one value
    return st.lists(depths, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda values: np.array(values, dtype=np.float64).reshape(shape)
    )


@st.composite
def depth_pairs(draw):
    """A geometric map and a prior, of one shape nine times in ten."""
    shape = draw(shapes)
    mono_shape = shape if draw(st.integers(0, 9)) else draw(shapes)
    return draw(depth_map(shape)), draw(depth_map(mono_shape))


@given(pair=depth_pairs(), taus=st.sampled_from([(0.25, 0.10), (0.05, 0.02), (2.0, 1.0)]))
def test_filter_depth_invariants(pair, taus):
    geom, mono = pair
    try:
        filtered, report = filter_depth(DepthMap(geom), DepthMap(mono), FilterConfig(*taus))
    except SparseViewError:
        return
    valid = np.isfinite(geom) & (geom > 0)
    # surviving pixels keep their original depth bit for bit; removed ones are 0
    removed = filtered.values.view(np.uint64) != geom.view(np.uint64)
    assert np.all(filtered.values[removed] == 0.0)
    assert not np.any(removed & ~valid)
    assert int(removed.sum()) == report.removed_total
    assert report.kept + report.removed_total == int(valid.sum())
    assert report.removed_total <= report.removed_by_depth + report.removed_by_grad
