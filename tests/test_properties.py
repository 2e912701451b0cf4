"""Property tests of the input contract: on any file content, the readers
raise only SparseViewError (a MalformedLine always naming its file), and
`coverage` exits 0 or 1, never 2; of the depth filter's invariants on any
pair of small maps, of its bytes against the whole-map reference, of
float32 maps filtering as their float64 cast does, of its gradient
stencil distributing over AND and of its masked median against np.median; of the banded PFM reader and writer against
the whole-map ones at any band height; of the sampler's batch invariants on small
scenes; of Louvain against its reference copy that evaluates every node; of
a part given as membership against its induced copy; and of the unit-hop
BFS against the heap search on unit weights."""

import json
import random
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import edges_of
from oracles import (
    filter_depth_reference,
    from_edge_weights_reference,
    louvain_reference,
    parse_match_graph_reference,
    read_pfm_reference,
    union_find_components,
    write_pfm_reference,
)
from sparseview import depth_filter, steiner
from sparseview.batches import Phase, read_batches, write_batches
from sparseview.cli import run
from sparseview.community import CommunityAssignment, louvain
from sparseview.depth_filter import DepthMap, FilterConfig, filter_depth
from sparseview.errors import DisconnectedTerminals, MalformedLine, SparseViewError, UnknownNode
from sparseview.pfm import read_pfm, write_pfm
from sparseview.partition import partition_round_robin
from sparseview.recon_io import parse_cameras, parse_images, parse_match_graph, parse_points
from sparseview.sampler import Preset, SamplingConfig, derive_seed, generate_batches, greedy_step
from sparseview.sampler import prepare_scene
from sparseview.steiner import WeightMode, approximate_steiner_tree
from sparseview.synth import SynthSpec, gen_grid_scene, gen_ring_scene
from sparseview.view_graph import bfs_distances, from_edge_weights, subgraph
from test_graph_golden import spread_ids

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


def _with_field(fields, slot, value):
    return fields[:slot] + [value] + fields[slot + 1 :]


# match-file lines over views 1-6, so pairs repeat in both orders with rising
# and falling counts; tokens are joined by spaces or tabs, with optional
# leading and trailing whitespace
blanks = st.sampled_from(["", " ", "\t", " \t "])
gaps = st.sampled_from([" ", "\t", "  ", " \t"])
good_match = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 20)).filter(
    lambda t: t[0] != t[1]
).map(lambda t: [str(x) for x in t])
bad_match = st.one_of(
    st.lists(st.integers(0, 9).map(str), min_size=1, max_size=5).filter(lambda t: len(t) != 3),
    st.builds(_with_field, st.just(["2", "3", "4"]), st.integers(0, 2),
              st.sampled_from(["x", "1.5", "0x3", "--1"])),  # not an integer
    st.tuples(st.integers(1, 6), st.integers(0, 20)).map(
        lambda t: [str(t[0]), str(t[0]), str(t[1])]
    ),  # self-loop
    st.integers(1, 6).map(lambda v: [str(v), str(v % 6 + 1), "-3"]),  # negative count
    st.builds(_with_field, st.just(["2", "3", "4"]), st.integers(0, 1),
              st.integers(7, 9).map(str)),  # a view id outside 1-6
)


@st.composite
def match_lines(draw, fields):
    return draw(blanks) + draw(gaps).join(draw(fields)) + draw(blanks)


match_line = st.one_of(
    match_lines(good_match),
    match_lines(good_match),
    match_lines(good_match),
    blanks,
    st.tuples(blanks, st.sampled_from(["#", "# 1 2 3", "#x"])).map("".join),
)


@st.composite
def match_files(draw):
    """A match file; half the time with one bad line somewhere in it."""
    lines = draw(st.lists(match_line, max_size=25))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(match_lines(bad_match)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines).encode()


def parsed(parser, path, view_ids):
    try:
        return list(parser(str(path), view_ids).items())
    except SparseViewError as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(content=match_files(), view_ids=st.sampled_from([None, {1, 2, 3, 4, 5, 6}]))
def test_parse_match_graph_matches_reference(workdir, content, view_ids):
    path = workdir / "matches.txt"
    path.write_bytes(content)
    assert parsed(parse_match_graph, path, view_ids) == parsed(
        parse_match_graph_reference, path, view_ids
    )


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


@st.composite
def mask_pairs(draw):
    """Two boolean masks of one shape, 2 to 12 pixels a side, each pixel
    drawn on its own, so the two masks often differ next to a pixel."""
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=12))
    return tuple(draw(arrays(bool, shape, fill=st.nothing())) for _ in range(2))


@settings(max_examples=200)
@given(masks=mask_pairs())
def test_the_stencil_of_an_and_is_the_and_of_the_stencils(masks):
    """`_filter_band` gates on one stencil of the joint mask."""
    a, b = masks

    def stencil(valid):
        return depth_filter._stencil_valid(valid, np.empty_like(valid))

    assert np.array_equal(stencil(a & b), stencil(a) & stencil(b))


@settings(max_examples=300)
@given(dtype=st.sampled_from([np.float32, np.float64]), size=st.integers(1, 3000),
       distinct=st.sampled_from([1, 2, 3, 40, None]), keep=st.sampled_from([0.05, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_masked_median_is_np_median_of_a_float64_copy(dtype, size, distinct, keep, seed):
    """`median_scale`'s one selection pass (the lower middle value as the
    largest below it) gives np.median's bits, on odd and even counts, with
    ties (`distinct` values only) and without, on arrays long enough for
    numpy's introselect to pivot."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 3.0, size)
    if distinct:
        values = rng.choice(values[:distinct], size)
    values = values.astype(dtype)
    mask = rng.random(size) < keep
    mask[rng.integers(size)] = True
    expected = np.median(values[mask].astype(np.float64))
    got = depth_filter._masked_median(values, mask)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


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


# any magnitude a float64 depth may have, or an invalid depth of every kind
wide_depths = st.one_of(
    st.floats(1e-300, 1e300),
    st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf")]),
)


@st.composite
def wide_depth_pairs(draw):
    """A pair of one shape. Each map has a magnitude of its own, from 1e-300
    (every square of a gradient underflows) to 1e300; a seeded pattern of
    three depths of that magnitude gives it flat regions and steps, and some
    pixels are then drawn from `wide_depths`."""
    shape = draw(st.tuples(st.integers(2, 6), st.integers(2, 6)))
    size = shape[0] * shape[1]

    def draw_map():
        magnitude = draw(st.sampled_from([1e-300, 1e-160, 1.0, 1e160, 1e300]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = magnitude * rng.choice([1.0, 1.5, 2.0], size=shape, p=[0.6, 0.2, 0.2])
        for index, value in draw(st.lists(st.tuples(st.integers(0, size - 1), wide_depths),
                                          max_size=size // 2)):
            values.flat[index] = value
        return values

    return draw_map(), draw_map()


@settings(max_examples=300)
@given(
    pair=wide_depth_pairs(),
    tau_depth=st.sampled_from([0.25, 1e-6, 10.0]),
    tau_grad=st.one_of(st.floats(1e-320, 10.0), st.sampled_from([0.1, 1e-320, 1e-150])),
    band_rows=st.sampled_from([1, 2, 128]),
)
def test_filter_depth_matches_whole_map_reference(pair, tau_depth, tau_grad, band_rows):
    """Bands, the fast gradient gate and its exact fallback give the bytes and
    the report of the whole-map np.gradient + np.hypot formula."""
    geom, mono = pair
    try:
        expected = filter_depth_reference(geom, mono, tau_depth, tau_grad)
    except SparseViewError as exc:
        expected = type(exc)
    rows = depth_filter.BAND_ROWS
    depth_filter.BAND_ROWS = band_rows
    try:
        filtered, report = filter_depth(DepthMap(geom), DepthMap(mono),
                                        FilterConfig(tau_depth, tau_grad))
    except SparseViewError as exc:
        assert type(exc) is expected
        return
    finally:
        depth_filter.BAND_ROWS = rows
    assert not isinstance(expected, type), f"filter_depth did not raise {expected.__name__}"
    assert (filtered.values.tobytes(), asdict(report)) == (expected[0].tobytes(), expected[1])


FLOAT32_MAX = float(np.finfo(np.float32).max)

# any float32 depth, subnormals and infinities included, or an invalid depth
# of every kind
float32_depths = st.one_of(
    st.floats(width=32),
    st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf"), 1e-45,
                     FLOAT32_MAX]),
)


@st.composite
def float32_pairs(draw):
    """A float32 pair of one shape, patterned as `wide_depth_pairs` is. Each
    map has a magnitude of its own, from float32 subnormals to within a third
    of float32's maximum, so s * geom can leave float32's range at either
    end; some pixels are then drawn from `float32_depths`."""
    shape = draw(st.tuples(st.integers(2, 6), st.integers(2, 6)))
    size = shape[0] * shape[1]

    def draw_map():
        magnitude = draw(st.sampled_from([1e-44, 1e-39, 1e-20, 1.0, 1e20, 1e38, FLOAT32_MAX / 3]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = magnitude * rng.choice([1.0, 1.5, 2.0, 3.0], size=shape, p=[0.5, 0.2, 0.2, 0.1])
        values = values.astype(np.float32)
        for index, value in draw(st.lists(st.tuples(st.integers(0, size - 1), float32_depths),
                                          max_size=size // 2)):
            values.flat[index] = value
        return values

    return draw_map(), draw_map()


@settings(max_examples=300)
@given(
    pair=float32_pairs(),
    tau_depth=st.sampled_from([0.25, 1e-6, 10.0]),
    tau_grad=st.one_of(st.floats(1e-320, 10.0), st.sampled_from([0.1, 1e-320, 1e-150])),
    band_rows=st.sampled_from([1, 2, 128]),
)
def test_float32_maps_filter_as_their_float64_cast(pair, tau_depth, tau_grad, band_rows):
    """A float32 pair, held as float32, gives the values and the report the
    same pair cast to float64 gives, or raises the same error."""
    results = []
    rows = depth_filter.BAND_ROWS
    depth_filter.BAND_ROWS = band_rows
    try:
        for dtype in (np.float32, np.float64):
            geom, mono = (DepthMap(values.astype(dtype)) for values in pair)
            assert geom.values.dtype == mono.values.dtype == dtype
            try:
                filtered, report = filter_depth(geom, mono, FilterConfig(tau_depth, tau_grad))
            except SparseViewError as exc:
                results.append(type(exc))
                continue
            assert filtered.values.dtype == dtype
            results.append((filtered.values.astype(np.float64).tobytes(), asdict(report)))
    finally:
        depth_filter.BAND_ROWS = rows
    assert results[0] == results[1]


# any depth a caller may write: NaN, +-inf, float32's extremes, values past
# them (3.4028235677973366e38 is the first that casts to inf), subnormals
pfm_depths = {
    np.float64: st.one_of(st.floats(), st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), 1e39, -1e39, FLOAT32_MAX,
         3.4028235677973366e38, 1e-45, 5e-324, -0.0])),
    np.float32: float32_depths,
}


pfm_shapes = st.sampled_from([(1, 1), (1, None), (None, 1), (None, None)]).flatmap(
    lambda dims: st.tuples(*(st.integers(2, 9) if d is None else st.just(d) for d in dims)))


@st.composite
def pfm_maps(draw):
    """A map as DepthMap holds one, float32 or float64: 1x1, one row, one
    column, or up to 9x9."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return draw(arrays(dtype, pfm_shapes, elements=pfm_depths[dtype]))


# the band height in rows, from one row up to the default, which holds any of
# these maps whole, so heights that are no multiple of the band
pfm_band_rows = st.sampled_from([1, 2, 3, 5, depth_filter.BAND_ROWS])


@settings(max_examples=300)
@given(values=pfm_maps(), band_rows=pfm_band_rows)
def test_banded_write_pfm_gives_the_whole_map_bytes(workdir, values, band_rows):
    """At any band height, the bytes the whole-map writer gives."""
    ours, reference = workdir / "ours.pfm", workdir / "reference.pfm"
    with mock.patch.object(depth_filter, "BAND_ROWS", band_rows):
        write_pfm(str(ours), DepthMap(values))
    write_pfm_reference(str(reference), values)
    assert ours.read_bytes() == reference.read_bytes()


@settings(max_examples=300)
@given(
    bits=arrays(np.uint32, pfm_shapes, elements=st.one_of(
        st.integers(0, 2**32 - 1),
        float32_depths.map(lambda x: int(np.array(x, dtype=np.float32).view(np.uint32))))),
    band_rows=pfm_band_rows,
    order=st.sampled_from([("<", "-1.0"), (">", "1.0")]),
)
def test_banded_read_pfm_gives_the_whole_map_values(workdir, bits, band_rows, order):
    """Any float32 raster, NaN payloads included, in either byte order."""
    endian, scale = order
    path = workdir / "raster.pfm"
    height, width = bits.shape
    raster = np.flipud(bits.view(np.float32)).astype(endian + "f4").tobytes()
    path.write_bytes(f"Pf\n{width} {height}\n{scale}\n".encode() + raster)
    with mock.patch.object(depth_filter, "BAND_ROWS", band_rows):
        ours = read_pfm(str(path)).values
    assert ours.dtype == np.float32 and ours.dtype.isnative and ours.flags.c_contiguous
    assert ours.tobytes() == read_pfm_reference(str(path)).tobytes()


@st.composite
def small_scenes(draw):
    """A synth ring (its bridges kept or pruned at the default threshold of
    50) or a synth grid, 2 to 36 views."""
    seed = draw(st.integers(0, 999))
    noise = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        return gen_ring_scene(SynthSpec(
            cluster_count=draw(st.integers(1, 5)),
            cluster_size=draw(st.integers(2, 6)), inter_weight=draw(st.sampled_from([0, 30, 60])),
            noise_sigma=noise, seed=seed,
        ))
    return gen_grid_scene(SynthSpec(
        cluster_count=draw(st.integers(2, 6)), noise_sigma=noise, seed=seed,
    ))


@st.composite
def sampling_configs(draw, preset):
    n_views = draw(st.integers(2, 12))
    # a preset sets the component bound and the search depth itself
    bounds = {} if preset else {
        "max_components": draw(st.integers(1, min(4, n_views))),
        "search_depth": draw(st.integers(1, 10)),
    }
    return SamplingConfig(
        n_views=n_views,
        **bounds,
        weight_mode=draw(st.sampled_from(list(WeightMode))),
        seed=draw(st.integers(0, 2**32)),
        preset=preset,
    )


def quotas_of(n_views: int, parts: int, batch_seed: int) -> list[int]:
    """Each partition's view quota, drawn as the sampler draws it: `parts - 1`
    distinct cuts of 1..n_views-1 from the batch's "quota" seed."""
    if parts == 1:
        return [n_views]
    rng = random.Random(derive_seed(batch_seed, "quota"))
    bounds = [0, *sorted(rng.sample(range(1, n_views), parts - 1)), n_views]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


PHASE_RANK = {Phase.TERMINAL: 0, Phase.STEINER: 0, Phase.GREEDY: 1, Phase.FILL: 2}


@pytest.mark.parametrize("preset", [None, *Preset], ids=lambda p: getattr(p, "value", "none"))
@settings(max_examples=20)
@given(data=st.data())
def test_sampled_batches_keep_their_invariants(tmp_path_factory, preset, data):
    scene = data.draw(small_scenes())
    config = data.draw(sampling_configs(preset))
    batches = generate_batches(scene, config, 3)
    kept = [(a, b) for (a, b), count in scene.edges.items()
            if count > 0 and count >= config.prune_threshold]
    for batch in batches:
        views, resolved = batch.views, batch.config
        assert len(views) == len(set(views)) <= resolved.n_views
        assert set(views) <= set(scene.views)
        assert batch.truncated == (len(views) < resolved.n_views)
        if config.preset is Preset.RANDOM:
            assert all(p.phase is Phase.FILL for p in batch.provenance)
            continue
        induced = [(a, b) for a, b in kept if a in views and b in views]
        assert len(union_find_components(views, induced)) <= resolved.max_components
        # partitions in index order, each one's phases in sampling order
        order = [(p.partition, PHASE_RANK[p.phase]) for p in batch.provenance]
        assert order == sorted(order)
        quotas = quotas_of(resolved.n_views, resolved.max_components, resolved.seed)
        for i, quota in enumerate(quotas):
            phases = [p.phase for p in batch.provenance if p.partition == i]
            assert len(phases) <= quota
            searched = sum(1 for ph in phases if ph is not Phase.FILL)
            assert searched <= min(quota, resolved.search_depth)
    # a rerun writes the same bytes
    out = tmp_path_factory.mktemp("rerun")
    write_batches(batches, str(out / "a.jsonl"))
    write_batches(generate_batches(scene, config, 3), str(out / "b.jsonl"))
    assert (out / "a.jsonl").read_bytes() == (out / "b.jsonl").read_bytes()


@st.composite
def increasing_maps(draw, ids):
    """A strictly increasing map of `ids`: random gaps from a random start."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    at = draw(st.sampled_from([-(10**6), 0, 10**9, 2**62]))
    widest = draw(st.sampled_from([1, 3, 1000]))
    out = {}
    for v in sorted(ids):
        at += rng.randint(1, widest)
        out[v] = at
    return out


@settings(max_examples=25)
@given(data=st.data())
def test_an_order_keeping_relabel_changes_nothing(data):
    """The graph layers see view ids only through their order: under a
    strictly increasing renaming f of a scene's views, the communities and
    partitions by node are unchanged, and every batch is the original's
    with each view mapped through f."""
    scene = data.draw(small_scenes())
    config = data.draw(sampling_configs(data.draw(st.sampled_from([None, *Preset]))))
    f = data.draw(increasing_maps(scene.views))
    moved = spread_ids(scene, f.__getitem__)
    a = prepare_scene(scene, config)
    b = prepare_scene(moved, config)
    assert [f[v] for v in a.pruned.ids] == list(b.pruned.ids)
    assert (a.pruned.adjacency, a.pruned.weights) == (b.pruned.adjacency, b.pruned.weights)
    assert a.communities == b.communities
    for n_cc in range(1, min(4, a.pruned.node_count) + 1):
        assert partition_round_robin(a.pruned, n_cc, config.seed, a.communities) == (
            partition_round_robin(b.pruned, n_cc, config.seed, b.communities)
        )
    batches = zip(generate_batches(scene, config, 3), generate_batches(moved, config, 3), strict=True)
    for x, y in batches:
        assert [f[v] for v in x.views] == y.views
        assert (x.config, x.provenance, x.truncated) == (y.config, y.provenance, y.truncated)


@st.composite
def edge_weight_maps(draw):
    """Up to 40 views in any order and a {(view, view): weight} map over them:
    each key in either orientation, one weight in five 0, views in no pair at
    low densities, and in half the maps one pair keyed both ways."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    views = rng.sample(range(-1000, 1000), draw(st.integers(1, 40)))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    weights = {}
    for i, a in enumerate(views):
        for b in views[i + 1:]:
            if rng.random() < density:
                key = (a, b) if rng.random() < 0.5 else (b, a)
                weights[key] = rng.choice([0, 1, 2, 7, 1000])
    if weights and draw(st.booleans()):
        a, b = rng.choice(sorted(weights))
        weights[(b, a)] = rng.randint(0, 1000)
    return views, weights


@settings(max_examples=300)
@given(case=edge_weight_maps())
def test_from_edge_weights_matches_the_tuple_row_reference(case):
    views, weights = case
    got = from_edge_weights(views, weights)
    want = from_edge_weights_reference(views, weights)
    assert (got.ids, got.adjacency, got.weights) == (want.ids, want.adjacency, want.weights)


@st.composite
def weighted_graphs(draw):
    """2-80 nodes at densities 0.05-0.8, weights up to 1, 2, 5, 1000, 10**9 or
    2**40, and at least one edge; dense graphs are what move many nodes per
    sweep."""
    n = draw(st.integers(2, 80))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.8]))
    max_w = draw(st.sampled_from([1, 2, 5, 1000, 10**9, 2**40]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    weights = {(u, v): rng.randint(1, max_w)
               for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    assume(weights)
    return from_edge_weights(range(n), weights)


@settings(max_examples=300)
@given(graph=weighted_graphs(), seed=st.integers(0, 2**32), resolution=st.sampled_from([0.1, 0.5, 1.0, 2.0]))
def test_louvain_matches_the_unskipped_reference(graph, seed, resolution):
    got = louvain(graph, seed, resolution)
    rows = {u: tuple(zip(nbrs, wts)) for u, (nbrs, wts) in enumerate(zip(graph.adjacency, graph.weights))}
    expected = louvain_reference(rows, seed, resolution)
    assert (dict(enumerate(got.labels)), got.modularity, got.level_count, got.level_modularities) == expected


def steiner_outcome(graph, terminals, mode, part=None):
    """The tree as comparable view-id fields, or the error's type and the
    views it names."""
    try:
        res = approximate_steiner_tree(graph, terminals, mode, part)
    except UnknownNode as exc:
        return UnknownNode, exc.node
    except DisconnectedTerminals as exc:
        return DisconnectedTerminals, exc.unreachable
    views = graph.ids
    edges = frozenset((views[u], views[v]) for u, v in res.tree_edges)
    return frozenset(views[v] for v in res.tree_nodes), edges, repr(res.total_weight)


@st.composite
def parts_of(draw, graph):
    """A part of the graph's nodes as a membership list, often disconnected
    in it, and a seeded rng for the rest."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    nodes = range(graph.node_count)
    part = set(rng.sample(nodes, rng.randint(1, len(nodes))))
    return [v in part for v in nodes], rng


def spread(graph):
    """The graph with view v renamed 7 v + 10**9, so a node and its view differ."""
    return from_edge_weights(
        [7 * v + 10**9 for v in graph.ids],
        {(7 * graph.ids[u] + 10**9, 7 * graph.ids[v] + 10**9): w for u, v, w in edges_of(graph)},
    )


@settings(max_examples=300)
@given(data=st.data(), graph=weighted_graphs().map(spread))
def test_a_part_as_membership_walks_as_its_induced_copy(data, graph):
    """Steiner trees, greedy steps and BFS distances given `part` equal those
    on `subgraph(graph, part)` once both are read as view ids, errors
    included, for terminals, a current view and a start inside or outside
    the part."""
    part, rng = data.draw(parts_of(graph))
    inner = [v for v, p in enumerate(part) if p]
    copy = subgraph(graph, inner)  # copy node j is graph node inner[j]
    to_copy = {v: j for j, v in enumerate(inner)}
    nodes = list(range(graph.node_count))
    outside = [v for v in nodes if not part[v]]
    terminals = set(rng.sample(inner, rng.randint(1, min(5, len(inner)))))
    stray = outside and rng.random() < 0.3
    if stray:
        terminals.add(rng.choice(outside))
    for mode in WeightMode:
        got = steiner_outcome(graph, terminals, mode, part)
        if stray:  # the smallest terminal outside the part is named
            assert got == (UnknownNode, graph.ids[min(t for t in terminals if not part[t])])
        else:
            assert got == steiner_outcome(copy, [to_copy[t] for t in terminals], mode)

    current = rng.choice(nodes)
    sampled = {current, *rng.sample(inner, rng.randint(0, len(inner) // 2))} & set(inner)
    labels = [rng.randint(0, 3) for _ in nodes]
    positions = [(rng.random(), rng.random(), rng.random()) for _ in nodes]
    targets = rng.sample(nodes, rng.randint(0, len(nodes)))
    if not part[current]:
        for call in (
            lambda: greedy_step(graph, current, sampled, CommunityAssignment(labels, (0.0,)), positions, part),
            lambda: bfs_distances(graph, current, targets, part),
        ):
            with pytest.raises(UnknownNode) as exc:
                call()
            assert exc.value.node == graph.ids[current]
        return
    step = greedy_step(graph, current, sampled, CommunityAssignment(labels, (0.0,)), positions, part)
    copy_step = greedy_step(
        copy, to_copy[current], [to_copy[s] for s in sampled],
        CommunityAssignment([labels[v] for v in inner], (0.0,)), [positions[v] for v in inner],
    )
    assert (step is None and copy_step is None) or graph.ids[step] == copy.ids[copy_step]

    # a target outside the part is never reached, so the search exhausts
    # the start's component, as an unreachable target in the copy makes it
    copy_targets = range(copy.node_count) if any(not part[t] for t in targets) else [
        to_copy[t] for t in targets
    ]
    got = bfs_distances(graph, current, targets, part)
    want = bfs_distances(copy, to_copy[current], copy_targets)
    assert {graph.ids[v]: d for v, d in got.items()} == {copy.ids[v]: d for v, d in want.items()}


@settings(max_examples=300)
@given(data=st.data(), graph=weighted_graphs())
def test_the_unit_hop_bfs_grows_the_regions_the_heap_grows_on_unit_weights(data, graph):
    """With every match count 1, inverse-match lengths are 1/1 == 1.0, so the
    heap search is a unit-hop search and the BFS must give its predecessors,
    edge lengths and closure, over the whole graph or a part of it."""
    part, rng = data.draw(parts_of(graph))
    inside = [True] * graph.node_count if rng.random() < 0.3 else part
    unit = from_edge_weights(graph.ids, {(graph.ids[u], graph.ids[v]): 1 for u, v, _ in edges_of(graph)})
    inner = [v for v, p in enumerate(part) if p]
    sources = rng.sample(inner, rng.randint(1, min(6, len(inner))))
    bfs = steiner._multi_source_bfs(graph, sources, inside)
    heap = steiner._multi_source_dijkstra(unit, sources, inside)
    assert bfs == heap
