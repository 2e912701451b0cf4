"""Every error type survives a pickle round trip, which is how a batch
worker hands a failure back to the process that forked it."""

import dataclasses
import inspect
import json
import pickle

import pytest

from sparseview import errors

ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls.__module__ == errors.__name__ and issubclass(cls, (errors.SparseViewError, errors.InvariantViolation))
]

# a sample value per annotated parameter type; an unannotated one takes a list
SAMPLE_ARGS = {"int": 5, "str": "scene/matches.txt:3"}


def sample_error(cls):
    if not inspect.isfunction(cls.__init__):  # Exception's own (*args)
        return cls("a message")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]  # after self
    return cls(*(SAMPLE_ARGS.get(p.annotation, [3, 1]) for p in params))


def test_every_error_type_is_found():
    assert len(ERROR_TYPES) >= 20
    assert {errors.MalformedLine, errors.DisconnectedTerminals, errors.InvariantViolation} <= set(ERROR_TYPES)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    err = sample_error(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_custom_messages_come_back_whole():
    for err, message in [
        (errors.DisconnectedTerminals([3, 1]), "terminals not reachable: [1, 3]"),
        (errors.UnknownNode(5), "unknown node 5"),
        (errors.MalformedLine(3, "bad", "f.txt"), "f.txt:3: bad"),
    ]:
        assert str(pickle.loads(pickle.dumps(err))) == message


# errors name view ids, never node indices: on a scene whose ids are far from
# its nodes 0..n-1, each error below must name the view it is about

SPREAD = 10**9  # view v of the synth ring becomes 7 v + SPREAD


@pytest.fixture(scope="module")
def spread_scene(tmp_path_factory):
    from test_graph_golden import spread_ids
    from sparseview.recon_io import write_reconstruction
    from sparseview.synth import SynthSpec, gen_ring_scene

    ring = gen_ring_scene(SynthSpec(noise_sigma=0.05, seed=3))
    scene = spread_ids(ring, lambda v: 7 * v + SPREAD)
    root = tmp_path_factory.mktemp("spread") / "scene"
    write_reconstruction(scene, str(root))
    return scene, root


@pytest.mark.parametrize("missing", [3, SPREAD + 8], ids=["a-node-index", "between-two-ids"])
def test_coverage_names_the_unknown_view(spread_scene, tmp_path, capsys, missing):
    from sparseview.cli import run

    _, root = spread_scene
    batches = tmp_path / "b.jsonl"
    assert run(["sample", "--scene", str(root), "--n", "6", "--out", str(batches), "--quiet"]) == 0
    record = json.loads(batches.read_text().splitlines()[0])
    record["views"][2] = missing
    batches.write_text(json.dumps(record) + "\n")
    assert run(["coverage", "--scene", str(root), "--batches", str(batches)]) == 1
    assert f"error: {batches}: batch 0: unknown node {missing}\n" in capsys.readouterr().err


def test_dfs_subsample_names_the_unknown_view(spread_scene):
    from sparseview.sampler import SamplingConfig, dfs_subsample, generate_batches, prepare_scene

    scene, _ = spread_scene
    batch = generate_batches(scene, SamplingConfig(n_views=6), 1)[0]
    graph = prepare_scene(scene, SamplingConfig()).pruned
    outside = dataclasses.replace(batch, views=[*batch.views[:-1], 4])
    with pytest.raises(errors.UnknownNode, match="unknown node 4$"):
        dfs_subsample(outside, graph, 2, seed=0)


def test_greedy_step_names_the_view_outside_the_part(spread_scene):
    from sparseview.sampler import SamplingConfig, greedy_step, prepare_scene

    ctx = prepare_scene(spread_scene[0], SamplingConfig())
    part = [v != 5 for v in range(ctx.pruned.node_count)]
    with pytest.raises(errors.UnknownNode, match=f"unknown node {7 * 6 + SPREAD}$"):
        greedy_step(ctx.pruned, 5, [5], ctx.communities, ctx.positions, part)


def test_disconnected_terminals_name_views(spread_scene):
    from sparseview.steiner import approximate_steiner_tree
    from sparseview.view_graph import build_graph, prune_edges

    # above the bridges' weight only the clusters of 5 views stay joined
    graph = prune_edges(build_graph(spread_scene[0]), 70)
    with pytest.raises(errors.DisconnectedTerminals) as exc:
        approximate_steiner_tree(graph, [0, 7, 12])
    assert exc.value.unreachable == [7 * 8 + SPREAD, 7 * 13 + SPREAD]


def test_component_bound_names_views(spread_scene, tmp_path, monkeypatch, capsys):
    from sparseview import sampler
    from sparseview.cli import run
    from conftest import disconnected_pair

    monkeypatch.setattr(sampler, "sample_partition", disconnected_pair)
    argv = ["sample", "--scene", str(spread_scene[1]), "--n", "2", "--ncc", "1",
            "--out", str(tmp_path / "b.jsonl"), "--quiet"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "sampled 2 components, bound is 1; they start at views [" in err
    lows = json.loads(err[err.index("views [") + len("views "):].split("\n")[0])
    assert all(v > SPREAD and (v - SPREAD) % 7 == 0 for v in lows)
