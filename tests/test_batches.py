import random

import pytest

from sparseview.batches import (
    BatchConfig,
    Phase,
    SampledBatch,
    ViewProvenance,
    read_batches,
    write_batches,
)
from sparseview.errors import MalformedLine


def random_batch(rng, scene_id="s"):
    n = rng.randint(1, 24)
    views = rng.sample(range(1, 500), n)
    phases = list(Phase)
    prov = [
        ViewProvenance(rng.randint(0, 3), rng.randint(0, 9), rng.choice(phases))
        for _ in views
    ]
    cfg = BatchConfig(
        n_views=n,
        max_components=rng.randint(1, 4),
        search_depth=rng.randint(1, 24),
        seed=rng.randint(0, 2**63),
    )
    return SampledBatch(scene_id, cfg, views, prov, truncated=rng.random() < 0.2)


def test_empty_batch_list(tmp_path):
    path = tmp_path / "b.jsonl"
    write_batches([], str(path))
    assert path.read_text() == ""
    assert read_batches(str(path)) == []


def test_single_batch_one_line(tmp_path):
    rng = random.Random(0)
    batch = random_batch(rng)
    path = tmp_path / "b.jsonl"
    write_batches([batch], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert read_batches(str(path)) == [batch]


def test_round_trip_randomized(tmp_path):
    rng = random.Random(5)
    batches = [random_batch(rng, scene_id=f"scene{i}") for i in range(20)]
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_batches(batches, str(p1))
    back = read_batches(str(p1))
    assert back == batches
    write_batches(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_view_order_preserved(tmp_path):
    rng = random.Random(2)
    batch = random_batch(rng)
    path = tmp_path / "b.jsonl"
    write_batches([batch], str(path))
    assert read_batches(str(path))[0].views == batch.views


def test_malformed_record_names_line(tmp_path):
    good = ('{"config":{"max_components":1,"n_views":1,"search_depth":1,"seed":0},'
            '"provenance":[{"community":0,"partition":0,"phase":"fill"}],'
            '"scene_id":"s","truncated":false,"views":[1]}')
    path = tmp_path / "b.jsonl"
    for bad in (
        '{"scene_id": "s"}',
        "1",
        "[]",
        good.replace('"views":[1]', '"views":[1,[2]]'),
        good.replace('"views":[1]', '"views":"1"'),
        good.replace('"views":[1]', '"views":[true]'),
        good.replace('"n_views":1', '"n_views":null'),
        good.replace('"phase":"fill"}', '"phase":"fill"},3'),
        "[" * 100000,
    ):
        path.write_text(f"{good}\n\n{bad}\n")
        with pytest.raises(MalformedLine) as exc:
            read_batches(str(path))
        assert (exc.value.line_no, exc.value.path) == (3, str(path)), bad
    path.write_bytes(f"{good}\n".encode() + b'{"scene_id": "\xff"}\n')
    with pytest.raises(MalformedLine, match=r"b\.jsonl:2: not UTF-8"):
        read_batches(str(path))


def test_duplicate_views_rejected():
    cfg = BatchConfig(2, 1, 1, 0)
    prov = [ViewProvenance(0, 0, Phase.FILL)] * 2
    with pytest.raises(ValueError):
        SampledBatch("s", cfg, [1, 1], prov)


def test_one_provenance_record_per_view():
    cfg = BatchConfig(2, 1, 1, 0)
    with pytest.raises(ValueError, match="one provenance record per view"):
        SampledBatch("s", cfg, [1, 2], [ViewProvenance(0, 0, Phase.FILL)])
