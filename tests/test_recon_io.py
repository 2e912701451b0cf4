import random

import pytest

from sparseview.errors import (
    DanglingReference,
    DuplicateId,
    MalformedLine,
    SelfLoop,
)
from sparseview.recon_io import (
    CameraIntrinsics,
    CameraModel,
    PosedView,
    SceneReconstruction,
    ScenePoint,
    camera_center,
    load_scene_dir,
    parse_cameras,
    parse_images,
    parse_match_graph,
    parse_points,
    write_reconstruction,
)
from sparseview.synth import SynthSpec, gen_ring_scene
from sparseview.view_graph import build_graph, subgraph


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCameras:
    def test_pinhole_line(self, tmp_path):
        path = write(tmp_path, "cameras.txt", "1 PINHOLE 1024 768 1000 1000 512 384\n")
        cams = parse_cameras(path)
        cam = cams[1]
        assert cam.model is CameraModel.PINHOLE
        assert (cam.width, cam.height) == (1024, 768)
        assert cam.params == (1000.0, 1000.0, 512.0, 384.0)

    def test_comments_ignored(self, tmp_path):
        path = write(tmp_path, "c.txt", "# header\n1 SIMPLE_PINHOLE 640 480 500 320 240\n")
        assert len(parse_cameras(path)) == 1

    def test_wrong_arity_names_line(self, tmp_path):
        path = write(tmp_path, "c.txt", "# c\n1 PINHOLE 640 480 500 320 240\n")
        with pytest.raises(MalformedLine) as exc:
            parse_cameras(path)
        assert exc.value.line_no == 2

    def test_duplicate_camera(self, tmp_path):
        path = write(
            tmp_path,
            "c.txt",
            "1 SIMPLE_PINHOLE 640 480 500 320 240\n1 SIMPLE_PINHOLE 640 480 500 320 240\n",
        )
        with pytest.raises(DuplicateId):
            parse_cameras(path)

    def test_negative_focal_rejected(self, tmp_path):
        for line in (
            "1 SIMPLE_PINHOLE 640 480 -500 320 240",
            "1 PINHOLE 640 480 500 -500 320 240",  # fy, the second focal slot
            "1 OPENCV 640 480 500 0 320 240 0 0 0 0",
        ):
            path = write(tmp_path, "c.txt", line + "\n")
            with pytest.raises(MalformedLine, match="focal must be positive"):
                parse_cameras(path)

    @pytest.mark.parametrize(
        "model,arity",
        [
            (CameraModel.SIMPLE_PINHOLE, 3),
            (CameraModel.PINHOLE, 4),
            (CameraModel.SIMPLE_RADIAL, 4),
            (CameraModel.RADIAL, 5),
            (CameraModel.OPENCV, 8),
        ],
    )
    def test_model_arities(self, model, arity):
        params = tuple([100.0, 100.0][: min(arity, 2)] + [0.5] * (arity - 2))
        cam = CameraIntrinsics(1, model, 10, 10, params)
        assert len(cam.params) == arity
        with pytest.raises(ValueError):
            CameraIntrinsics(1, model, 10, 10, params + (0.0,))


class TestImages:
    def test_identity_pose(self, tmp_path):
        path = write(tmp_path, "i.txt", "1 1 0 0 0 0 0 0 1 a.jpg\n\n")
        view = parse_images(path)[1]
        assert view.position == (0.0, 0.0, 0.0)

    def test_identity_rotation_translation(self, tmp_path):
        path = write(tmp_path, "i.txt", "1 1 0 0 0 1 2 3 1 a.jpg\n\n")
        view = parse_images(path)[1]
        assert view.position == (-1.0, -2.0, -3.0)

    def test_observation_line_skipped(self, tmp_path):
        text = "1 1 0 0 0 0 0 0 1 a.jpg\n1.0 2.0 7 3.0 4.0 9\n2 1 0 0 0 0 0 1 1 b.jpg\n\n"
        views = parse_images(write(tmp_path, "i.txt", text))
        assert sorted(views) == [1, 2]

    def test_bad_quaternion_norm(self, tmp_path):
        path = write(tmp_path, "i.txt", "1 2 0 0 0 0 0 0 1 a.jpg\n\n")
        with pytest.raises(MalformedLine) as exc:
            parse_images(path)
        assert exc.value.line_no == 1

    def test_duplicate_view(self, tmp_path):
        text = "1 1 0 0 0 0 0 0 1 a.jpg\n\n1 1 0 0 0 0 0 0 1 b.jpg\n\n"
        with pytest.raises(DuplicateId):
            parse_images(write(tmp_path, "i.txt", text))

    def test_camera_center_against_quaternion(self):
        # 90 degree rotation about +y: q = (cos45, 0, sin45, 0),
        # R = [[0,0,1],[0,1,0],[-1,0,0]], center = -R^T (1,0,0) = (0,0,-1)
        s = 2.0 ** -0.5
        center = camera_center((s, 0.0, s, 0.0), (1.0, 0.0, 0.0))
        assert center[0] == pytest.approx(0.0, abs=1e-12)
        assert center[1] == pytest.approx(0.0, abs=1e-12)
        assert center[2] == pytest.approx(-1.0, abs=1e-12)


class TestPoints:
    def test_track_parse(self, tmp_path):
        path = write(tmp_path, "p.txt", "7 1 2 3 255 0 0 0.5 1 0 2 4\n")
        pts = parse_points(path)
        assert pts[0].point_id == 7
        assert pts[0].xyz == (1.0, 2.0, 3.0)
        assert pts[0].track == (1, 2)

    def test_odd_track_rejected(self, tmp_path):
        path = write(tmp_path, "p.txt", "7 1 2 3 255 0 0 0.5 1 0 2\n")
        with pytest.raises(MalformedLine):
            parse_points(path)


class TestMatchGraph:
    def test_endpoint_normalization(self, tmp_path):
        edges = parse_match_graph(write(tmp_path, "m.txt", "3 1 120\n"))
        assert edges == {(1, 3): 120}

    def test_duplicate_merge_max(self, tmp_path):
        edges = parse_match_graph(write(tmp_path, "m.txt", "1 2 50\n2 1 70\n"))
        assert edges == {(1, 2): 70}

    def test_self_loop(self, tmp_path):
        with pytest.raises(SelfLoop):
            parse_match_graph(write(tmp_path, "m.txt", "5 5 10\n"))

    def test_malformed_names_line(self, tmp_path):
        with pytest.raises(MalformedLine) as exc:
            parse_match_graph(write(tmp_path, "m.txt", "1 2 50\n1 2\n"))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("count", [2**63, 10**400])
    def test_count_of_2_63_or_more_names_line(self, tmp_path, count):
        path = write(tmp_path, "m.txt", f"1 2 {2**63 - 1}\n1 3 {count}\n")
        with pytest.raises(MalformedLine) as exc:
            parse_match_graph(path)
        assert str(exc.value) == f"{path}:2: match count {count} is not below 2**63"
        assert parse_match_graph(write(tmp_path, "ok.txt", f"1 2 {2**63 - 1}\n")) == {(1, 2): 2**63 - 1}

    def test_keys_hold_the_view_ids_own_ints(self, tmp_path):
        # ids above 256 made at run time, so no int object is shared by chance
        views = {int(t): None for t in ("1000", "2000", "3000", "4000")}
        own = {v: v for v in views}
        path = write(tmp_path, "m.txt", "2000 1000 60\n1000 3000 70\n4000 3000 80\n1000 2000 90\n")
        edges = parse_match_graph(path, views)
        assert edges == {(1000, 2000): 90, (1000, 3000): 70, (3000, 4000): 80}
        assert all(a is own[a] and b is own[b] for a, b in edges)


def test_positions_follow_the_ids_of_a_subgraph_copy():
    scene = gen_ring_scene(SynthSpec(cluster_count=3, cluster_size=4, noise_sigma=0.1, seed=2))
    graph = build_graph(scene)
    keep = [1, 4, 5, 10]
    sub = subgraph(graph, keep)
    parent = scene.positions(graph.ids)
    assert scene.positions(sub.ids) == [parent[v] for v in keep]



def test_centroid_sums_left_to_right():
    """1e16 + 1 rounds back to 1e16, so a left-to-right sum gives x = 0.0;
    Python 3.12's compensated sum() would give 1/3, and the stats azimuth
    bins would follow the interpreter's version."""
    xs = (1e16, 1.0, -1e16)
    points = [ScenePoint(i, (x, 2.0, 3.0), ()) for i, x in enumerate(xs, 1)]
    assert SceneReconstruction("s", {}, {}, {}, points).centroid() == (0.0, 2.0, 3.0)

class TestSceneValidation:
    def test_dangling_edge_endpoint(self, tmp_path):
        write(tmp_path, "cameras.txt", "1 SIMPLE_PINHOLE 640 480 500 320 240\n")
        write(tmp_path, "images.txt", "1 1 0 0 0 0 0 0 1 a.jpg\n\n")
        matches = write(tmp_path, "matches.txt", "1 2 80\n")
        with pytest.raises(DanglingReference) as exc:
            load_scene_dir(str(tmp_path))
        assert (exc.value.path, exc.value.line_no) == (matches, 1)

    def test_dangling_camera(self, tmp_path):
        write(tmp_path, "cameras.txt", "1 SIMPLE_PINHOLE 640 480 500 320 240\n")
        imgs = write(tmp_path, "images.txt", "1 1 0 0 0 0 0 0 9 a.jpg\n\n")
        with pytest.raises(DanglingReference) as exc:
            load_scene_dir(str(tmp_path))
        assert (exc.value.path, exc.value.line_no) == (imgs, 1)


class TestRoundTrip:
    def test_scene_round_trip_exact(self, tmp_path):
        spec = SynthSpec(
            cluster_count=5, cluster_size=4,
            noise_sigma=0.3, seed=9,
        )
        scene = gen_ring_scene(spec)
        out = tmp_path / "scene"
        write_reconstruction(scene, str(out))
        back = load_scene_dir(str(out))
        assert sorted(back.views) == sorted(scene.views)
        for vid, view in scene.views.items():
            got = back.views[vid]
            assert got.camera_id == view.camera_id
            assert got.image_name == view.image_name
            for a, b in zip(got.rotation, view.rotation):
                assert a == pytest.approx(b, abs=1e-9)
            for a, b in zip(got.position, view.position):
                assert a == pytest.approx(b, abs=1e-9)
        assert back.edges == scene.edges
        assert back.intrinsics == scene.intrinsics
        assert [p.xyz for p in back.points] == [p.xyz for p in scene.points]
        assert [p.track for p in back.points] == [p.track for p in scene.points]

    def test_second_write_byte_identical(self, tmp_path):
        rng = random.Random(4)
        for trial in range(5):
            spec = SynthSpec(
                cluster_count=rng.randint(2, 6),
                cluster_size=rng.randint(1, 5),
                noise_sigma=rng.random(),
                seed=rng.randint(0, 999),
            )
            scene = gen_ring_scene(spec)
            d1 = tmp_path / f"a{trial}"
            d2 = tmp_path / f"b{trial}"
            write_reconstruction(scene, str(d1))
            write_reconstruction(load_scene_dir(str(d1)), str(d2))
            for name in ("cameras.txt", "images.txt", "points3D.txt", "matches.txt"):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_line_order_insensitive(self, tmp_path):
        spec = SynthSpec(cluster_count=3, cluster_size=3, seed=2)
        scene = gen_ring_scene(spec)
        out = tmp_path / "scene"
        write_reconstruction(scene, str(out))

        rng = random.Random(0)
        # shuffle camera lines and pose/observation pairs
        cam_lines = [l for l in (out / "cameras.txt").read_text().splitlines() if not l.startswith("#")]
        rng.shuffle(cam_lines)
        (out / "cameras.txt").write_text("\n".join(cam_lines) + "\n")
        img_lines = [l for l in (out / "images.txt").read_text().splitlines() if not l.startswith("#")]
        pairs = [img_lines[i : i + 2] for i in range(0, len(img_lines), 2)]
        rng.shuffle(pairs)
        (out / "images.txt").write_text("\n".join(l for p in pairs for l in p) + "\n")
        match_lines = [l for l in (out / "matches.txt").read_text().splitlines() if not l.startswith("#")]
        rng.shuffle(match_lines)
        (out / "matches.txt").write_text("\n".join(match_lines) + "\n")

        back = load_scene_dir(str(out))
        assert back.views == scene.views
        assert back.edges == scene.edges
        assert back.intrinsics == scene.intrinsics


def test_posed_view_rejects_non_unit_quaternion():
    with pytest.raises(ValueError):
        PosedView(1, 1, (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0), "a.jpg")
    with pytest.raises(ValueError, match="norm nan"):
        PosedView(1, 1, (float("nan"),) * 4, (0.0, 0.0, 0.0), "a.jpg")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize(
    "parse,text,field",
    [
        pytest.param(parse_cameras, "# c\n1 PINHOLE 640 480 500 500 320 240\n", 6, id="param"),
        pytest.param(parse_images, "# i\n1 1 0 0 0 0 0 0 1 a.jpg\n\n", 6, id="translation"),
        pytest.param(parse_images, "# i\n1 1 0 0 0 0 0 0 1 a.jpg\n\n", 2, id="quaternion"),
        pytest.param(parse_points, "# p\n7 1 2 3 255 0 0 0.5 1 0\n", 2, id="xyz"),
    ],
)
def test_non_finite_number_names_file_and_line(tmp_path, parse, text, field, bad):
    lines = text.split("\n")
    toks = lines[1].split()
    toks[field] = bad
    lines[1] = " ".join(toks)
    path = write(tmp_path, "f.txt", "\n".join(lines))
    with pytest.raises(MalformedLine) as exc:
        parse(path)
    assert (exc.value.path, exc.value.line_no) == (path, 2)


@pytest.mark.parametrize(
    "parse,good,bad",
    [
        pytest.param(parse_cameras, "1 SIMPLE_PINHOLE 640 480 500 320 240", "2 PINHOLE 640 480",
                     id="cameras"),
        pytest.param(parse_points, "7 1 2 3 255 0 0 0.5", "8 1 2 3 255 0 0 0.5 1", id="points"),
        pytest.param(parse_match_graph, "1 2 50", "1 2", id="matches"),
    ],
)
def test_indented_comments_and_whitespace_lines_are_skipped(tmp_path, parse, good, bad):
    # a vertical tab and a form feed are whitespace to str.split(), as to
    # str.strip(), but no line break to a text-mode read
    skipped = f"  \t# indented {bad}\n \t\x0b\x0c \n\t#{bad}\n"
    assert len(parse(write(tmp_path, "ok.txt", skipped + good + "\n" + skipped))) == 1
    path = write(tmp_path, "bad.txt", skipped + good + "\n" + skipped + bad + "\n")
    with pytest.raises(MalformedLine) as exc:
        parse(path)
    assert (exc.value.path, exc.value.line_no) == (path, 8)


# (file, line, edit of its tokens, error, message after `path:line: `)
LOCATED = [
    ("images.txt", 4, lambda toks: ["1", *toks[1:]], DuplicateId, "duplicate view id 1"),
    ("points3D.txt", 2, lambda toks: [*toks[:8], "99", "0"], DanglingReference,
     "reference to unknown view id 99"),
    ("matches.txt", 3, lambda toks: ["3", "3", toks[2]], SelfLoop, "self-loop on view 3"),
    ("cameras.txt", 2, lambda toks: [*toks[:2], "0", *toks[3:]], MalformedLine,
     "camera 1: nonpositive image size"),
]


@pytest.mark.parametrize("name,line_no,edit,cls,reason", LOCATED, ids=[c[3].__name__ for c in LOCATED])
def test_scene_errors_are_malformed_lines_naming_file_and_line(tmp_path, name, line_no, edit,
                                                               cls, reason):
    spec = SynthSpec(cluster_count=2, cluster_size=3, seed=1)
    write_reconstruction(gen_ring_scene(spec), str(tmp_path))
    path = tmp_path / name
    lines = path.read_text().split("\n")
    lines[line_no - 1] = " ".join(edit(lines[line_no - 1].split()))
    path.write_text("\n".join(lines))
    with pytest.raises(cls) as exc:
        load_scene_dir(str(tmp_path))
    assert isinstance(exc.value, MalformedLine)
    assert (exc.value.path, exc.value.line_no) == (str(path), line_no)
    assert str(exc.value) == f"{path}:{line_no}: {reason}"
