"""Readers and writers for sparse-reconstruction text files.

Scene geometry comes in as COLMAP-style text files:

  cameras.txt    CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]
  images.txt     IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME
                 followed by one observation line per image (skipped)
  points3D.txt   POINT3D_ID X Y Z R G B ERROR (IMAGE_ID POINT2D_IDX)[]
  matches.txt    VIEW_A VIEW_B MATCH_COUNT

`#`-prefixed lines are comments. Extrinsics are world-to-camera; the camera
center is -R^T t.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from enum import Enum

from .errors import DanglingReference, DuplicateId, MalformedLine, SelfLoop


# match counts are below 2**63, so sums and means of them stay well inside
# the float range that the graph statistics and Louvain compute in
MATCH_COUNT_LIMIT = 2**63


class CameraModel(Enum):
    SIMPLE_PINHOLE = "SIMPLE_PINHOLE"
    PINHOLE = "PINHOLE"
    SIMPLE_RADIAL = "SIMPLE_RADIAL"
    RADIAL = "RADIAL"
    OPENCV = "OPENCV"


# per model: how many params it takes, and which of them are focal lengths
MODEL_PARAMS = {
    CameraModel.SIMPLE_PINHOLE: (3, (0,)),
    CameraModel.PINHOLE: (4, (0, 1)),
    CameraModel.SIMPLE_RADIAL: (4, (0,)),
    CameraModel.RADIAL: (5, (0,)),
    CameraModel.OPENCV: (8, (0, 1)),
}


@dataclass(frozen=True)
class CameraIntrinsics:
    camera_id: int
    model: CameraModel
    width: int
    height: int
    params: tuple[float, ...]

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"camera {self.camera_id}: nonpositive image size")
        arity, focal_slots = MODEL_PARAMS[self.model]
        if len(self.params) != arity:
            raise ValueError(
                f"camera {self.camera_id}: model {self.model.value} needs "
                f"{arity} params, got {len(self.params)}"
            )
        for slot in focal_slots:
            if not self.params[slot] > 0:
                raise ValueError(f"camera {self.camera_id}: focal must be positive")


def rotation_matrix(q: tuple[float, float, float, float]) -> list[list[float]]:
    """3x3 world-to-camera rotation from a (qw, qx, qy, qz) quaternion."""
    w, x, y, z = q
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def camera_center(
    q: tuple[float, float, float, float], t: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Camera center in world coordinates, -R^T t."""
    r = rotation_matrix(q)
    return (
        -(r[0][0] * t[0] + r[1][0] * t[1] + r[2][0] * t[2]),
        -(r[0][1] * t[0] + r[1][1] * t[1] + r[2][1] * t[2]),
        -(r[0][2] * t[0] + r[1][2] * t[1] + r[2][2] * t[2]),
    )


@dataclass(frozen=True)
class PosedView:
    view_id: int
    camera_id: int
    rotation: tuple[float, float, float, float]
    translation: tuple[float, float, float]
    image_name: str
    position: tuple[float, float, float] = field(init=False, compare=False)

    def __post_init__(self):
        squares = 0.0
        for c in self.rotation:  # left to right, as in centroid()
            squares += c * c
        norm = math.sqrt(squares)
        if not abs(norm - 1.0) <= 1e-6:  # a nan norm fails this too
            raise ValueError(f"view {self.view_id}: quaternion norm {norm} not unit")
        object.__setattr__(
            self, "position", camera_center(self.rotation, self.translation)
        )

    def forward_axis(self) -> tuple[float, float, float]:
        """Viewing direction in world coordinates (third row of R)."""
        r = rotation_matrix(self.rotation)
        return (r[2][0], r[2][1], r[2][2])


@dataclass(frozen=True)
class ScenePoint:
    point_id: int
    xyz: tuple[float, float, float]
    track: tuple[int, ...]


@dataclass
class SceneReconstruction:
    scene_id: str
    intrinsics: dict[int, CameraIntrinsics]
    views: dict[int, PosedView]
    edges: dict[tuple[int, int], int]  # (view_a, view_b) -> match count, view_a < view_b
    points: list[ScenePoint] = field(default_factory=list)

    def positions(self, ids) -> list[tuple[float, float, float]]:
        """Camera centers of the views `ids`, in that order: given a graph's
        `ids`, they are indexed by its nodes."""
        return [self.views[v].position for v in ids]

    def centroid(self) -> tuple[float, float, float]:
        if not self.points:
            raise ValueError("scene has no points; centroid undefined")
        # left to right: Python 3.12's sum() of floats is compensated, so
        # its bits would follow the interpreter's version
        sx = sy = sz = 0.0
        for p in self.points:
            x, y, z = p.xyz
            sx += x
            sy += y
            sz += z
        n = len(self.points)
        return (sx / n, sy / n, sz / n)


def text_lines(path: str):
    """(line_no, line) for each line of a UTF-8 text file, split as a
    text-mode open() splits them; a byte that is not UTF-8 raises
    MalformedLine naming its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return enumerate(io.StringIO(data.decode("utf-8"), newline=None), start=1)
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(line_no, f"not UTF-8 text: {exc.reason}", path) from exc


def _content_tokens(path):
    """Yield (line_no, tokens) for each line that is neither blank nor a comment."""
    for line_no, raw in text_lines(path):
        toks = raw.split()
        if toks and toks[0][0] != "#":
            yield line_no, toks


def _known(kind: str, id_: int, known, line_no: int, path: str) -> None:
    """DanglingReference naming `path:line` unless `known` is None or holds `id_`."""
    if known is not None and id_ not in known:
        raise DanglingReference(line_no, f"reference to unknown {kind} id {id_}", path)


def _finite(values: tuple[float, ...], line_no: int, path: str) -> tuple[float, ...]:
    """`values`, unless one is nan or infinite: then MalformedLine."""
    if not all(map(math.isfinite, values)):
        raise MalformedLine(line_no, f"non-finite number in {values}", path)
    return values


def parse_cameras(path: str) -> dict[int, CameraIntrinsics]:
    cameras: dict[int, CameraIntrinsics] = {}
    for line_no, toks in _content_tokens(path):
        if len(toks) < 4:
            raise MalformedLine(line_no, "camera line needs id, model, width, height", path)
        try:
            camera_id = int(toks[0])
            model = CameraModel(toks[1])
            width, height = int(toks[2]), int(toks[3])
            params = _finite(tuple(float(t) for t in toks[4:]), line_no, path)
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad camera line: {exc}", path) from exc
        if camera_id in cameras:
            raise DuplicateId(line_no, f"duplicate camera id {camera_id}", path)
        try:
            cameras[camera_id] = CameraIntrinsics(camera_id, model, width, height, params)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc), path) from exc
    return cameras


def parse_images(path: str, camera_ids=None) -> dict[int, PosedView]:
    """Parse image poses; every pose line is followed by an observation line.

    The observation line (2D keypoints) may be empty and is not interpreted.
    A camera id outside `camera_ids` raises DanglingReference; None checks none.
    """
    views: dict[int, PosedView] = {}
    expect_pose = True
    for line_no, raw in text_lines(path):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if expect_pose:
            if not line:
                continue
            toks = line.split()
            if len(toks) < 10:
                raise MalformedLine(line_no, "pose line needs 10 fields", path)
            try:
                view_id = int(toks[0])
                pose = _finite(tuple(map(float, toks[1:8])), line_no, path)
                q, t = pose[:4], pose[4:]
                camera_id = int(toks[8])
                name = " ".join(toks[9:])
            except ValueError as exc:
                raise MalformedLine(line_no, f"bad pose line: {exc}", path) from exc
            if view_id in views:
                raise DuplicateId(line_no, f"duplicate view id {view_id}", path)
            _known("camera", camera_id, camera_ids, line_no, path)
            try:
                views[view_id] = PosedView(view_id, camera_id, q, t, name)
            except ValueError as exc:
                raise MalformedLine(line_no, str(exc), path) from exc
            expect_pose = False
        else:
            # observation line; content ignored
            expect_pose = True
    return views


def parse_points(path: str, view_ids=None) -> list[ScenePoint]:
    """A track view outside `view_ids` raises DanglingReference; None checks none."""
    points: dict[int, ScenePoint] = {}
    for line_no, toks in _content_tokens(path):
        if len(toks) < 8:
            raise MalformedLine(line_no, "point line needs at least 8 fields", path)
        if (len(toks) - 8) % 2 != 0:
            raise MalformedLine(line_no, "track must be (image_id, point2d_idx) pairs", path)
        try:
            point_id = int(toks[0])
            xyz = _finite((float(toks[1]), float(toks[2]), float(toks[3])), line_no, path)
            track = tuple(int(toks[i]) for i in range(8, len(toks), 2))
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad point line: {exc}", path) from exc
        if point_id in points:
            raise DuplicateId(line_no, f"duplicate point id {point_id}", path)
        for vid in track:
            _known("view", vid, view_ids, line_no, path)
        points[point_id] = ScenePoint(point_id, xyz, track)
    return [points[pid] for pid in sorted(points)]


def parse_match_graph(path: str, view_ids=None) -> dict[tuple[int, int], int]:
    """Parse VIEW_A VIEW_B MATCH_COUNT lines into {(view_a, view_b): count}.

    Endpoints are normalized to view_a < view_b; duplicate pairs merge by
    taking the maximum count. An endpoint outside `view_ids` raises
    DanglingReference; None checks none.
    """
    merged: dict[tuple[int, int], int] = {}
    for line_no, toks in _content_tokens(path):
        if len(toks) != 3:
            raise MalformedLine(line_no, "match line needs 3 fields", path)
        try:
            a, b, count = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad match line: {exc}", path) from exc
        if a == b:
            raise SelfLoop(line_no, f"self-loop on view {a}", path)
        if count < 0:
            raise MalformedLine(line_no, "negative match count", path)
        if count >= MATCH_COUNT_LIMIT:
            raise MalformedLine(line_no, f"match count {count} is not below 2**63", path)
        if view_ids is not None and (a not in view_ids or b not in view_ids):
            _known("view", a, view_ids, line_no, path)
            _known("view", b, view_ids, line_no, path)
        key = (a, b) if a < b else (b, a)
        if merged.setdefault(key, count) < count:
            merged[key] = count
    return merged


def _fmt(x: float) -> str:
    # repr round-trips exactly through float()
    return repr(float(x))


def write_cameras(cameras: dict[int, CameraIntrinsics], path: str) -> None:
    with open(path, "w") as f:
        f.write("# CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]\n")
        for cid in sorted(cameras):
            cam = cameras[cid]
            params = " ".join(_fmt(p) for p in cam.params)
            f.write(f"{cid} {cam.model.value} {cam.width} {cam.height} {params}\n")


def write_images(views: dict[int, PosedView], path: str) -> None:
    with open(path, "w") as f:
        f.write("# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n")
        for vid in sorted(views):
            v = views[vid]
            q = " ".join(_fmt(c) for c in v.rotation)
            t = " ".join(_fmt(c) for c in v.translation)
            f.write(f"{vid} {q} {t} {v.camera_id} {v.image_name}\n")
            f.write("\n")  # empty observation line


def write_points(points: list[ScenePoint], path: str) -> None:
    with open(path, "w") as f:
        f.write("# POINT3D_ID X Y Z R G B ERROR TRACK[]\n")
        for p in sorted(points, key=lambda p: p.point_id):
            xyz = " ".join(_fmt(c) for c in p.xyz)
            track = " ".join(f"{vid} 0" for vid in p.track)
            tail = f" {track}" if track else ""
            f.write(f"{p.point_id} {xyz} 0 0 0 0{tail}\n")


def write_match_graph(edges: dict[tuple[int, int], int], path: str) -> None:
    with open(path, "w") as f:
        f.write("# VIEW_A VIEW_B MATCH_COUNT\n")
        for (a, b), count in sorted(edges.items()):
            f.write(f"{a} {b} {count}\n")


def write_reconstruction(scene: SceneReconstruction, directory: str) -> None:
    """Write cameras.txt, images.txt, points3D.txt and matches.txt."""
    os.makedirs(directory, exist_ok=True)
    write_cameras(scene.intrinsics, os.path.join(directory, "cameras.txt"))
    write_images(scene.views, os.path.join(directory, "images.txt"))
    write_points(scene.points, os.path.join(directory, "points3D.txt"))
    write_match_graph(scene.edges, os.path.join(directory, "matches.txt"))


def load_scene_dir(directory: str, matches_path: str | None = None) -> SceneReconstruction:
    """Load a scene from a directory laid out as written by write_reconstruction.

    points3D.txt and matches.txt are optional. Each file's references are
    checked while it is read, against the ids of the files read before it.
    """
    cameras = parse_cameras(os.path.join(directory, "cameras.txt"))
    views = parse_images(os.path.join(directory, "images.txt"), cameras)
    points = os.path.join(directory, "points3D.txt")
    if matches_path is None:
        candidate = os.path.join(directory, "matches.txt")
        matches_path = candidate if os.path.exists(candidate) else None
    return SceneReconstruction(
        scene_id=os.path.basename(os.path.abspath(directory)),
        intrinsics=cameras,
        views=views,
        edges=parse_match_graph(matches_path, views) if matches_path else {},
        points=parse_points(points, views) if os.path.exists(points) else [],
    )
