import numpy as np
import pytest

from sparseview.depth_filter import DepthMap
from sparseview.errors import MalformedLine
from sparseview.pfm import read_pfm, write_pfm


def test_round_trip_values(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 20.0, size=(7, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap.from_array(values))
    back = read_pfm(str(path))
    assert (back.width, back.height) == (5, 7)
    assert np.array_equal(back.values, values)


def test_second_write_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(5):
        values = rng.uniform(0.0, 9.0, size=(rng.integers(2, 9), rng.integers(2, 9)))
        values[rng.random(values.shape) < 0.2] = np.nan
        p1, p2 = tmp_path / f"a{trial}.pfm", tmp_path / f"b{trial}.pfm"
        write_pfm(str(p1), DepthMap.from_array(values))
        write_pfm(str(p2), read_pfm(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()


def test_invalid_encoded_as_zero(tmp_path):
    values = np.array([[1.0, np.nan], [np.inf, 4.0]])
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap.from_array(values))
    back = read_pfm(str(path))
    assert back.values[0, 1] == 0.0
    assert back.values[1, 0] == 0.0
    assert not back.valid_mask[0, 1]


def test_rows_bottom_to_top(tmp_path):
    # bottom row must appear first in the payload
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap.from_array(values))
    raw = path.read_bytes()
    header_end = raw.index(b"-1.0\n") + 5
    payload = np.frombuffer(raw[header_end:], dtype="<f4")
    assert payload.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_header_canonical(tmp_path):
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap.from_array(np.ones((2, 3))))
    assert path.read_bytes().startswith(b"Pf\n3 2\n-1.0\n")


def test_big_endian_read(tmp_path):
    values = np.array([[1.5, 2.5]], dtype=">f4")
    path = tmp_path / "d.pfm"
    with open(path, "wb") as f:
        f.write(b"Pf\n2 1\n1.0\n")
        f.write(np.flipud(values).tobytes())
    back = read_pfm(str(path))
    assert back.values.tolist() == [[1.5, 2.5]]


def test_bad_magic(tmp_path):
    path = tmp_path / "d.pfm"
    path.write_bytes(b"PF\n2 1\n-1.0\n" + b"\x00" * 24)
    with pytest.raises(MalformedLine):
        read_pfm(str(path))


def test_truncated_payload(tmp_path):
    path = tmp_path / "d.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
    with pytest.raises(MalformedLine):
        read_pfm(str(path))


@pytest.mark.parametrize(
    "content,reason",
    [
        (b"Pf\n2 1", "truncated header"),
        (b"Pf\n2 1\nnan\n" + b"\x00" * 8, "scale"),
        (b"Pf\n2 1\ninf\n" + b"\x00" * 8, "scale"),
        (b"Pf\n2 1\n0.0\n" + b"\x00" * 8, "scale"),
        (b"Pf\n100000 100000\n-1.0\n" + b"\x00" * 8, "truncated pixel data"),
    ],
    ids=["truncated-header", "nan-scale", "inf-scale", "zero-scale", "oversized-claim"],
)
def test_malformed_header_names_file(tmp_path, content, reason):
    path = tmp_path / "d.pfm"
    path.write_bytes(content)
    with pytest.raises(MalformedLine, match=reason) as exc:
        read_pfm(str(path))
    assert exc.value.path == str(path)
