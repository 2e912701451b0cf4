import numpy as np
import pytest

from conftest import traced_peak
from sparseview import depth_filter
from sparseview.depth_filter import DepthMap
from sparseview.errors import MalformedLine
from sparseview.pfm import read_pfm, write_pfm


def test_round_trip_values(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 20.0, size=(7, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap(values))
    back = read_pfm(str(path))
    assert (back.width, back.height) == (5, 7)
    assert np.array_equal(back.values, values)


def test_second_write_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(5):
        values = rng.uniform(0.0, 9.0, size=(rng.integers(2, 9), rng.integers(2, 9)))
        values[rng.random(values.shape) < 0.2] = np.nan
        p1, p2 = tmp_path / f"a{trial}.pfm", tmp_path / f"b{trial}.pfm"
        write_pfm(str(p1), DepthMap(values))
        write_pfm(str(p2), read_pfm(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()


def test_invalid_encoded_as_zero(tmp_path):
    values = np.array([[1.0, np.nan], [np.inf, 4.0]])
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap(values))
    back = read_pfm(str(path))
    assert back.values[0, 1] == 0.0
    assert back.values[1, 0] == 0.0
    assert not back.valid_mask[0, 1]


def test_only_non_finite_depths_are_encoded_as_zero(tmp_path):
    # -1.0 and 0.0 are invalid depths too, but finite: written as they are
    values = np.array([[-1.0, 0.0], [-0.0, 2.5]], dtype=np.float32)
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap(values))
    back = read_pfm(str(path)).values
    assert back.tobytes() == values.tobytes()
    assert DepthMap(back).valid_mask.tolist() == [[False, False], [False, True]]


def test_beyond_float32_range_encoded_as_zero(tmp_path):
    # finite in float64, inf once cast: written as 0 like any invalid depth,
    # with no overflow warning (Tier-1 turns a RuntimeWarning into a failure)
    values = np.array([[1.0, 1e39], [2.0, -1e39]])
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap(values))
    assert read_pfm(str(path)).values.tolist() == [[1.0, 0.0], [2.0, 0.0]]


def test_rows_bottom_to_top(tmp_path):
    # bottom row must appear first in the payload
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap(values))
    raw = path.read_bytes()
    header_end = raw.index(b"-1.0\n") + 5
    payload = np.frombuffer(raw[header_end:], dtype="<f4")
    assert payload.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_header_canonical(tmp_path):
    path = tmp_path / "d.pfm"
    write_pfm(str(path), DepthMap(np.ones((2, 3))))
    assert path.read_bytes().startswith(b"Pf\n3 2\n-1.0\n")


def test_big_endian_read(tmp_path):
    values = np.array([[1.5, 2.5]], dtype=">f4")
    path = tmp_path / "d.pfm"
    with open(path, "wb") as f:
        f.write(b"Pf\n2 1\n1.0\n")
        f.write(np.flipud(values).tobytes())
    back = read_pfm(str(path))
    assert back.values.tolist() == [[1.5, 2.5]]


@pytest.mark.parametrize("order,scale", [("<", "-1.0"), (">", "1.0")], ids=["little", "big"])
def test_read_gives_native_float32_in_either_byte_order(tmp_path, order, scale):
    values = np.array([[1.5, -0.0, np.nan], [3e38, 1e-45, np.inf]], dtype=np.float32)
    path = tmp_path / "d.pfm"
    raster = np.flipud(values).astype(order + "f4").tobytes()
    path.write_bytes(f"Pf\n3 2\n{scale}\n".encode() + raster)
    back = read_pfm(str(path)).values
    assert back.dtype == np.float32 and back.dtype.isnative and back.flags.c_contiguous
    assert back.tobytes() == values.tobytes()


def test_read_then_write_is_byte_identical(tmp_path):
    # any finite float32, subnormals, -0.0 and float32's extremes included:
    # write_pfm changes only non-finite pixels
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**32, size=(9, 6), dtype=np.uint64).astype(np.uint32)
    values = bits.view(np.float32)
    values[~np.isfinite(values)] = 1.0
    values[0, :5] = [-0.0, 1e-45, -1e-45, np.finfo(np.float32).max, np.finfo(np.float32).min]
    first, second = tmp_path / "a.pfm", tmp_path / "b.pfm"
    first.write_bytes(b"Pf\n6 9\n-1.0\n" + np.flipud(values).astype("<f4").tobytes())
    write_pfm(str(second), read_pfm(str(first)))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("shape", [(3, 4), (1, 4)], ids=["rows", "one-row"])
def test_write_leaves_a_flipped_float32_input_unchanged(tmp_path, shape):
    # flipping back makes these contiguous, so a cast that is no copy would
    # zero the caller's NaN and inf in place
    values = np.arange(1.0, 1.0 + np.prod(shape), dtype=np.float32).reshape(shape)
    values[0, 1], values[-1, 2] = np.nan, np.inf
    flipped = np.flipud(values)
    before = flipped.tobytes()
    depth = DepthMap(flipped)
    assert depth.values is flipped
    write_pfm(str(tmp_path / "d.pfm"), depth)
    assert flipped.tobytes() == before


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
        (b"Pf\n2 x\n-1.0\n" + b"\x00" * 8, "bad dimensions or scale"),
        # a 3x2 raster under a 3x1 header
        (b"Pf\n3 1\n-1.0\n" + b"\x00" * 24, ":3: 12 bytes after the 3x1 pixel data"),
    ],
    ids=["truncated-header", "nan-scale", "inf-scale", "zero-scale", "oversized-claim",
         "non-integer-height", "bytes-after-raster"],
)
def test_malformed_header_names_file(tmp_path, content, reason):
    path = tmp_path / "d.pfm"
    path.write_bytes(content)
    with pytest.raises(MalformedLine, match=reason) as exc:
        read_pfm(str(path))
    assert exc.value.path == str(path)


def test_a_huge_header_token_is_refused_at_once(tmp_path):
    # a 1 MB width is refused once it passes 64 bytes, not read to its end
    path = tmp_path / "d.pfm"
    path.write_bytes(b"Pf\n" + b"9" * 1_000_000 + b" 1\n-1.0\n")
    with pytest.raises(MalformedLine, match=":2: header token longer than 64 bytes"):
        read_pfm(str(path))


def _hd_map():
    """A 1080x1920 float32 map with NaN and inf pixels: 7.9 MiB of raster."""
    values = np.random.default_rng(1080).uniform(0.5, 80.0, size=(1080, 1920)).astype(np.float32)
    values[::7, ::5] = np.nan
    values[3::11, ::13] = np.inf
    return values


def _band_bytes(width):
    """The bytes of the one band of float32 rows the reader and writer use:
    `BAND_ROWS` rows, the depth filter's band height."""
    return depth_filter.BAND_ROWS * width * 4


# What a call holds beside its arrays: the file object, header tokens, the
# DepthMap. Measured at under 6 KiB over the arrays on 1080p maps.
IO_SLACK = 64 << 10


def test_read_pfm_holds_its_raster_plus_one_band(tmp_path):
    # bound: the 1080-row raster (7.91 MiB), one band of BAND_ROWS = 32 rows
    # (0.23 MiB) and the slack (0.06 MiB); traced 8.15 MiB. A second copy of
    # the raster breaks it
    path = tmp_path / "hd.pfm"
    write_pfm(str(path), DepthMap(_hd_map()))
    depth, peak = traced_peak(lambda: read_pfm(str(path)))
    bound = depth.values.nbytes + _band_bytes(depth.width) + IO_SLACK
    assert peak <= bound, f"read_pfm peaked at {peak} bytes, bound {bound}"


def test_write_pfm_holds_one_band_and_its_mask(tmp_path):
    # bound: one band of BAND_ROWS = 32 rows (0.23 MiB), its mask of the same
    # rows (0.06 MiB) and the slack (0.06 MiB); traced 0.30 MiB. A whole-map
    # copy or mask breaks it
    depth = DepthMap(_hd_map())
    _, peak = traced_peak(lambda: write_pfm(str(tmp_path / "hd.pfm"), depth))
    band = _band_bytes(depth.width)
    bound = band + band // 4 + IO_SLACK
    assert peak <= bound, f"write_pfm peaked at {peak} bytes, bound {bound}"


# sha256 over the files write_pfm makes of the _pfm_golden_maps
PFM_GOLDEN_DIGEST = "a36dffdc9f88b28535af695dd541cb1f94d2a67aebe6029a72e154d0cd9d1e86"


def _pfm_golden_maps():
    """200 seeded maps of mixed shapes, salted with NaN, +-inf, +-0, tiny and
    huge magnitudes (1e+-300, and values past the float32 range, which are
    written as 0), plus one 1080x1920 map."""
    specials = np.array(
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e39,
         -1e39, 3.4028235e38, 1e-45, 5e-324, 1.0]
    )
    for seed in range(200):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        values = rng.uniform(-5.0, 50.0, size=shape)
        salt = rng.random(shape) < rng.uniform(0.0, 0.5)
        values[salt] = rng.choice(specials, size=int(salt.sum()))
        yield values
    values = np.random.default_rng(200).uniform(0.5, 80.0, size=(1080, 1920))
    values[::7, ::5] = np.nan
    yield values


def test_golden_bytes(tmp_path):
    """Pins the exact bytes write_pfm writes, non-finite and out-of-range
    pixels included."""
    import hashlib

    h = hashlib.sha256()
    path = tmp_path / "d.pfm"
    for values in _pfm_golden_maps():
        write_pfm(str(path), DepthMap(values))
        h.update(path.read_bytes())
    assert h.hexdigest() == PFM_GOLDEN_DIGEST
