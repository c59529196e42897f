import struct
import zlib

import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.fileio import _PNG_SIG, _png_chunk

from oracles import png_with_filters


def quantized(img, depth):
    scale = 255.0 if depth == 8 else 65535.0
    return np.rint(np.clip(img, 0, 1) * scale) / scale


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("channels", [1, 3])
def test_png_round_trip(tmp_path, depth, channels):
    rng = np.random.default_rng(depth + channels)
    shape = (13, 17) if channels == 1 else (13, 17, 3)
    img = rng.random(shape)
    path = tmp_path / "img.png"
    sd.write_image(path, img, bit_depth=depth)
    back = sd.read_image(path)
    assert back.shape == img.shape
    assert np.array_equal(back, quantized(img, depth))


def test_png_16bit_preserves_precision(tmp_path):
    img = np.full((4, 4), 12345.0 / 65535.0)
    path = tmp_path / "precise.png"
    sd.write_image(path, img, bit_depth=16)
    assert np.array_equal(sd.read_image(path), img)


def test_png_deterministic_bytes(tmp_path):
    img = np.random.default_rng(3).random((9, 9))
    a, b = tmp_path / "a.png", tmp_path / "b.png"
    sd.write_image(a, img)
    sd.write_image(b, img)
    assert a.read_bytes() == b.read_bytes()


def test_png_decodes_all_filter_types(tmp_path):
    rng = np.random.default_rng(0)
    rows = [list(rng.integers(0, 256, size=12)) for _ in range(5)]
    blob = png_with_filters(rows, filters=[0, 1, 2, 3, 4])
    path = tmp_path / "filtered.png"
    path.write_bytes(blob)
    img = sd.read_image(path)
    assert np.array_equal(np.rint(img * 255).astype(int), np.array(rows).reshape(5, 12))


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("channels", [1, 3])
def test_png_filter_round_trip_bit_exact(tmp_path, depth, channels):
    # every filter type follows every other, including runs of the
    # sequential Average and Paeth filters
    filters = [0, 1, 2, 3, 4, 4, 3, 3, 0, 4, 2, 4, 1, 3, 2, 0, 1, 1, 4, 0]
    h, w = len(filters), 11
    rng = np.random.default_rng(10 * depth + channels)
    samples = rng.integers(0, 2**depth, size=(h, w, channels))
    # half the rows smooth, so the predictors see small differences too
    samples[::2] = np.cumsum(rng.integers(0, 3, size=(h // 2, w, channels)), axis=1) % 2**depth
    raw = samples.astype(">u1" if depth == 8 else ">u2").reshape(h, -1).view(np.uint8)
    path = tmp_path / "filtered.png"
    path.write_bytes(png_with_filters(list(raw), filters, depth, channels))
    img = sd.read_image(path)
    expect = samples / float(2**depth - 1)
    assert np.array_equal(img, expect[:, :, 0] if channels == 1 else expect)


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("color_type, channels", [(4, 1), (6, 3)], ids=["gray-alpha", "rgba"])
def test_png_alpha_is_dropped(tmp_path, depth, color_type, channels):
    # gray+alpha reads as (h, w) and RGBA as (h, w, 3); the alpha samples
    # are random, so they would show if kept
    h, w = 5, 7
    samples = np.random.default_rng(depth + color_type).integers(0, 2 ** depth, size=(h, w, channels + 1))
    rows = samples.astype(">u1" if depth == 8 else ">u2").reshape(h, -1).view(np.uint8)
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, 0)
    idat = zlib.compress(b"".join(b"\x00" + row.tobytes() for row in rows))
    path = tmp_path / "alpha.png"
    path.write_bytes(_PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b""))
    expected = samples[:, :, :channels] / (2.0 ** depth - 1.0)
    assert np.array_equal(sd.read_image(path), expected[:, :, 0] if channels == 1 else expected)


def test_png_rejects_unknown_filter(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 3, 1, 8, 0, 0, 0, 0)
    blob = (_PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(b"\x05\x01\x02\x03"))
            + _png_chunk(b"IEND", b""))
    path = tmp_path / "f.png"
    path.write_bytes(blob)
    with pytest.raises(sd.InvalidInputError, match="filter 5"):
        sd.read_image(path)


def test_png_rejects_truncated_data(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 3, 2, 8, 0, 0, 0, 0)
    blob = (_PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(b"\x00\x01\x02\x03"))
            + _png_chunk(b"IEND", b""))
    path = tmp_path / "t.png"
    path.write_bytes(blob)
    with pytest.raises(sd.InvalidInputError, match="truncated"):
        sd.read_image(path)


def test_png_rejects_interlaced(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 1)
    blob = _PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(b"")) + _png_chunk(b"IEND", b"")
    path = tmp_path / "i.png"
    path.write_bytes(blob)
    with pytest.raises(sd.InvalidInputError):
        sd.read_image(path)


@pytest.mark.parametrize("depth", [8, 16])
def test_pnm_round_trip_gray(tmp_path, depth):
    img = np.random.default_rng(1).random((7, 9))
    path = tmp_path / "img.pgm"
    sd.write_image(path, img, bit_depth=depth)
    assert np.array_equal(sd.read_image(path), quantized(img, depth))


@pytest.mark.parametrize("depth", [8, 16])
def test_pnm_round_trip_color(tmp_path, depth):
    img = np.random.default_rng(2).random((6, 5, 3))
    path = tmp_path / "img.ppm"
    sd.write_image(path, img, bit_depth=depth)
    assert np.array_equal(sd.read_image(path), quantized(img, depth))


def test_pnm_ascii_read(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n")
    img = sd.read_image(path)
    assert img.shape == (2, 3)
    assert np.allclose(img * 255, [[0, 128, 255], [64, 32, 16]])


@pytest.mark.parametrize("name, blob", [
    ("a.pgm", b"P2\n2 2\n255\n0 300 -5 3\n"),
    ("a.pgm", b"P2\n2 2\n255\n0 256 1 3\n"),
    ("a.pgm", b"P2\n2 2\n255\n0 -1 1 3\n"),
    ("a.ppm", b"P3\n1 1\n15\n0 16 3\n"),
    ("a.pgm", b"P5\n2 2\n100\n" + bytes([0, 200, 5, 3])),
], ids=["ascii-both", "ascii-above", "ascii-below", "ascii-color", "binary-above"])
def test_pnm_samples_outside_maxval_rejected(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(sd.InvalidInputError, match=r"outside \[0, \d+\]"):
        sd.read_image(path)


def test_pnm_comment_runs_to_line_end_and_only_starts_a_token(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment 7 7\n2 1 # trailing\n255#\n0 255\n")
    with pytest.raises(sd.InvalidInputError, match="malformed PNM header"):
        sd.read_image(path)  # '255#' is one token: a '#' inside a token is not a comment
    path.write_bytes(b"P2\n# a comment 7 7\n2 1 # trailing\n255\n0 255\n")
    assert np.array_equal(sd.read_image(path), [[0.0, 1.0]])


def test_single_channel_stack_writes_as_gray(tmp_path):
    img = np.random.default_rng(4).random((6, 5))
    for suffix in (".png", ".pgm"):
        sd.write_image(tmp_path / ("stack" + suffix), img[:, :, None])
        sd.write_image(tmp_path / ("gray" + suffix), img)
        assert (tmp_path / ("stack" + suffix)).read_bytes() == (tmp_path / ("gray" + suffix)).read_bytes()


def test_missing_file_names_path(tmp_path):
    target = tmp_path / "nope.png"
    with pytest.raises(sd.InvalidInputError) as info:
        sd.read_image(target)
    assert str(target) in str(info.value)


def test_kernel_text_round_trip(tmp_path):
    k = np.random.default_rng(4).random((5, 3))
    k /= k.sum()
    path = tmp_path / "k.txt"
    sd.write_kernel(path, k)
    back = sd.read_kernel(path)
    assert np.array_equal(back, k)
    first = path.read_text().splitlines()[0]
    assert first.split() == ["3", "5"]  # "w h" header


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("write, name", [
    (lambda path, a: sd.write_image(path.with_suffix(".png"), a), "image samples"),
    (lambda path, a: sd.write_image(path.with_suffix(".pgm"), a), "image samples"),
    (lambda path, a: sd.write_kernel(path.with_suffix(".txt"), a), "kernel weights"),
    (lambda path, a: sd.write_kernel_image(path.with_suffix(".png"), a), "kernel weights"),
], ids=["png", "pgm", "kernel", "kernel-image"])
def test_writers_reject_non_finite_samples(tmp_path, write, name, bad):
    # NaN was written as black pixels (after a RuntimeWarning) or as "nan",
    # which read_kernel then refused
    a = np.full((5, 5), 0.04)
    a[2, 3] = bad
    with pytest.raises(sd.InvalidInputError, match="save: %s must be finite" % name):
        write(tmp_path / "out", a)
    assert not list(tmp_path.iterdir())


def test_kernel_image_export(tmp_path):
    k = sd.delta_kernel(5)
    path = tmp_path / "k.png"
    sd.write_kernel_image(path, k)
    img = sd.read_image(path)
    assert img.shape == (5, 5)
    assert img[2, 2] == 1.0
