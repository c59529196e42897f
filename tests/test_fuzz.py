"""Fuzzing the file and config readers: on any bytes or text, they return
or raise a ``DeblurError`` subclass, never another exception.

Each property starts from arbitrary input and from valid files that are
mutated (bytes replaced, inserted, deleted) or cut.  Runs are derandomized
and keep no example database, so they repeat exactly; Hypothesis's own
caches go to ``salientdeblur-hypothesis`` under the system's temporary
directory, so the runs leave nothing in the checkout.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import salientdeblur as sd
from salientdeblur.fileio import read_image, read_kernel
from salientdeblur.pipeline import parse_config_text

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "salientdeblur-hypothesis")

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=600,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

IMAGE_SUFFIXES = (".png", ".pgm", ".ppm")


def _valid_images(root):
    """Small valid files of every image kind the readers take, by suffix."""
    rng = np.random.default_rng(0)
    gray, rgb = rng.random((5, 4)), rng.random((3, 4, 3))
    blobs = {suffix: [] for suffix in IMAGE_SUFFIXES}
    for name, img, depth in (("g8.png", gray, 8), ("g16.png", gray, 16), ("c8.png", rgb, 8),
                             ("c16.png", rgb, 16), ("g8.pgm", gray, 8), ("g16.pgm", gray, 16),
                             ("c8.ppm", rgb, 8), ("c16.ppm", rgb, 16)):
        path = root / name
        sd.write_image(path, img, bit_depth=depth)
        blobs[path.suffix].append(path.read_bytes())
    blobs[".pgm"].append(b"P2\n# ascii\n3 2\n255\n0 12 255\n7 8 9\n")
    blobs[".ppm"].append(b"P3\n1 2\n65535\n1 2 3 65535 0 7\n")
    return blobs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _valid_images(root)


def _mutated(data, blob):
    """``blob`` with a few bytes replaced, inserted or deleted, then maybe cut."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(0, 4), label="edits")):
        pos = data.draw(st.integers(0, len(out)), label="position")
        kind = data.draw(st.sampled_from(("replace", "insert", "delete")), label="edit")
        byte = data.draw(st.integers(0, 255), label="byte")
        if kind == "insert":
            out.insert(pos, byte)
        elif pos < len(out):
            if kind == "replace":
                out[pos] = byte
            else:
                del out[pos]
    return bytes(out[: data.draw(st.integers(0, len(out)), label="cut")])


def _reads_or_refuses(read, path):
    try:
        read(path)
    except sd.DeblurError:
        pass


@FUZZ
@given(data=st.data(), suffix=st.sampled_from(IMAGE_SUFFIXES))
def test_read_image_on_mutated_files(workdir, data, suffix):
    root, blobs = workdir
    blob = data.draw(st.sampled_from(blobs[suffix]), label="valid file")
    path = root / ("mutated" + suffix)
    path.write_bytes(_mutated(data, blob))
    _reads_or_refuses(read_image, path)


@FUZZ
@given(blob=st.binary(max_size=96), suffix=st.sampled_from(IMAGE_SUFFIXES),
       header=st.sampled_from((b"", b"\x89PNG\r\n\x1a\n", b"P2\n", b"P3 ", b"P5\n", b"P6 ")))
def test_read_image_on_arbitrary_bytes(workdir, blob, suffix, header):
    root, _ = workdir
    path = root / ("arbitrary" + suffix)
    path.write_bytes(header + blob)
    _reads_or_refuses(read_image, path)


@FUZZ
@given(data=st.data())
def test_read_kernel_on_mutated_and_arbitrary_files(workdir, data):
    root, _ = workdir
    valid = b"3 2\n0.1 0 0.2\n1e-3 0.5 7\n"
    kind = data.draw(st.sampled_from(("mutated", "bytes", "text")), label="kind")
    if kind == "mutated":
        blob = _mutated(data, valid)
    elif kind == "bytes":
        blob = data.draw(st.binary(max_size=64), label="bytes")
    else:
        blob = data.draw(st.text(alphabet="0123456789.-+eE naif\n\t", max_size=48), label="text").encode()
    path = root / "kernel.txt"
    path.write_bytes(blob)
    _reads_or_refuses(read_kernel, path)


_KEYS = ("kernel_size", "theta0", "lambda_c", "lambda_final", "gamma", "alpha", "inner_iters", "decay",
         "window", "mu", "threshold", "tv_iters", "")
_VALUES = st.one_of(st.sampled_from(("none", "None", "nan", "inf", "-inf", "0", "-1", "7", "8", "1e309",
                                     "0.5", "1_0", "", "=", "#")),
                    st.integers(-10, 10**6).map(str), st.floats().map(repr), st.text(max_size=8))


@FUZZ
@given(lines=st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), max_size=6),
       noise=st.text(max_size=32), kernel_size=st.one_of(st.none(), st.integers(-3, 31)))
def test_parse_config_text_on_arbitrary_text(lines, noise, kernel_size):
    text = "\n".join("%s = %s" % pair for pair in lines) + "\n" + noise
    try:
        parse_config_text(text, kernel_size=kernel_size)
    except sd.DeblurError:
        pass
