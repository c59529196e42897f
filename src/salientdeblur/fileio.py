"""Image and kernel file I/O.

Supported image formats: PNG (8- and 16-bit, grayscale and RGB; alpha is
dropped on read) and binary/ASCII PNM (PGM/PPM).  Samples map linearly to
[0, 1].  Kernels use a plain-text matrix format: first line ``w h``, then h
rows of w decimal values.

The PNG codec is self-contained (zlib + struct): it covers 16-bit RGB both
ways and produces byte-identical files for identical inputs.
"""

from __future__ import annotations

import re
import struct
import zlib
from pathlib import Path

import numpy as np

from .core import _check_finite
from .errors import InvalidInputError

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------

def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _write_png(path: Path, samples: np.ndarray, bit_depth: int) -> None:
    # samples: integer array (h, w) or (h, w, 3) already scaled to the depth
    color_type = 0 if samples.ndim == 2 else 2
    h, w = samples.shape[:2]
    if bit_depth == 8:
        raw = samples.astype(">u1")
    else:
        raw = samples.astype(">u2")
    rows = raw.reshape(h, -1).view(np.uint8)
    scanlines = b"".join(b"\x00" + rows[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    blob = (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(scanlines, 9))
        + _png_chunk(b"IEND", b"")
    )
    path.write_bytes(blob)


def _unfilter(data: bytes, h: int, w: int, channels: int, bytes_per_sample: int) -> np.ndarray:
    bpp = channels * bytes_per_sample
    stride = w * bpp
    if len(data) < h * (stride + 1):
        raise InvalidInputError("load: PNG image data truncated")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    pos = 0
    for y in range(h):
        ftype = data[pos]
        row = np.frombuffer(data, dtype=np.uint8, count=stride, offset=pos + 1).astype(np.int64)
        pos += 1 + stride
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for r in range(bpp):
                row[r::bpp] = np.cumsum(row[r::bpp])
            row &= 0xFF
        elif ftype == 2:  # Up
            row = (row + prev) & 0xFF
        elif ftype in (3, 4):  # Average, Paeth: each byte needs its decoded left neighbour
            # plain ints, not numpy scalars, in this byte-at-a-time loop
            x, up = row.tolist(), prev.tolist()
            for i in range(stride):
                a = x[i - bpp] if i >= bpp else 0
                b = up[i]
                if ftype == 3:
                    pred = (a + b) >> 1
                else:
                    # distances of p = a + b - c to a, b and c
                    c = up[i - bpp] if i >= bpp else 0
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                x[i] = (x[i] + pred) & 0xFF
            row = np.array(x, dtype=np.int64)
        else:
            raise InvalidInputError("load: PNG row filter %d unsupported" % ftype)
        out[y] = row.astype(np.uint8)
        prev = row
    return out


def _read_png(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if blob[:8] != _PNG_SIG:
        raise InvalidInputError("load: %s is not a PNG file" % path)
    pos = 8
    ihdr = None
    idat = b""
    while pos < len(blob):
        length = int.from_bytes(blob[pos : pos + 4], "big")  # a cut file may end mid-field
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR" and len(payload) == 13:  # a cut or short one is no header
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise InvalidInputError("load: %s has no PNG header" % path)
    w, h, depth, color_type, _, _, interlace = ihdr
    if w < 1 or h < 1:
        raise InvalidInputError("load: PNG header of %s states %dx%d pixels" % (path, w, h))
    if interlace != 0:
        raise InvalidInputError("load: interlaced PNG unsupported (%s)" % path)
    if depth not in (8, 16):
        raise InvalidInputError("load: PNG bit depth %d unsupported (%s)" % (depth, path))
    n_channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color_type)
    if n_channels is None:
        raise InvalidInputError("load: PNG color type %d unsupported (%s)" % (color_type, path))
    try:
        data = zlib.decompress(idat)
    except zlib.error as exc:
        raise InvalidInputError("load: corrupt or truncated PNG image data in %s" % path) from exc
    rows = _unfilter(data, h, w, n_channels, depth // 8)
    if depth == 8:
        arr = rows.reshape(h, w, n_channels).astype(np.float64) / 255.0
    else:
        arr = rows.view(">u2").reshape(h, w, n_channels).astype(np.float64) / 65535.0
    if n_channels in (2, 4):  # drop alpha
        arr = arr[:, :, : n_channels - 1]
    if arr.shape[2] == 1:
        return arr[:, :, 0]
    return arr


# ---------------------------------------------------------------------------
# PNM (PGM/PPM)
# ---------------------------------------------------------------------------

def _pnm_tokens(blob: bytes):
    """The (token, end offset) pairs of a PNM file; a '#' that starts a token
    starts a comment, which runs to the end of its line."""
    matches = re.finditer(rb"#[^\n]*|[^\s#]\S*", blob)
    return ((m[0], m.end()) for m in matches if not m[0].startswith(b"#"))


def _read_pnm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    toks = _pnm_tokens(blob)
    try:
        magic, _ = next(toks)
        magic = magic.decode("ascii")
        if magic not in ("P2", "P3", "P5", "P6"):
            raise InvalidInputError("load: %s is not a supported PNM file" % path)
        (w_tok, _), (h_tok, _) = next(toks), next(toks)
        maxval_tok, end = next(toks)
        w, h, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except (StopIteration, ValueError) as exc:
        raise InvalidInputError("load: malformed PNM header in %s" % path) from exc
    if w < 1 or h < 1 or not 1 <= maxval <= 65535:
        raise InvalidInputError("load: PNM header of %s states %dx%d pixels of maxval %d" % (path, w, h, maxval))
    channels = 3 if magic in ("P3", "P6") else 1
    count = w * h * channels
    if magic in ("P2", "P3"):
        try:
            values = np.array([int(t) for t, _ in toks], dtype=np.float64)
        except ValueError as exc:
            raise InvalidInputError("load: PNM sample that is not an integer in %s" % path) from exc
        if values.size != count:
            raise InvalidInputError("load: PNM sample count mismatch in %s" % path)
    else:
        data = blob[end + 1 :]
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        if len(data) < count * dtype.itemsize:
            raise InvalidInputError("load: PNM sample data truncated in %s" % path)
        values = np.frombuffer(data, dtype=dtype, count=count).astype(np.float64)
    if not 0 <= values.min() <= values.max() <= maxval:
        raise InvalidInputError("load: PNM samples outside [0, %d] in %s" % (maxval, path))
    arr = values.reshape(h, w, channels) / float(maxval)
    return arr[:, :, 0] if channels == 1 else arr


def _write_pnm(path: Path, samples: np.ndarray, bit_depth: int) -> None:
    h, w = samples.shape[:2]
    magic = b"P5" if samples.ndim == 2 else b"P6"
    maxval = 255 if bit_depth == 8 else 65535
    dtype = np.uint8 if bit_depth == 8 else ">u2"
    header = magic + b"\n%d %d\n%d\n" % (w, h, maxval)
    path.write_bytes(header + samples.astype(dtype).tobytes())


# ---------------------------------------------------------------------------
# Public image API
# ---------------------------------------------------------------------------

def read_image(path) -> np.ndarray:
    """Read a PNG or PNM image as float64 in [0, 1]; (h, w) or (h, w, 3)."""
    path = Path(path)
    if not path.is_file():
        raise InvalidInputError("load: no such file: %s" % path)
    suffix = path.suffix.lower()
    if suffix == ".png":
        return _read_png(path)
    if suffix in (".pgm", ".ppm", ".pnm"):
        return _read_pnm(path)
    raise InvalidInputError("load: unsupported image format %r (%s)" % (suffix, path))


def write_image(path, img, bit_depth: int = 8) -> None:
    """Write a [0, 1] image as PNG or PNM at the requested bit depth; samples
    outside [0, 1] are clipped, and a non-finite one is an error."""
    path = Path(path)
    a = np.asarray(img, dtype=np.float64)
    if a.ndim == 3 and a.shape[2] == 1:
        a = a[:, :, 0]
    if a.ndim not in (2, 3) or (a.ndim == 3 and a.shape[2] != 3):
        raise InvalidInputError("save: expected (h, w) or (h, w, 3) image for %s" % path)
    _check_finite("save: image samples", a)
    if bit_depth not in (8, 16):
        raise InvalidInputError("save: bit depth must be 8 or 16")
    scale = 255.0 if bit_depth == 8 else 65535.0
    q = np.rint(np.clip(a, 0.0, 1.0) * scale)
    suffix = path.suffix.lower()
    if suffix == ".png":
        _write_png(path, q, bit_depth)
    elif suffix in (".pgm", ".ppm", ".pnm"):
        if suffix == ".pgm" and a.ndim == 3:
            raise InvalidInputError("save: PGM holds a single channel (%s)" % path)
        if suffix == ".ppm" and a.ndim == 2:
            raise InvalidInputError("save: PPM holds three channels (%s)" % path)
        _write_pnm(path, q, bit_depth)
    else:
        raise InvalidInputError("save: unsupported image format %r (%s)" % (suffix, path))


# ---------------------------------------------------------------------------
# Kernel files
# ---------------------------------------------------------------------------

def read_kernel(path) -> np.ndarray:
    """Read a plain-text kernel matrix: a ``w h`` header, then exactly h rows
    of w finite, non-negative values with a positive sum.  The sides may be
    even, and the values need not sum to one."""
    path = Path(path)
    if not path.is_file():
        raise InvalidInputError("load: no such file: %s" % path)
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]  # not text: a ValueError
        w, h = (int(tok) for tok in lines[0].split())
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    except (ValueError, IndexError) as exc:
        raise InvalidInputError("load: malformed kernel file %s" % path) from exc
    if min(w, h) < 1 or len(rows) != h or any(len(row) != w for row in rows):
        raise InvalidInputError("load: kernel file %s does not hold the %d rows of %d values its header states"
                                % (path, h, w))
    k = np.array(rows, dtype=np.float64)
    _check_finite("load: kernel file %s values" % path, k)
    if np.any(k < 0) or not k.sum() > 0.0:
        raise InvalidInputError("kernel: weights must be non-negative with a positive sum, in %s" % path)
    return k


def write_kernel(path, kernel) -> None:
    """Write a kernel in the plain-text matrix format (full precision)."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2:
        raise InvalidInputError("save: kernel must be 2D")
    _check_finite("save: kernel weights", k)
    h, w = k.shape
    lines = ["%d %d" % (w, h)]
    lines += [" ".join("%.17g" % v for v in row) for row in k]
    Path(path).write_text("\n".join(lines) + "\n")


def write_kernel_image(path, kernel) -> None:
    """Write a kernel as a max-normalized 8-bit grayscale image for inspection."""
    k = np.asarray(kernel, dtype=np.float64)
    _check_finite("save: kernel weights", k)
    peak = k.max()
    write_image(path, k / peak if peak > 0 else k)
