"""Seeded workload inputs, made without the program's blur code.

The sharp images come from the program's built-in chart (``synth.test_chart``),
quantized to 16 bits and checked against digests recorded here, so a change
to the chart stops the benchmark instead of silently changing a workload.
Kernels, blurring (replicate-boundary spatial convolution) and noise are the
benchmark's own.  PNG inputs are written by the encoder below with a per-row
adaptive filter choice (the minimum-sum-of-absolute-differences heuristic
that common encoders use), so Sub, Up, Average and Paeth rows all occur.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np

# sha256 of the 16-bit quantized chart, by side length.
CHART_DIGESTS = {
    127: "3eb8db41fa1a1909ba44d2c8e5e33b70ec5ba0d5615c0957c1dc88ed0db4fbce",
    319: "539db1c44985325caf327e600cf48c323d8240d07488657dede15b6405eef31f",
}

NOISE_SIGMA = 0.01


class InputDigestError(RuntimeError):
    """A generated input no longer matches the digest recorded for it."""


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def chart(size: int) -> np.ndarray:
    """The program's test chart on a 16-bit grid, checked against its digest."""
    from salientdeblur.synth import test_chart

    q = np.rint(np.clip(test_chart(size), 0.0, 1.0) * 65535.0).astype(np.uint16)
    if digest(q) != CHART_DIGESTS[size]:
        raise InputDigestError("chart %d digest %s does not match the recorded %s"
                               % (size, digest(q), CHART_DIGESTS[size]))
    return q / 65535.0


def kernel(name: str, size: int) -> np.ndarray:
    """Uniform-mass motion kernels: diagonal line, box, L-curve."""
    k = np.zeros((size, size))
    c = size // 2
    length = max(3, int(round(0.6 * size)))
    half = length // 2
    if name == "line-d":
        idx = np.arange(-half, -half + length) + c
        k[idx, idx] = 1.0
    elif name == "box":
        side = max(3, int(round(size / 3.0)))
        lo = c - side // 2
        k[lo : lo + side, lo : lo + side] = 1.0
    elif name == "l-curve":
        arm = max(2, size // 2 - 1)
        k[c - arm : c + 1, c - arm // 2] = 1.0
        k[c, c - arm // 2 : c - arm // 2 + arm + 1] = 1.0
    else:
        raise ValueError("unknown kernel %r" % name)
    return k / k.sum()


def blur(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Same-size convolution with replicate boundary, summed tap by tap."""
    if img.ndim == 3:
        return np.dstack([blur(img[:, :, c], k) for c in range(img.shape[2])])
    h, w = img.shape
    kh, kw = k.shape
    p = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    out = np.zeros((h, w))
    for i, j in zip(*np.nonzero(k)):
        out += k[i, j] * p[kh - 1 - i : kh - 1 - i + h, kw - 1 - j : kw - 1 - j + w]
    return out


def blurred(sharp: np.ndarray, k: np.ndarray, seed) -> np.ndarray:
    """Blur plus seeded Gaussian noise, clipped to [0, 1]."""
    rng = np.random.default_rng(seed)
    return np.clip(blur(sharp, k) + rng.normal(0.0, NOISE_SIGMA, size=sharp.shape), 0.0, 1.0)


def rgb_scene(size: int) -> np.ndarray:
    """Three differently arranged copies of the chart as R, G and B."""
    g = chart(size)
    return np.dstack([g, g.T, 0.5 * (g + np.rot90(g))])


# ---------------------------------------------------------------------------
# PNG with adaptive row filters
# ---------------------------------------------------------------------------

def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def _filtered_rows(raw: np.ndarray, bpp: int) -> np.ndarray:
    """All five PNG filters of every row: shape (5, h, stride)."""
    x = raw.astype(np.int32)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return np.stack([x, x - a, x - b, x - (a + b) // 2, x - paeth]) & 0xFF


def encode_png(samples: np.ndarray, bit_depth: int) -> tuple:
    """PNG bytes for an integer (h, w) or (h, w, 3) array, plus the number of
    rows that use each filter type 0..4."""
    color_type = 0 if samples.ndim == 2 else 2
    h, w = samples.shape[:2]
    raw = samples.astype(">u1" if bit_depth == 8 else ">u2").reshape(h, -1).view(np.uint8)
    channels = 1 if samples.ndim == 2 else samples.shape[2]
    cand = _filtered_rows(raw, channels * bit_depth // 8)
    signed = np.where(cand > 127, 256 - cand, cand)
    choice = signed.sum(axis=2).argmin(axis=0)
    rows = cand[choice, np.arange(h)].astype(np.uint8)
    scan = np.concatenate([choice[:, None].astype(np.uint8), rows], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(scan, 6)) + _chunk(b"IEND", b""))
    return blob, np.bincount(choice, minlength=5).tolist()


def write_png(path: Path, img: np.ndarray, bit_depth: int) -> None:
    """Quantize a [0, 1] image and write it."""
    scale = 255.0 if bit_depth == 8 else 65535.0
    Path(path).write_bytes(encode_png(np.rint(np.clip(img, 0.0, 1.0) * scale), bit_depth)[0])


def quantize(img: np.ndarray, bit_depth: int) -> np.ndarray:
    """The values a reader recovers from ``write_png`` at this depth."""
    scale = 255.0 if bit_depth == 8 else 65535.0
    return np.rint(np.clip(img, 0.0, 1.0) * scale) / scale


def write_kernel_text(path: Path, k: np.ndarray) -> None:
    h, w = k.shape
    lines = ["%d %d" % (w, h)] + [" ".join("%.17g" % v for v in row) for row in k]
    Path(path).write_text("\n".join(lines) + "\n")
