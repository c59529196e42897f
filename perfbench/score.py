"""The benchmark's own scorer and output readers.

Nothing here calls the program, so a change to the program's metrics, solvers
or file codec cannot move the yardstick.

* ``ssde``: sum of squared differences of the unit-sum kernels at the integer
  shift that aligns them best (blind estimation fixes a kernel only up to a
  shift).  The search covers every overlap, on a canvas large enough that no
  mass clips, so the minimum-SSD and maximum-correlation shifts coincide.
* ``error_ratio``: the error ratio of Levin et al. (CVPR 2009),
  ||x(k_est) - x||^2 / ||x(k_true) - x||^2, where x(k) is a fixed
  Fourier-domain deconvolution with a quadratic gradient prior.  The
  deconvolver never changes, so only the kernel moves the ratio.
* ``psnr``: PSNR on the interior after shifting the restored image back by
  the kernel's alignment shift.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SSDE_MAX = 0.02
ERROR_RATIO_MAX = 3.0
SUM_TOL = 1e-6

# Weight of the gradient prior of the fixed deconvolver.
DECONV_LAMBDA = 5e-3


class ScoreError(ValueError):
    """An output failed a correctness check."""


def _embed(k: np.ndarray, side: int) -> np.ndarray:
    out = np.zeros((side, side))
    oy, ox = (side - k.shape[0]) // 2, (side - k.shape[1]) // 2
    out[oy : oy + k.shape[0], ox : ox + k.shape[1]] = k
    return out


def align(k_est: np.ndarray, k_true: np.ndarray):
    """Both kernels at unit sum on one canvas, k_est rolled into registration.

    Returns (aligned estimate, reference, (dy, dx)) where the estimate was
    moved down by dy and right by dx.
    """
    a = k_est / k_est.sum()
    b = k_true / k_true.sum()
    r = max(a.shape + b.shape)
    side = 3 * r
    ac, bc = _embed(a, side), _embed(b, side)
    best, shift = -np.inf, (0, 0)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            corr = float((np.roll(ac, (dy, dx), axis=(0, 1)) * bc).sum())
            if corr > best:
                best, shift = corr, (dy, dx)
    return np.roll(ac, shift, axis=(0, 1)), bc, shift


def ssde(k_est: np.ndarray, k_true: np.ndarray):
    aligned, ref, shift = align(k_est, k_true)
    return float(((aligned - ref) ** 2).sum()), shift


def _otf(k: np.ndarray, shape) -> np.ndarray:
    pad = np.zeros(shape)
    pad[: k.shape[0], : k.shape[1]] = k
    pad = np.roll(pad, (-(k.shape[0] // 2), -(k.shape[1] // 2)), axis=(0, 1))
    return np.fft.fft2(pad)


def deconvolve(blurred: np.ndarray, k: np.ndarray, lam: float = DECONV_LAMBDA) -> np.ndarray:
    """argmin ||k * x - b||^2 + lam ||grad x||^2, solved in one step on a
    replicate-padded periodic frame."""
    m = k.shape[0]
    pad = np.pad(blurred, m, mode="edge")
    kf = _otf(k, pad.shape)
    fy = np.fft.fftfreq(pad.shape[0])[:, None]
    fx = np.fft.fftfreq(pad.shape[1])[None, :]
    grad2 = 4.0 - 2.0 * np.cos(2 * np.pi * fx) - 2.0 * np.cos(2 * np.pi * fy)
    num = np.conj(kf) * np.fft.fft2(pad)
    den = np.abs(kf) ** 2 + lam * grad2
    return np.real(np.fft.ifft2(num / den))[m:-m, m:-m]


def _interior(a: np.ndarray, m: int, dy: int = 0, dx: int = 0) -> np.ndarray:
    h, w = a.shape[:2]
    return a[m + dy : h - m + dy, m + dx : w - m + dx]


def error_ratio(blurred_gray, sharp_gray, k_est, k_true):
    """The error ratio, and the PSNR of the fixed deconvolution with k_est."""
    aligned, ref, _ = align(k_est, k_true)
    m = max(k_est.shape + k_true.shape)
    x_true = deconvolve(blurred_gray, ref)
    x_est = deconvolve(blurred_gray, aligned)
    s = _interior(sharp_gray, m)
    err_est = ((_interior(x_est, m) - s) ** 2).sum()
    err_true = ((_interior(x_true, m) - s) ** 2).sum()
    return float(err_est / err_true), float(10.0 * np.log10(s.size / err_est))


def psnr(img, sharp, margin: int, shift=(0, 0)) -> float:
    """Interior PSNR (peak 1) of ``img`` moved back by ``shift`` against ``sharp``."""
    dy, dx = shift
    m = margin + max(abs(dy), abs(dx))
    a = _interior(img, m, dy, dx)
    mse = float(((a - _interior(sharp, m)) ** 2).mean())
    return 10.0 * np.log10(1.0 / mse) if mse > 0 else float("inf")


def gray(img: np.ndarray) -> np.ndarray:
    return img if img.ndim == 2 else img @ np.array([0.299, 0.587, 0.114])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_kernel(k, size: int) -> np.ndarray:
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (size, size):
        raise ScoreError("kernel shape %s, expected %s" % (k.shape, (size, size)))
    if not np.all(np.isfinite(k)):
        raise ScoreError("kernel has non-finite weights")
    if np.any(k < 0):
        raise ScoreError("kernel has negative weights")
    if abs(k.sum() - 1.0) > SUM_TOL:
        raise ScoreError("kernel sums to %.9f" % k.sum())
    return k


def check_image(img, shape) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.shape != tuple(shape):
        raise ScoreError("image shape %s, expected %s" % (img.shape, tuple(shape)))
    if not np.all(np.isfinite(img)):
        raise ScoreError("image has non-finite samples")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ScoreError("image leaves [0, 1]: [%g, %g]" % (img.min(), img.max()))
    return img


def score_kernel(k_est, k_true, blurred, sharp) -> dict:
    """SSDE and error ratio of a checked kernel; raises past the thresholds."""
    k_est = check_kernel(k_est, k_true.shape[0])
    err, shift = ssde(k_est, k_true)
    ratio, fixed_psnr = error_ratio(gray(blurred), gray(sharp), k_est, k_true)
    if not err <= SSDE_MAX:
        raise ScoreError("ssde %.5f above %.3f" % (err, SSDE_MAX))
    if not ratio <= ERROR_RATIO_MAX:
        raise ScoreError("error ratio %.3f above %.1f" % (ratio, ERROR_RATIO_MAX))
    return {"ssde": err, "error_ratio": ratio, "shift": shift, "fixed_psnr_db": fixed_psnr}


def score_restoration(restored, blurred, sharp, shift, margin: int) -> float:
    """Registered interior PSNR of a checked restoration; it must beat the input's."""
    restored = check_image(restored, blurred.shape)
    value = psnr(restored, sharp, margin, shift)
    floor = psnr(blurred, sharp, margin + max(abs(shift[0]), abs(shift[1])))
    if not value > floor:
        raise ScoreError("restored PSNR %.2f dB not above the blurred input's %.2f dB"
                         % (value, floor))
    return value


# ---------------------------------------------------------------------------
# Readers for the program's output files
# ---------------------------------------------------------------------------

def _unfilter_row(ftype: int, row: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:
        return row
    if ftype == 2:
        return (row + prev) & 0xFF
    out = row.copy()
    for i in range(len(out)):
        a = int(out[i - bpp]) if i >= bpp else 0
        b = int(prev[i])
        c = int(prev[i - bpp]) if i >= bpp else 0
        if ftype == 1:
            pred = a
        elif ftype == 3:
            pred = (a + b) // 2
        elif ftype == 4:
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
        else:
            raise ScoreError("PNG filter %d" % ftype)
        out[i] = (out[i] + pred) & 0xFF
    return out


def read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_png(fh.read(), path)


def decode_png(blob: bytes, path="PNG") -> np.ndarray:
    """Decode an 8/16-bit gray or RGB PNG to floats in [0, 1]."""
    if blob[:8] != b"\x89PNG\r\n\x1a\n":
        raise ScoreError("%s is not a PNG" % path)
    pos, idat, ihdr = 8, b"", None
    while pos < len(blob):
        (n,) = struct.unpack(">I", blob[pos : pos + 4])
        tag, payload = blob[pos + 4 : pos + 8], blob[pos + 8 : pos + 8 + n]
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != struct.unpack(">I", blob[pos + 8 + n : pos + 12 + n])[0]:
            raise ScoreError("%s: bad CRC in %r" % (path, tag))
        pos += 12 + n
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise ScoreError("%s has no IHDR" % path)
    w, h, depth, ctype, _, _, interlace = ihdr
    channels = {0: 1, 2: 3}.get(ctype)
    if channels is None or depth not in (8, 16) or interlace:
        raise ScoreError("%s: unsupported PNG layout %s" % (path, ihdr))
    bpp = channels * depth // 8
    data = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    if data.size != h * (1 + w * bpp):
        raise ScoreError("%s: %d image bytes, expected %d" % (path, data.size, h * (1 + w * bpp)))
    data = data.reshape(h, 1 + w * bpp).astype(np.int64)
    rows = np.zeros((h, w * bpp), dtype=np.int64)
    prev = np.zeros(w * bpp, dtype=np.int64)
    for y in range(h):
        prev = rows[y] = _unfilter_row(int(data[y, 0]), data[y, 1:], prev, bpp)
    raw = rows.astype(np.uint8)
    if depth == 16:
        vals = raw.view(">u2").astype(np.float64) / 65535.0
    else:
        vals = raw.astype(np.float64) / 255.0
    img = vals.reshape(h, w, channels)
    return img[:, :, 0] if channels == 1 else img


def read_kernel_text(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    w, h = int(lines[0][0]), int(lines[0][1])
    k = np.array([[float(v) for v in row] for row in lines[1:]], dtype=np.float64)
    if k.shape != (h, w):
        raise ScoreError("%s: kernel body %s, header %s" % (path, k.shape, (h, w)))
    return k


# ---------------------------------------------------------------------------
# Self-checks, run before every benchmark run
# ---------------------------------------------------------------------------

def self_check() -> None:
    from inputs import blur, encode_png, kernel

    k = kernel("l-curve", 15)
    if ssde(k, k)[0] != 0.0:
        raise AssertionError("self-check: a kernel against itself must score SSDE 0")
    moved = np.roll(np.pad(k, 2), (1, -2), axis=(0, 1))[2:-2, 2:-2]
    err, shift = ssde(moved, k)
    if err > 1e-24 or shift != (-1, 2):
        raise AssertionError("self-check: a shifted kernel must register (got %g at %s)" % (err, shift))
    delta = np.zeros_like(k)
    delta[7, 7] = 1.0
    rng = np.random.default_rng(0)
    sharp = np.clip(blur(rng.random((64, 64)), kernel("box", 5)), 0, 1)
    noisy = blur(sharp, k) + rng.normal(0.0, 0.01, sharp.shape)
    for bad in (delta, np.rot90(k)):
        try:
            score_kernel(bad, k, noisy, sharp)
        except ScoreError:
            continue
        raise AssertionError("self-check: a delta or rotated kernel must fail the check")
    img = np.roll(sharp, (2, -1), axis=(0, 1))
    if psnr(img, sharp, 4, (2, -1)) != float("inf"):
        raise AssertionError("self-check: a shifted image must register")
    for samples, depth in ((rng.integers(0, 256, (9, 7, 3)), 8), (rng.integers(0, 65536, (6, 11)), 16)):
        blob, counts = encode_png(samples, depth)
        decoded = decode_png(blob)
        if not np.array_equal(np.rint(decoded * (2 ** depth - 1)), samples):
            raise AssertionError("self-check: PNG round trip failed (filters %s)" % counts)

