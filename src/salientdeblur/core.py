"""Low-level image machinery: grayscale conversion, derivative operators,
replicate-boundary convolution (spatial and frequency paths), bilinear
resampling, and gradient-domain (Poisson) reconstruction.

Images are float64 arrays in [0, 1], shaped (h, w) for a single channel or
(h, w, 3) for color.  Gradient fields pair the x- and y-derivative grids.
Blur kernels are small odd-sided 2D arrays, non-negative and summing to one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

# ITU-R BT.601 luminance weights.
GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])

KERNEL_SUM_TOL = 1e-10


class GradientField(NamedTuple):
    """Pair of same-shaped grids holding x- and y-derivatives."""

    gx: np.ndarray
    gy: np.ndarray


def as_image(data) -> np.ndarray:
    """Coerce to a float64 image array and check basic shape/finiteness."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise InvalidInputError("image: expected a 2D or (h, w, c) array, got ndim=%d" % img.ndim)
    if img.ndim == 3 and img.shape[2] not in (1, 3):
        raise InvalidInputError("image: expected 1 or 3 channels, got %d" % img.shape[2])
    if not np.all(np.isfinite(img)):
        raise InvalidInputError("image: samples must be finite")
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    return img


def to_grayscale(img) -> np.ndarray:
    """Collapse an RGB image to luminance; single-channel input passes through."""
    img = as_image(img)
    if img.ndim == 2:
        return img
    return img @ GRAY_WEIGHTS


def gradients(img) -> GradientField:
    """Forward differences with replicate boundary (zero in the last column/row)."""
    a = np.asarray(img, dtype=np.float64)
    gx = np.zeros_like(a)
    gy = np.zeros_like(a)
    gx[:, :-1] = a[:, 1:] - a[:, :-1]
    gy[:-1, :] = a[1:, :] - a[:-1, :]
    return GradientField(gx, gy)


def divergence(g: GradientField) -> np.ndarray:
    """Negative adjoint of :func:`gradients`, so <grad u, g> == <u, -div g> exactly."""
    gx, gy = np.asarray(g[0], dtype=np.float64), np.asarray(g[1], dtype=np.float64)
    if gx.shape != gy.shape:
        raise InvalidInputError("divergence: gx and gy shapes differ")
    div = np.zeros_like(gx)
    if gx.shape[1] >= 2:
        div[:, 0] += gx[:, 0]
        div[:, 1:-1] += gx[:, 1:-1] - gx[:, :-2]
        div[:, -1] -= gx[:, -2]
    if gy.shape[0] >= 2:
        div[0, :] += gy[0, :]
        div[1:-1, :] += gy[1:-1, :] - gy[:-2, :]
        div[-1, :] -= gy[-2, :]
    return div


def _check_kernel_shape(kernel: np.ndarray) -> None:
    if kernel.ndim != 2:
        raise InvalidInputError("kernel: expected a 2D array")
    if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise InvalidInputError("kernel: side lengths must be odd, got %s" % (kernel.shape,))


def check_kernel(kernel) -> np.ndarray:
    """Validate kernel invariants (odd sides, non-negative, unit sum)."""
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel_shape(k)
    if not np.all(np.isfinite(k)):
        raise InvalidInputError("kernel: weights must be finite")
    if np.any(k < 0):
        raise InvalidInputError("kernel: weights must be non-negative")
    if abs(k.sum() - 1.0) > KERNEL_SUM_TOL:
        raise InvalidInputError("kernel: weights must sum to 1 (got %.3e)" % k.sum())
    return k


def delta_kernel(size) -> np.ndarray:
    """Centered unit impulse of the given odd size (int or (h, w))."""
    if np.isscalar(size):
        size = (int(size), int(size))
    kh, kw = size
    if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
        raise InvalidInputError("kernel: delta size must be odd and positive")
    k = np.zeros((kh, kw))
    k[kh // 2, kw // 2] = 1.0
    return k


def _shift_zero(a: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer shift of a 2D grid by (dy, dx); vacated cells are zero, mass
    shifted past the frame is dropped."""
    out = np.zeros_like(a)
    h, w = a.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ysrc = slice(max(-dy, 0), min(h - dy, h))
    xsrc = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = a[ysrc, xsrc]
    return out


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over all elements.

    einsum's own loop, not BLAS: OpenBLAS splits long dot products over its
    thread pool, which makes the last bits follow the thread count.
    """
    return float(np.einsum("i,i->", np.ravel(a), np.ravel(b)))


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (keeps FFT sizes cheap)."""
    best = None
    p2 = 1
    while p2 < 2 * n:
        p23 = p2
        while p23 < 2 * n:
            p235 = p23
            while p235 < n:
                p235 *= 5
            if best is None or p235 < best:
                best = p235
            p23 *= 3
        p2 *= 2
    return best


def _pad_replicate(a: np.ndarray, ry: int, rx: int) -> np.ndarray:
    if ry == 0 and rx == 0:
        return a
    return np.pad(a, ((ry, ry), (rx, rx)), mode="edge")


def _fold_replicate(q: np.ndarray, ry: int, rx: int) -> np.ndarray:
    """Adjoint of replicate padding: margins fold back onto the edge pixels."""
    if ry > 0:
        core = q[ry:-ry, :].copy()
        core[0, :] += q[:ry, :].sum(axis=0)
        core[-1, :] += q[-ry:, :].sum(axis=0)
        q = core
    if rx > 0:
        core = q[:, rx:-rx].copy()
        core[:, 0] += q[:, :rx].sum(axis=1)
        core[:, -1] += q[:, -rx:].sum(axis=1)
        q = core
    return q


def _conv_spatial(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    h, w = img.shape
    kh, kw = kernel.shape
    p = _pad_replicate(img, kh // 2, kw // 2)
    out = np.zeros((h, w))
    for i in range(kh):
        for j in range(kw):
            wij = kernel[i, j]
            if wij == 0.0:
                continue
            out += wij * p[kh - 1 - i : kh - 1 - i + h, kw - 1 - j : kw - 1 - j + w]
    return out


def convolve(img, kernel, mode: str = "fft") -> np.ndarray:
    """Same-size convolution with edge replication at the boundary.

    ``mode`` selects the spatial path or the frequency path (replicate-pad,
    circular product, crop); the two agree to better than 1e-8 everywhere.
    """
    img = as_image(img)
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel_shape(k)
    h, w = img.shape[:2]
    if k.shape[0] > h or k.shape[1] > w:
        raise InvalidInputError("convolve: kernel %s larger than image %s" % (k.shape, (h, w)))
    if mode not in ("spatial", "fft"):
        raise InvalidInputError("convolve: unknown mode %r" % mode)
    conv1 = BlurOperator(k, (h, w)).forward if mode == "fft" else lambda a: _conv_spatial(a, k)
    if img.ndim == 2:
        return conv1(img)
    return np.dstack([conv1(img[:, :, c]) for c in range(img.shape[2])])


class BlurOperator:
    """Blur by a fixed kernel on a fixed single-channel shape, plus its adjoint.

    Caches the kernel's frequency response so repeated applications inside
    iterative solvers cost two transforms each.
    """

    def __init__(self, kernel, shape):
        self.kernel = np.asarray(kernel, dtype=np.float64)
        _check_kernel_shape(self.kernel)
        self.shape = tuple(shape)
        h, w = self.shape
        kh, kw = self.kernel.shape
        if kh > h or kw > w:
            raise InvalidInputError("convolve: kernel %s larger than image %s" % ((kh, kw), (h, w)))
        self._ry, self._rx = kh // 2, kw // 2
        self._fh, self._fw = _fast_len(h + kh - 1), _fast_len(w + kw - 1)
        self._fk = np.fft.rfft2(self.kernel, s=(self._fh, self._fw))

    def forward(self, img: np.ndarray) -> np.ndarray:
        h, w = self.shape
        kh, kw = self.kernel.shape
        p = _pad_replicate(img, self._ry, self._rx)
        conv = np.fft.irfft2(np.fft.rfft2(p, s=(self._fh, self._fw)) * self._fk, s=(self._fh, self._fw))
        return conv[kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + w]

    def adjoint(self, img: np.ndarray) -> np.ndarray:
        h, w = self.shape
        kh, kw = self.kernel.shape
        emb = np.zeros((self._fh, self._fw))
        emb[kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + w] = img
        q = np.fft.irfft2(np.fft.rfft2(emb) * np.conj(self._fk), s=(self._fh, self._fw))
        return _fold_replicate(q[: h + 2 * self._ry, : w + 2 * self._rx], self._ry, self._rx)


def resize(img, shape) -> np.ndarray:
    """Bilinear resize to an explicit (h, w); no range clamping."""
    a = np.asarray(img, dtype=np.float64)
    oh, ow = int(shape[0]), int(shape[1])
    if oh < 1 or ow < 1:
        raise InvalidInputError("resample: output dimensions must be >= 1")
    h, w = a.shape[:2]

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, n_in - 1)
        return i0, i1, src - i0

    r0, r1, fr = axis_coords(h, oh)
    c0, c1, fc = axis_coords(w, ow)
    if a.ndim == 3:
        fr = fr[:, None, None]
        fc = fc[None, :, None]
    else:
        fr = fr[:, None]
        fc = fc[None, :]
    rows = a[r0] * (1.0 - fr) + a[r1] * fr
    return rows[:, c0] * (1.0 - fc) + rows[:, c1] * fc


def resample(img, factor: float) -> np.ndarray:
    """Bilinear resampling by a scale factor; output clamped to [0, 1].

    Output dimensions are round(dim * factor) (half away from zero); the same
    interpolation kernel serves both upsampling and downsampling.
    """
    img = as_image(img)
    if not np.isfinite(factor) or factor <= 0:
        raise InvalidInputError("resample: factor must be positive")
    h, w = img.shape[:2]
    oh = int(np.floor(h * factor + 0.5))
    ow = int(np.floor(w * factor + 0.5))
    if oh < 1 or ow < 1:
        raise InvalidInputError("resample: factor %g collapses %s below one pixel" % (factor, (h, w)))
    return np.clip(resize(img, (oh, ow)), 0.0, 1.0)


def periodic_gradients(img: np.ndarray) -> GradientField:
    """Forward differences with wrap-around; the operator behind the Poisson solve."""
    a = np.asarray(img, dtype=np.float64)
    return GradientField(np.roll(a, -1, axis=1) - a, np.roll(a, -1, axis=0) - a)


def poisson_reconstruct(g: GradientField) -> np.ndarray:
    """Least-squares integration of a gradient field under periodic boundary.

    Solves argmin ||grad I - g||^2 in the frequency domain and shifts the
    result to mean 0.5.  Values are not clamped; clamp on export if needed.
    """
    gx, gy = np.asarray(g[0], dtype=np.float64), np.asarray(g[1], dtype=np.float64)
    if gx.shape != gy.shape:
        raise InvalidInputError("poisson: gx and gy shapes differ")
    h, w = gx.shape
    dx = np.exp(2j * np.pi * np.fft.fftfreq(w)) - 1.0
    dy = np.exp(2j * np.pi * np.fft.fftfreq(h)) - 1.0
    denom = (np.abs(dx) ** 2)[None, :] + (np.abs(dy) ** 2)[:, None]
    denom[0, 0] = 1.0
    rhs = np.conj(dx)[None, :] * np.fft.fft2(gx) + np.conj(dy)[:, None] * np.fft.fft2(gy)
    rhs[0, 0] = 0.0
    out = np.real(np.fft.ifft2(rhs / denom))
    return out + (0.5 - out.mean())
