"""Low-level image machinery: grayscale conversion, derivative operators,
replicate-boundary convolution (spatial and frequency paths), bilinear
resampling, and gradient-domain (Poisson) reconstruction.

``BlurOperator`` is the one frequency-domain blur: ``forward``, ``adjoint``
and ``normal`` (adjoint of forward, for the solvers) run one transform path
on buffers the operator keeps.  The first two return new arrays; ``normal``
returns a view that the next call overwrites.

Images are float64 arrays in [0, 1], shaped (h, w) for a single channel or
(h, w, 3) for color.  Gradient fields pair the x- and y-derivative grids.
Blur kernels are small odd-sided 2D arrays, non-negative and summing to one.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

# ITU-R BT.601 luminance weights.
GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])


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
    _check_finite("image: samples", img)
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    return img


def to_grayscale(img) -> np.ndarray:
    """Collapse an RGB image to luminance; single-channel input passes through."""
    img = as_image(img)
    if img.ndim == 2:
        return img
    return img @ GRAY_WEIGHTS


def _diff_x(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forward x-differences of an (h, w) array into ``out`` of its shape,
    zero in the last column; returns ``out``.

    When both are C-contiguous, the differences are taken of the flat arrays,
    which numpy runs without iteration buffers; the differences that wrap
    from a row's end to the next row's start land in the last column and are
    zeroed.  Either way each value rounds as ``a[:, 1:] - a[:, :-1]`` does.
    """
    if a.flags.c_contiguous and out.flags.c_contiguous:
        np.subtract(a.reshape(-1)[1:], a.reshape(-1)[:-1], out=out.reshape(-1)[:-1])
    else:
        np.subtract(a[:, 1:], a[:, :-1], out=out[:, :-1])
    out[:, -1:] = 0.0
    return out


def gradients(img) -> GradientField:
    """Forward differences with replicate boundary (zero in the last column/row)."""
    a = np.asarray(img, dtype=np.float64)
    # in a's memory order, which later sums' rounding follows; the row
    # blocks of a C-contiguous array are contiguous, so its y-differences
    # take no iteration buffers either
    gx = _diff_x(a, np.empty_like(a))
    gy = np.empty_like(a)
    np.subtract(a[1:, :], a[:-1, :], out=gy[:-1, :])
    gy[-1:, :] = 0.0
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


def _check_count(value, least: int, what: str, *, odd: bool = False) -> None:
    """An integer (not a bool) of at least ``least``, and odd when ``odd``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least
            or odd and value % 2 == 0):
        raise InvalidInputError("%s must be an%s integer >= %d, got %r"
                                % (what, " odd" if odd else "", least, value))


def _check_real(value, what: str, low: float, high: float = math.inf, *, closed: bool = False) -> None:
    """A real parameter: a number (not a bool), finite, above ``low`` (or at
    it, when ``closed``) and at most ``high``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
            and (low <= value if closed else low < value) and value <= high):
        bound = ("%s %g" % (">=" if closed else ">", low) if high == math.inf
                 else "in %s%g, %g]" % ("[" if closed else "(", low, high))
        raise InvalidInputError("%s must be a finite number %s, got %r" % (what, bound, value))


def _check_finite(what: str, *arrays) -> None:
    """Every sample of every array is finite; ``what`` names them in the error."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("%s must be finite" % what)


def _check_kernel_shape(kernel: np.ndarray, image_shape=None) -> None:
    """A 2D array with odd sides, no larger than an image of ``image_shape``
    ((h, w) or (h, w, c)) when one is given."""
    if kernel.ndim != 2:
        raise InvalidInputError("kernel: expected a 2D array")
    if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise InvalidInputError("kernel: side lengths must be odd, got %s" % (kernel.shape,))
    if image_shape is not None and (kernel.shape[0] > image_shape[0] or kernel.shape[1] > image_shape[1]):
        raise InvalidInputError("kernel: %s larger than image %s" % (kernel.shape, tuple(image_shape[:2])))


def _check_kernel_weights(kernel: np.ndarray, image_shape=None, *, positive_sum: bool = False) -> None:
    """``_check_kernel_shape``'s rules, then finite and non-negative weights,
    with a positive sum when ``positive_sum``."""
    _check_kernel_shape(kernel, image_shape)
    _check_finite("kernel: weights", kernel)
    if np.any(kernel < 0):
        raise InvalidInputError("kernel: weights must be non-negative")
    if positive_sum and not kernel.sum() > 0.0:
        raise InvalidInputError("kernel: weights must have a positive sum")


def delta_kernel(size: int) -> np.ndarray:
    """Centered unit impulse of the given odd side."""
    _check_count(size, 1, "kernel: delta side", odd=True)
    k = np.zeros((size, size))
    k[size // 2, size // 2] = 1.0
    return k


def _shift_zero(a: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer shift of a 2D grid by (dy, dx); vacated cells are zero, mass
    shifted past the frame is dropped.  Each shift must be smaller than the
    grid's side on its axis."""
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
    """Smallest 5-smooth integer >= n >= 1 (keeps FFT sizes cheap)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _pad_replicate(a: np.ndarray, ry: int, rx: int, out: np.ndarray | None = None) -> np.ndarray:
    """Pad by ``ry`` rows and ``rx`` columns on each side, repeating the edge.

    Writes into ``out`` when given; otherwise returns a new array.
    """
    a = np.asarray(a)
    h, w = a.shape
    if out is None:
        out = np.empty((h + 2 * ry, w + 2 * rx), dtype=a.dtype)
    out[ry : ry + h, rx : rx + w] = a
    out[:ry, rx : rx + w] = a[0]
    out[ry + h :, rx : rx + w] = a[-1]
    out[:, :rx] = out[:, rx : rx + 1]
    out[:, rx + w :] = out[:, rx + w - 1 : rx + w]
    return out


def _fold_replicate(q: np.ndarray, ry: int, rx: int) -> np.ndarray:
    """Adjoint of replicate padding: margins fold back onto the edge pixels.

    Folds in place and returns the core as a view of ``q``.
    """
    h, w = q.shape[0] - 2 * ry, q.shape[1] - 2 * rx
    if ry > 0:
        q[ry, :] += q[:ry, :].sum(axis=0)
        q[ry + h - 1, :] += q[ry + h :, :].sum(axis=0)
    core = q[ry : ry + h, :]
    if rx > 0:
        core[:, rx] += core[:, :rx].sum(axis=1)
        core[:, rx + w - 1] += core[:, rx + w :].sum(axis=1)
    return core[:, rx : rx + w]


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
    _check_kernel_shape(k, img.shape)
    _check_finite("kernel: weights", k)
    if mode not in ("spatial", "fft"):
        raise InvalidInputError("convolve: unknown mode %r" % mode)
    conv1 = BlurOperator(k, img.shape[:2]).forward if mode == "fft" else lambda a: _conv_spatial(a, k)
    if img.ndim == 2:
        return conv1(img)
    return np.dstack([conv1(img[:, :, c]) for c in range(img.shape[2])])


class BlurOperator:
    """Blur by a fixed kernel on a fixed single-channel shape, plus its adjoint.

    Caches the kernel's frequency response and keeps two buffers, a half
    spectrum and a real frame, that all three methods run on, through one
    forward half and one adjoint half.  The replicate-pad frame is the real
    frame's top-left corner: the pad is read by the first row transform,
    before anything else is written there, so an input that itself shares
    the real frame (such as the view ``normal`` returns) is copied first.
    Each 2-D transform runs as a row call and a column call, skipping the
    row transforms whose input is known zero or whose output is discarded.
    All three take an array of exactly the operator's shape.  ``forward``
    and ``adjoint`` return new arrays; ``normal`` returns a view that the
    next call of any of the three overwrites.  Nothing lives in either
    buffer between two calls, so ``scratch`` lends one plane of each to the
    caller, for values that are dead whenever the operator runs: each call
    writes its buffers before it reads them.  Not safe to share between
    threads.
    """

    def __init__(self, kernel, shape):
        self.kernel = np.asarray(kernel, dtype=np.float64)
        self.shape = tuple(shape)
        _check_kernel_shape(self.kernel, self.shape)
        h, w = self.shape
        kh, kw = self.kernel.shape
        self._ry, self._rx = kh // 2, kw // 2
        fh, fw = _fast_len(h + kh - 1), _fast_len(w + kw - 1)
        self._fk = np.fft.rfft2(self.kernel, s=(fh, fw))
        self._spec = np.empty((fh, fw // 2 + 1), dtype=np.complex128)
        self._real = np.empty((fh, fw))
        self._pad = self._real[: h + kh - 1, : w + kw - 1]
        # the crop: rows and columns forward keeps, where adjoint embeds
        self._crop = (slice(kh - 1, kh - 1 + h), slice(kw - 1, kw - 1 + w))

    def forward(self, img: np.ndarray) -> np.ndarray:
        self._check_shape(img)
        self._forward(img)
        return self._real[self._crop].copy()

    def adjoint(self, img: np.ndarray) -> np.ndarray:
        self._check_shape(img)
        self._real[self._crop] = img
        return self._adjoint().copy()

    def normal(self, u: np.ndarray) -> np.ndarray:
        """``adjoint(forward(u))`` without allocating an image-size array.

        Returns a view of the kept buffers, overwritten by the next call of
        ``forward``, ``adjoint`` or ``normal``.  ``u`` is not modified.
        """
        self._check_shape(u)
        self._forward(u)
        return self._adjoint()

    def scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Two contiguous float64 arrays of the operator's shape, over the
        real frame and over the half spectrum viewed as float64 (which holds
        at least as many values as the real frame).

        Lent, not owned: every call of ``forward``, ``adjoint`` or ``normal``
        overwrites both, so they may hold only values that are used up
        before the next call.  Passing one to the operator is safe: the
        spectrum plane is read before the spectrum is written, and the real
        plane is copied first.
        """
        n = self.shape[0] * self.shape[1]
        return (self._real.reshape(-1)[:n].reshape(self.shape),
                self._spec.view(np.float64).reshape(-1)[:n].reshape(self.shape))

    def _check_shape(self, u) -> None:
        if np.shape(u) != self.shape:
            raise InvalidInputError("blur operator: input shape %s != operator shape %s"
                                    % (np.shape(u), self.shape))

    def _forward(self, u: np.ndarray) -> None:
        """Replicate pad, transform, multiply, inverse on the crop rows."""
        if np.may_share_memory(u, self._real):
            u = u.copy()  # the pad below would overwrite it
        spec, rows, (hp, wp), fw = self._spec, self._crop[0], self._pad.shape, self._real.shape[1]
        # the pad's rows at the frame's full width, over zeroed columns: the
        # same values as the transform's own zero padding (n=fw), at about
        # half its cost
        self._real[:hp, wp:] = 0.0
        _pad_replicate(u, self._ry, self._rx, out=self._pad)
        np.fft.rfft(self._real[:hp], axis=1, out=spec[:hp])
        spec[hp:] = 0.0
        np.fft.fft(spec, axis=0, out=spec)
        np.multiply(spec, self._fk, out=spec)
        np.fft.ifft(spec, axis=0, out=spec)
        np.fft.irfft(spec[rows], n=fw, axis=1, out=self._real[rows])

    def _adjoint(self) -> np.ndarray:
        """Zero the crop rows' margins, transform, multiply by the conjugate
        response, inverse on the padded rows, fold; returns a view."""
        spec, real, (rows, cols) = self._spec, self._real, self._crop
        hp, wp = self._pad.shape
        real[rows, : cols.start] = 0.0
        real[rows, cols.stop :] = 0.0
        np.fft.rfft(real[rows], axis=1, out=spec[rows])
        spec[: rows.start] = 0.0
        spec[rows.stop :] = 0.0
        np.fft.fft(spec, axis=0, out=spec)
        # conjugate the response in place and back: exact, and no copy of it
        np.negative(self._fk.imag, out=self._fk.imag)
        np.multiply(spec, self._fk, out=spec)
        np.negative(self._fk.imag, out=self._fk.imag)
        np.fft.ifft(spec, axis=0, out=spec)
        np.fft.irfft(spec[:hp], n=real.shape[1], axis=1, out=real[:hp])
        return _fold_replicate(real[:hp, :wp], self._ry, self._rx)


def resize(img, shape) -> np.ndarray:
    """Bilinear resize of an (h, w) array to an explicit (h, w); no range clamping."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError("resample: expected a non-empty (h, w) array, got shape %s" % (a.shape,))
    if len(shape) != 2:
        raise InvalidInputError("resample: output shape must be (h, w), got %r" % (shape,))
    oh, ow = shape
    _check_count(oh, 1, "resample: output height")
    _check_count(ow, 1, "resample: output width")
    h, w = a.shape

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, n_in - 1)
        return i0, i1, src - i0

    r0, r1, fr = axis_coords(h, oh)
    c0, c1, fc = axis_coords(w, ow)
    fr = fr[:, None]
    rows = a[r0] * (1.0 - fr) + a[r1] * fr
    return rows[:, c0] * (1.0 - fc) + rows[:, c1] * fc


def resample(img, factor: float) -> np.ndarray:
    """Bilinear resampling of an (h, w) image by a scale factor; output
    clamped to [0, 1].

    Output dimensions are round(dim * factor) (half away from zero); the same
    interpolation kernel serves both upsampling and downsampling.
    """
    img = as_image(img)
    _check_real(factor, "resample: factor", 0)
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


def _difference_spectra(shape) -> tuple:
    """``periodic_gradients``' spectra on an (h, w) grid: conj(dx) row, conj(dy) column, |dx|^2 + |dy|^2 (new)."""
    h, w = shape
    dx = np.exp(2j * np.pi * np.fft.fftfreq(w)) - 1.0
    dy = np.exp(2j * np.pi * np.fft.fftfreq(h)) - 1.0
    return np.conj(dx)[None, :], np.conj(dy)[:, None], (np.abs(dx) ** 2)[None, :] + (np.abs(dy) ** 2)[:, None]


def poisson_reconstruct(g: GradientField) -> np.ndarray:
    """Least-squares integration of a gradient field under periodic boundary.

    Solves argmin ||grad I - g||^2 in the frequency domain and shifts the
    result to mean 0.5.  Values are not clamped; clamp on export if needed.
    """
    gx, gy = np.asarray(g[0], dtype=np.float64), np.asarray(g[1], dtype=np.float64)
    if gx.shape != gy.shape:
        raise InvalidInputError("poisson: gx and gy shapes differ")
    _check_finite("poisson: gradient field", gx, gy)
    conj_dx, conj_dy, denom = _difference_spectra(gx.shape)
    denom[0, 0] = 1.0
    rhs = conj_dx * np.fft.fft2(gx) + conj_dy * np.fft.fft2(gy)
    rhs[0, 0] = 0.0
    out = np.real(np.fft.ifft2(rhs / denom))
    return out + (0.5 - out.mean())
