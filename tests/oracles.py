"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own solution paths: the 1D TV
problem is solved exactly by a taut-string sweep, convolution by naive
loops, linear operators by dense matrix assembly + direct solve, the kernel
fit's normal operator by image-size FFTs, the image blur and its adjoint by
whole-frame 2-D FFTs, the restorations' buffered IRLS core by plain
allocating array expressions, the TV split's energy by its direct formula,
and PNG row filtering by a per-byte encoder that follows the PNG
specification.  ``align_kernel``, a kernel registration that only the tests
use, lives here too, on the library's own alignment search, and so does
``check_kernel``, the full kernel invariant (the library's weight check plus
a unit sum), which only the tests assert.
"""

import struct
import zlib

import numpy as np

KERNEL_SUM_TOL = 1e-10


def condat_tv1d(y, lam):
    """Exact minimizer of 0.5 ||u - y||^2 + lam * sum |u_{i+1} - u_i|.

    Direct non-iterative algorithm (taut string / dynamic programming sweep).
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    x = np.empty(n)
    if n == 0:
        return x
    if n == 1 or lam == 0:
        return y.copy()
    k = k0 = km = kp = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0.0:
                while k0 <= km:
                    x[k0] = vmin
                    k0 += 1
                k = km = k0
                vmin = y[k]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                while k0 <= kp:
                    x[k0] = vmax
                    k0 += 1
                k = kp = k0
                vmax = y[k]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                vmin += umin / (k - k0 + 1)
                while k0 <= k:
                    x[k0] = vmin
                    k0 += 1
                return x
            if k == n:
                x[n - 1] = vmin + umin
                return x
        elif umin + y[k + 1] - vmin < -lam:
            while k0 <= km:
                x[k0] = vmin
                k0 += 1
            k = k0 = km = kp = km + 1
            vmin = y[k]
            vmax = y[k] + 2.0 * lam
            umin = lam
            umax = -lam
        elif umax + y[k + 1] - vmax > lam:
            while k0 <= kp:
                x[k0] = vmax
                k0 += 1
            k = k0 = km = kp = kp + 1
            vmin = y[k] - 2.0 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
        else:
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                km = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kp = k


def naive_convolve(img, kernel):
    """Same-size convolution with edge replication, by explicit loops."""
    img = np.asarray(img, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    h, w = img.shape
    kh, kw = k.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    rr = min(max(r - (i - cy), 0), h - 1)
                    cc = min(max(c - (j - cx), 0), w - 1)
                    acc += k[i, j] * img[rr, cc]
            out[r, c] = acc
    return out


def dense_from_operator(apply_a, shape):
    """Assemble the dense matrix of a linear operator on arrays of ``shape``."""
    n = int(np.prod(shape))
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(np.asarray(apply_a(e.reshape(shape))).ravel())
    return np.stack(cols, axis=1)


def smooth_test_image(shape, seed, margin=8, passes=1):
    """Random smooth image with an exactly flat margin.

    The flat border makes gradient-then-convolve equal convolve-then-gradient
    everywhere, so synthetic blur instances built from it have an exactly
    representable kernel.
    """
    import salientdeblur as sd

    rng = np.random.default_rng(seed)
    img = rng.random(shape)
    box = np.full((3, 3), 1.0 / 9.0)
    for _ in range(passes):
        img = sd.convolve(img, box, "fft")
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.minimum(np.minimum(yy, h - 1 - yy), np.minimum(xx, w - 1 - xx))
    return np.clip(np.where(d >= margin, img, 0.5), 0.0, 1.0)


class FFTEdgeSystem:
    """Kernel-fit normal operator of ||grad B - k * grad S||^2 by image-size FFTs.

    The structure channels are replicate-padded by the kernel radius and
    transformed once; the forward map is a linear convolution cropped to the
    image, and its adjoint a cross-correlation cropped to the kernel.
    """

    def __init__(self, grad_b, grad_s, kshape):
        kh, kw = kshape
        h, w = np.asarray(grad_s[0]).shape
        self.kshape = (kh, kw)
        self.ishape = (h, w)
        self.fshape = (h + kh - 1, w + kw - 1)
        pad = ((kh // 2, kh // 2), (kw // 2, kw // 2))
        self._fs = [np.fft.rfft2(np.pad(np.asarray(ch, dtype=np.float64), pad, mode="edge"), s=self.fshape)
                    for ch in grad_s]
        self._b = [np.asarray(ch, dtype=np.float64) for ch in grad_b]
        self.rhs = sum(self._correlate(fs, b) for fs, b in zip(self._fs, self._b))

    def _convolve(self, fs, kernel):
        h, w = self.ishape
        kh, kw = self.kshape
        conv = np.fft.irfft2(fs * np.fft.rfft2(kernel, s=self.fshape), s=self.fshape)
        return conv[kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + w]

    def _correlate(self, fs, resid):
        h, w = self.ishape
        kh, kw = self.kshape
        emb = np.zeros(self.fshape)
        emb[:h, :w] = resid
        corr = np.fft.irfft2(fs * np.conj(np.fft.rfft2(emb)), s=self.fshape)
        return corr[:kh, :kw][::-1, ::-1].copy()

    def apply_data(self, kernel):
        return sum(self._correlate(fs, self._convolve(fs, kernel)) for fs in self._fs)

    def residual(self, kernel):
        return sum(float(((self._convolve(fs, kernel) - b) ** 2).sum()) for fs, b in zip(self._fs, self._b))


class FFT2Blur:
    """Replicate-boundary blur and its adjoint by whole-frame ``rfft2``/``irfft2``.

    The same transform sizes and margin fold as ``BlurOperator``, with new
    arrays at every step; its results equal the operator's bit for bit.
    """

    def __init__(self, kernel, shape):
        from salientdeblur.core import _fast_len

        self.kernel = np.asarray(kernel, dtype=np.float64)
        self.shape = tuple(shape)
        (h, w), (kh, kw) = self.shape, self.kernel.shape
        self.fshape = (_fast_len(h + kh - 1), _fast_len(w + kw - 1))
        self._fk = np.fft.rfft2(self.kernel, s=self.fshape)

    def forward(self, img):
        (h, w), (kh, kw) = self.shape, self.kernel.shape
        p = np.pad(np.asarray(img, dtype=np.float64), ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
        conv = np.fft.irfft2(np.fft.rfft2(p, s=self.fshape) * self._fk, s=self.fshape)
        return conv[kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + w]

    def adjoint(self, img):
        from salientdeblur.core import _fold_replicate

        (h, w), (kh, kw) = self.shape, self.kernel.shape
        emb = np.zeros(self.fshape)
        emb[kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + w] = img
        q = np.fft.irfft2(np.fft.rfft2(emb) * np.conj(self._fk), s=self.fshape)
        return _fold_replicate(q[: h + kh - 1, : w + kw - 1], kh // 2, kw // 2)


def _cg_allocating(apply_a, b, iters, x0=None, minv=None, tol=1e-10):
    """The conjugate-gradient loop of ``irls_deconv_allocating``: the
    library's arithmetic, with a fresh array for every vector update, and
    with Jacobi preconditioning by ``minv`` when it is given."""

    def inner(a, c):
        return float(np.einsum("i,i->", np.ravel(a), np.ravel(c)))

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - apply_a(x)
    rs = inner(r, r)
    b_norm = np.sqrt(rs) if x0 is None else np.sqrt(inner(b, b))
    if rs == 0.0:
        return x
    z = r if minv is None else minv * r
    rz = inner(r, z)
    p = z.copy()
    for _ in range(iters):
        ap = apply_a(p)
        denom = inner(p, ap)
        if denom == 0.0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        if np.sqrt(inner(r, r)) < tol * b_norm:
            break
        z = r if minv is None else minv * r
        rz_new = inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def irls_deconv_allocating(image, op, lam, wx_base, wy_base, irls_iters, cg_iters, floor,
                           warm_start=False, precondition=False):
    """The IRLS restoration core as plain array expressions: the normal
    operator as adjoint(forward(.)) of the ``FFT2Blur`` oracle of ``op``'s
    kernel, the regularizer through the library's gradients() and
    divergence(), the Jacobi preconditioner as the inverse of sum k^2 plus
    lam/2 times the weights of the differences each pixel enters, and new
    arrays at every step."""
    from salientdeblur.core import GradientField, divergence, gradients

    blur = FFT2Blur(op.kernel, op.shape)
    rhs = blur.adjoint(image)
    k2 = float(np.einsum("i,i->", op.kernel.ravel(), op.kernel.ravel()))
    out = image.copy()
    for _ in range(irls_iters):
        g = gradients(out)
        wx = wx_base / np.maximum(np.abs(g.gx), floor)
        wy = wy_base / np.maximum(np.abs(g.gy), floor)
        minv = None
        if precondition:
            touching = np.zeros_like(out)
            touching[:, :-1] += wx[:, :-1]
            touching[:, 1:] += wx[:, :-1]
            touching[:-1, :] += wy[:-1, :]
            touching[1:, :] += wy[:-1, :]
            minv = 1.0 / ((0.5 * lam) * touching + k2)

        def apply_a(u):
            gu = gradients(u)
            reg = -divergence(GradientField(wx * gu.gx, wy * gu.gy))
            return blur.adjoint(blur.forward(u)) + (0.5 * lam) * reg

        out = _cg_allocating(apply_a, rhs, cg_iters, x0=out if warm_start else None, minv=minv)
    return out


def tv_energy_direct(u, mag, f, lam):
    """The TV split's energy, sum mag + (u - f)^2 / (2 lam), with 2 lam formed
    as its own plane and the fidelity summed as it stands."""
    return float(mag.sum() + ((u - f) ** 2 / (2.0 * lam)).sum())


def align_kernel(k_est, k_true):
    """k_est registered to k_true on the library's alignment canvas, cropped
    to the larger kernel's frame and projected; returns (kernel, shift)."""
    from salientdeblur.kernel_est import project_kernel
    from salientdeblur.metrics import _align

    _, shift, aligned = _align(k_est, k_true)
    return project_kernel(aligned)[0], shift



def check_kernel(kernel):
    """The kernel invariants: odd sides, finite non-negative weights (the
    library's own check) and a sum within ``KERNEL_SUM_TOL`` of one."""
    from salientdeblur.core import _check_kernel_weights
    from salientdeblur.errors import InvalidInputError

    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel_weights(k)
    if abs(k.sum() - 1.0) > KERNEL_SUM_TOL:
        raise InvalidInputError("kernel: weights must sum to 1 (got %.3e)" % k.sum())
    return k


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def png_with_filters(rows, filters, depth=8, channels=1):
    """PNG bytes whose scanlines (lists of raw byte values) use the given
    filter types, encoded one byte at a time."""
    h = len(rows)
    bpp = channels * (depth // 8)
    w = len(rows[0]) // bpp
    raw = b""
    prev = [0] * len(rows[0])
    for ftype, row in zip(filters, rows):
        row = [int(v) for v in row]
        enc = []
        for i, x in enumerate(row):
            a = row[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            pred = (0, a, b, (a + b) >> 1, _paeth(a, b, c))[ftype]
            enc.append((x - pred) & 0xFF)
        raw += bytes([ftype] + enc)
        prev = row

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, depth, 0 if channels == 1 else 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b""))
