"""Non-blind deconvolution by iteratively reweighted least squares.

Two flavors share one IRLS core: an anisotropic-TV restoration used inside
the multi-scale loop, and a final restoration whose per-direction smoothness
weights relax wherever the salient structure has strong derivatives, so real
edges are not smoothed away.  Both go through one validated entry that
restores an image channel by channel on one blur operator.  Each
reweighting solves its quadratic with a fixed budget of conjugate-gradient
iterations on the normal equations; the budgets are module constants.  The
interim restoration runs 3 reweightings of 30 CG steps, each started from
zero.  The final one runs 6 reweightings of 20 steps, each started from the
previous iterate, the point where the weights were taken, so each
reweighting is a majorize-minimize descent step on the true energy; its CG
is preconditioned by the inverse of the normal operator's diagonal (sum of
k^2, plus lam/2 times the up to four weights of the differences a pixel
enters), rebuilt in place at each reweighting.
A CG step allocates no image-size array: the blur's normal operator and the
regularizer write into buffers kept for the whole restoration, and the CG
vectors update in place, with the same arithmetic as the plain expressions.
The reweighting writes its weights in place too, and reads the image
without copying it; the final restoration forms its structure weights
exp(-|dS|^0.8) in the weight buffers at each reweighting rather than holding
them.  The iterate is one buffer for the whole call, which a warm start
updates in place (``cg_solve(..., out=)``).  The regularizer's differences
and CG's step borrow the blur operator's half spectrum and real frame,
which nothing needs between two applications (``BlurOperator.scratch``).
A gray interim restoration at 319^2 with a 15^2 kernel holds about 11
image planes above its input: the blur operator's half spectrum, real frame
and kernel response (about 4), the right-hand side, two weight buffers and
the divergence (4), and the iterate and two CG vectors (3); the final
restoration's preconditioner adds one more.  An RGB final restoration also
holds its result, about 15 planes at its peak, or 12 when the result goes
into the image itself (``out=``), as the command line's restorations do.

``pipeline.restore`` takes the final restoration's structure from a
full-frame latent by ``_l2_latent``: one exact Fourier-domain solve under
a quadratic gradient prior on a replicate-padded periodic frame, with no
CG at all.
"""

from __future__ import annotations

import numpy as np

from .core import (BlurOperator, GradientField, _check_count, _check_finite, _check_kernel_weights, _check_real,
                   _diff_x, _fast_len, _inner, gradients)
from .errors import InvalidInputError, NumericalError
from .structure import smooth_weight

CG_TOL = 1e-10  # cg_solve's early exit, relative to ||b||
IRLS_ITERS = 3  # reweightings, interim restoration
CG_ITERS_INTERIM = 30  # cold-started CG steps per reweighting, interim restoration
IRLS_ITERS_FINAL = 6  # reweightings, final restoration
CG_ITERS_FINAL = 20  # warm-started, Jacobi-preconditioned CG steps per reweighting, final restoration
WEIGHT_FLOOR = 1e-3  # floor on |dI| in the reweighting
L2_WEIGHT = 1e-2  # gradient weight of the closed-form latent


def cg_solve(apply_a, b: np.ndarray, iters: int, *, x0: np.ndarray | None = None,
             minv: np.ndarray | None = None, out: np.ndarray | None = None,
             step: np.ndarray | None = None) -> np.ndarray:
    """Conjugate gradients with a fixed iteration budget.

    ``b`` is a real array (integers are taken as float64).  ``iters`` is a
    non-negative integer; 0 returns the start.  Starts from zero, or from
    ``x0``; the initial residual ``b - A x0`` costs one application of
    ``apply_a``, which must behave as a symmetric positive semidefinite
    operator on arrays shaped like ``b``.  ``minv``, when given, is a
    finite, positive array shaped like ``b`` that preconditions the solve
    by elementwise multiplication (the inverse of A's diagonal, for
    Jacobi); without it the steps are plain CG's, which is the
    preconditioned loop with the preconditioned residual equal to the
    residual.  ``apply_a`` may return a buffer it overwrites on its next
    call: each result is used up before the next application.

    The iterate lives in ``out`` when given (a float64 array shaped like
    ``b``, which is returned), else in a new array.  ``x0`` is copied into
    it and left unmodified, unless ``x0`` is ``out`` itself: then the solve
    warm-starts in place.  ``step``, when given, is a float64 array shaped
    like ``b`` for the scaled updates and the preconditioned residual; its
    content is dead whenever ``apply_a`` runs, so ``apply_a`` may overwrite
    it.  The vector updates run in place, so a step allocates nothing
    beyond what ``apply_a`` does.  Exits early once the residual norm falls
    below ``CG_TOL * ||b||``; raises NumericalError if a step scalar turns
    non-finite.
    """
    _check_count(iters, 0, "conjugate-gradient: iters")
    b = np.asarray(b)
    if b.dtype.kind not in "iuf":
        raise InvalidInputError("conjugate-gradient: b must be a real array, got dtype %s" % b.dtype)
    b = b.astype(np.float64, copy=False)
    for name, given in (("x0", x0), ("minv", minv), ("out", out), ("step", step)):
        if given is not None and np.shape(given) != b.shape:
            raise InvalidInputError("conjugate-gradient: %s shape %s != b shape %s"
                                    % (name, np.shape(given), b.shape))
    for name, given in (("out", out), ("step", step)):
        if given is not None and not (isinstance(given, np.ndarray) and given.dtype == np.float64):
            raise InvalidInputError("conjugate-gradient: %s must be a float64 array" % name)
    if minv is not None:
        _check_finite("conjugate-gradient: minv", minv)
        if not np.all(np.greater(minv, 0.0)):
            raise InvalidInputError("conjugate-gradient: minv must be > 0")
    x = np.empty_like(b) if out is None else out
    if x0 is None:
        x.fill(0.0)
        r = b.copy()
    else:
        if x0 is not x:
            np.copyto(x, x0)
        r = b - apply_a(x)
    if step is None:
        step = np.empty_like(r)  # the scaled updates, and the preconditioned residual
    rs = _inner(r, r)
    b_norm = np.sqrt(rs) if x0 is None else np.sqrt(_inner(b, b))
    if rs == 0.0:
        return x
    z = r if minv is None else np.multiply(minv, r, out=step)
    rz = rs if minv is None else _inner(r, z)
    p = z.copy()
    for _ in range(iters):
        ap = apply_a(p)
        denom = _inner(p, ap)
        if denom == 0.0:
            break
        alpha = rz / denom
        if not np.isfinite(alpha):
            raise NumericalError("conjugate-gradient: non-finite step scalar")
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        rs = _inner(r, r)
        if not np.isfinite(rs):
            raise NumericalError("conjugate-gradient: non-finite residual")
        if np.sqrt(rs) < CG_TOL * b_norm:
            break
        z = r if minv is None else np.multiply(minv, r, out=step)
        rz_new = rs if minv is None else _inner(r, z)
        np.add(z, np.multiply(rz_new / rz, p, out=p), out=p)
        rz = rz_new
    return x


def _irls_deconv_single(image, op: BlurOperator, lam: float, wx_base, wy_base,
                        irls_iters: int, cg_iters: int, floor: float, *,
                        warm_start: bool = False, precondition: bool = False,
                        structure: bool = False) -> np.ndarray:
    # ``structure``: wx_base and wy_base are the structure field's
    # derivatives, and the weight bases their smooth_weight, formed in the
    # weight buffers at each reweighting instead of held for the whole call.
    rhs = op.adjoint(image)
    h, w = image.shape
    # The weights and the regularizer run on buffers kept for the whole call
    # and repeat the arithmetic of gradients() and divergence(), so each
    # value rounds as theirs does, up to the sign of a zero.  The x-terms are
    # differences of flat row-major planes (no iteration buffers): the
    # x-weights' zero last column cancels the differences that wrap from one
    # row to the next.  The y-terms drop the gradients' zero last row, which
    # the divergence never reads, and run on contiguous row blocks.  The
    # blur operator's lent half spectrum holds the x- and y-differences (the
    # x-terms are summed into div before the y-terms are formed; the
    # reweighting holds |dI| there), and its lent real frame the
    # y-divergence's differences and CG's step, dead whenever apply_a runs.
    wx, wy = np.empty((h, w)), np.empty((h - 1, w))
    step, lent = op.scratch()
    tx, ty = lent, lent[: h - 1]
    div = np.empty((h, w))
    flat_tx, flat_div = tx.reshape(-1), div.reshape(-1)
    bx = np.broadcast_to(wx_base, (h, w))
    by = np.broadcast_to(wy_base, (h, w))[:-1, :]
    scale = -0.5 * lam  # (0.5 * lam) * (-div), with the exact negation moved
    minv = np.empty((h, w)) if precondition else None
    x = np.empty((h, w))  # the iterate, kept across the reweightings

    def apply_a(u):
        np.multiply(wx, _diff_x(u, tx), out=tx)
        flat_div[0] = flat_tx[0]
        np.subtract(flat_tx[1:], flat_tx[:-1], out=flat_div[1:])
        np.multiply(wy, np.subtract(u[1:, :], u[:-1, :], out=ty), out=ty)
        if h >= 2:
            div[0, :] += ty[0, :]
            div[1:-1, :] += np.subtract(ty[1:, :], ty[:-1, :], out=step[1:-1, :])
            div[-1, :] -= ty[-1, :]
        return np.add(op.normal(u), np.multiply(scale, div, out=div), out=div)

    def weigh(wt, t, base):  # base weight / max(|dI|, floor) in wt, with dI in t
        np.maximum(np.abs(t, out=t), floor, out=t)
        np.divide(smooth_weight(base, out=wt) if structure else base, t, out=wt)

    def invert_diagonal():  # 1 / (sum k^2 + lam/2 * the weights touching each pixel), in minv
        # sum k^2 is the blur's diagonal away from the frame's edge; wx's
        # zero last column adds nothing to the pixels it touches
        np.copyto(minv, wx)
        minv.reshape(-1)[1:] += wx.reshape(-1)[:-1]
        minv[:-1, :] += wy
        minv[1:, :] += wy
        np.add(np.multiply(0.5 * lam, minv, out=minv), _inner(op.kernel, op.kernel), out=minv)
        np.divide(1.0, minv, out=minv)

    src = image  # only read: the first weights and the first warm start
    for _ in range(irls_iters):
        weigh(wx, _diff_x(src, tx), bx)
        wx[:, -1] = 0.0
        weigh(wy, np.subtract(src[1:, :], src[:-1, :], out=ty), by)
        if precondition:
            invert_diagonal()
        cg_solve(apply_a, rhs, cg_iters, x0=src if warm_start else None, minv=minv, out=x, step=step)
        if not np.all(np.isfinite(x)):
            raise NumericalError("deconvolution: non-finite iterate")
        src = x
    return src


def _check_out(out, shape) -> None:
    """An ``out=`` argument: None, or a writeable float64 array of ``shape``."""
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == tuple(shape) and out.flags.writeable):
        raise InvalidInputError("deconv: out must be None or a writeable float64 array of shape %s"
                                % (tuple(shape),))


def _restore(image, kernel, lam: float, wx_base, wy_base, final: bool, out=None) -> np.ndarray:
    """Both restorations' entry: checks the image, ``lam``, the kernel and
    ``out``, and restores an (h, w) image, or an (h, w, c) one channel by
    channel, with one blur operator and the same weights.  ``final`` picks
    the final restoration's budgets, warm start and preconditioner over the
    interim's, and reads ``wx_base`` and ``wy_base`` as the structure
    field's derivatives rather than as weights.

    The result goes into ``out`` when given, else into a new array allocated
    once the first channel is restored.  Each channel of the image is read
    only while it is restored, so ``out`` may be the image itself.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3) or img.ndim == 3 and img.shape[2] == 0:
        raise InvalidInputError("deconv: expected an (h, w) or (h, w, c) image with c >= 1, got shape %s"
                                % (img.shape,))
    _check_finite("deconv: image samples", img)
    _check_real(lam, "deconv: lambda", 0)
    _check_out(out, img.shape)
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel_weights(k)
    op = BlurOperator(k, img.shape[:2])
    irls_iters, cg_iters = (IRLS_ITERS_FINAL, CG_ITERS_FINAL) if final else (IRLS_ITERS, CG_ITERS_INTERIM)
    planes = img[:, :, None] if img.ndim == 2 else img  # (h, w) as (h, w, 1)
    for c in range(planes.shape[2]):
        x = _irls_deconv_single(planes[:, :, c], op, lam, wx_base, wy_base, irls_iters, cg_iters,
                                WEIGHT_FLOOR, warm_start=final, precondition=final, structure=final)
        if out is None:
            out = np.empty(img.shape)
        (out[:, :, None] if out.ndim == 2 else out)[:, :, c] = x
        del x  # not held through the next channel's restoration
    return out


def _l2_latent(image, kernel) -> np.ndarray:
    """argmin ||k * x - b||^2 + L2_WEIGHT ||grad x||^2 by one Fourier solve.

    The (h, w) image is replicate-padded by at least the kernel's side on
    each edge, to 5-smooth frame sizes, and the quadratic is solved exactly
    on that periodic frame (circular blur about the kernel's centre,
    wrap-around forward differences); the frame is cropped back to (h, w).
    The kernel must have a non-zero sum.
    """
    b = np.asarray(image, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    (h, w), (kh, kw) = b.shape, k.shape
    fh, fw = _fast_len(h + 2 * kh), _fast_len(w + 2 * kw)
    top, left = (fh - h) // 2, (fw - w) // 2
    frame = np.pad(b, ((top, fh - h - top), (left, fw - w - left)), mode="edge")
    otf = np.zeros((fh, fw))
    otf[:kh, :kw] = k
    fk = np.fft.rfft2(np.roll(otf, (-(kh // 2), -(kw // 2)), axis=(0, 1)))
    # |exp(2 pi i f) - 1|^2 per axis: the forward difference's response
    grad2 = ((2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(fh)))[:, None]
             + (2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(fw)))[None, :])
    spec = np.conj(fk) * np.fft.rfft2(frame) / (fk.real ** 2 + fk.imag ** 2 + L2_WEIGHT * grad2)
    latent = np.fft.irfft2(spec, s=(fh, fw))
    del spec  # before the copy, which the caller keeps instead of a view pinning the frame
    return latent[top : top + h, left : left + w].copy()


def deconv_objective(candidate, image, kernel, lam: float, grad_s: GradientField | None = None) -> float:
    """True (non-surrogate) restoration energy for a candidate latent image."""
    cand = np.asarray(candidate, dtype=np.float64)
    img = np.asarray(image, dtype=np.float64)
    op = BlurOperator(kernel, img.shape)
    g = gradients(cand)
    if grad_s is None:
        wx = wy = 1.0
    else:
        wx, wy = smooth_weight(grad_s.gx), smooth_weight(grad_s.gy)
    data = float(((op.forward(cand) - img) ** 2).sum())
    return data + lam * float((wx * np.abs(g.gx)).sum() + (wy * np.abs(g.gy)).sum())


def tv_deconv(image, kernel, lambda_c: float) -> np.ndarray:
    """Interim restoration: argmin ||image - kernel * I||^2 + lambda_c ||grad I||_1.

    Anisotropic TV solved by IRLS (derivative weights from the previous
    iterate, floored), initialized at the blurred image itself, with every
    reweighting's CG started from zero.  Multi-channel (h, w, c) images are
    restored channel by channel.
    """
    return _restore(image, kernel, lambda_c, 1.0, 1.0, False)


def adaptive_deconv(image, kernel, grad_s: GradientField, lam: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """Final restoration with structure-adaptive smoothness weights.

    The per-direction regularizer weight is exp(-|dS|^0.8) / max(|dI|, floor),
    so smoothing relaxes across salient edges.  Each reweighting's
    Jacobi-preconditioned CG starts from the previous iterate (the blurred
    image for the first).  Multi-channel images are restored channel by
    channel with the same structure field.  The result goes into ``out``
    when given: a writeable float64 array of the image's shape, which may
    be the image itself (a caller that does not read its input again saves
    the result's planes).
    """
    sx = np.asarray(grad_s[0], dtype=np.float64)
    sy = np.asarray(grad_s[1], dtype=np.float64)
    if sx.shape != np.shape(image)[:2] or sy.shape != sx.shape:
        raise InvalidInputError("deconv: structure field shape %s != image shape %s"
                                % (sx.shape, np.shape(image)[:2]))
    _check_finite("deconv: structure field", sx, sy)
    return _restore(image, kernel, lam, sx, sy, True, out)
