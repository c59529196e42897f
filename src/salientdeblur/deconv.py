"""Non-blind deconvolution by iteratively reweighted least squares.

Two flavors share one IRLS core: an anisotropic-TV restoration used inside
the multi-scale loop, and a final restoration whose per-direction smoothness
weights relax wherever the salient structure has strong derivatives, so real
edges are not smoothed away.  Both go through one validated entry that
restores an image channel by channel on one blur operator.  Each
reweighting solves its quadratic with a fixed budget of conjugate-gradient
iterations on the normal equations; the budgets are module constants.  The
interim restoration starts every reweighting's CG from zero; the final one
starts it from the previous iterate, the point where the weights were taken,
so each reweighting is a majorize-minimize descent step on the true energy.
A CG step allocates no image-size array: the blur's normal operator and the
regularizer write into buffers kept for the whole restoration, and the CG
vectors update in place, with the same arithmetic as the plain expressions.
The reweighting writes its weights in place too, and reads the image
without copying it.  A gray restoration at 319^2 with a 15^2 kernel holds
about 14 image planes above its input: the blur operator's frames and kernel
response (about 4), the right-hand side, two weight buffers, the shared
difference scratch, the divergence and its scratch (6), and the four CG
vectors; a warm start adds the previous iterate.  An RGB final restoration
also holds the two structure weights and the finished channels, about 19
planes at its peak.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BlurOperator, GradientField, _check_count, _check_kernel_weights, _inner, gradients
from .errors import InvalidInputError, NumericalError
from .structure import smooth_weight

CG_TOL = 1e-10  # cg_solve's early exit, relative to ||b||
IRLS_ITERS = 3  # reweightings per restoration
CG_ITERS_INTERIM = 30  # cold-started CG steps per reweighting, interim restoration
CG_ITERS_FINAL = 50  # warm-started CG steps per reweighting, final restoration
WEIGHT_FLOOR = 1e-3  # floor on |dI| in the reweighting


def cg_solve(apply_a, b: np.ndarray, iters: int, *, x0: np.ndarray | None = None) -> np.ndarray:
    """Conjugate gradients with a fixed iteration budget.

    ``iters`` is a non-negative integer; 0 returns the start.  Starts from
    zero, or from a copy of ``x0`` (left unmodified); the initial residual
    ``b - A x0`` costs one application of ``apply_a``, which must behave as
    a symmetric positive semidefinite operator on arrays shaped like ``b``.
    ``apply_a`` may return a buffer it overwrites on its next call: each
    result is used up before the next application.  The vector updates run
    in place, so a step allocates nothing beyond what ``apply_a`` does.
    Exits early once the residual norm falls below ``CG_TOL * ||b||``; raises
    NumericalError if a step scalar turns non-finite.
    """
    _check_count(iters, 0, "conjugate-gradient: iters")
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != b.shape:
            raise InvalidInputError("conjugate-gradient: x0 shape %s != b shape %s"
                                    % (x.shape, b.shape))
        r = b - apply_a(x)
    p = r.copy()
    step = np.empty_like(r)
    rs = _inner(r, r)
    b_norm = np.sqrt(rs) if x0 is None else np.sqrt(_inner(b, b))
    if rs == 0.0:
        return x
    for _ in range(iters):
        ap = apply_a(p)
        denom = _inner(p, ap)
        if denom == 0.0:
            break
        alpha = rs / denom
        if not np.isfinite(alpha):
            raise NumericalError("conjugate-gradient: non-finite step scalar")
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        rs_new = _inner(r, r)
        if not np.isfinite(rs_new):
            raise NumericalError("conjugate-gradient: non-finite residual")
        if np.sqrt(rs_new) < CG_TOL * b_norm:
            break
        np.add(r, np.multiply(rs_new / rs, p, out=p), out=p)
        rs = rs_new
    return x


def _irls_deconv_single(image, op: BlurOperator, lam: float, wx_base, wy_base,
                        irls_iters: int, cg_iters: int, floor: float, *,
                        warm_start: bool = False) -> np.ndarray:
    rhs = op.adjoint(image)
    h, w = image.shape
    # The weights and the regularizer run on buffers kept for the whole call.
    # They repeat the arithmetic of gradients() and divergence() slice by
    # slice, so each value rounds as theirs does.  The weights and the
    # weighted differences drop the zero last column and row of the
    # gradients, which the divergence never reads; the x- and y-differences
    # share one scratch, because the x-terms are summed into div before the
    # y-terms are formed.
    wx, wy = np.empty((h, w - 1)), np.empty((h - 1, w))
    scratch = np.empty(max(wx.size, wy.size))
    tx, ty = scratch[: wx.size].reshape(wx.shape), scratch[: wy.size].reshape(wy.shape)
    div = np.empty((h, w))
    diff = np.empty((h, w))
    bx = np.broadcast_to(wx_base, (h, w))[:, :-1]
    by = np.broadcast_to(wy_base, (h, w))[:-1, :]
    scale = -0.5 * lam  # (0.5 * lam) * (-div), with the exact negation moved

    def apply_a(u):
        div.fill(0.0)
        np.multiply(wx, np.subtract(u[:, 1:], u[:, :-1], out=tx), out=tx)
        if w >= 2:
            div[:, 0] += tx[:, 0]
            div[:, 1:-1] += np.subtract(tx[:, 1:], tx[:, :-1], out=diff[:, 1:-1])
            div[:, -1] -= tx[:, -1]
        np.multiply(wy, np.subtract(u[1:, :], u[:-1, :], out=ty), out=ty)
        if h >= 2:
            div[0, :] += ty[0, :]
            div[1:-1, :] += np.subtract(ty[1:, :], ty[:-1, :], out=diff[1:-1, :])
            div[-1, :] -= ty[-1, :]
        return np.add(op.normal(u), np.multiply(scale, div, out=div), out=div)

    def weigh(d, base):  # base / max(|d|, floor), in d's buffer
        np.divide(base, np.maximum(np.abs(d, out=d), floor, out=d), out=d)

    out = image  # only read: the first weights and the first warm start
    for _ in range(irls_iters):
        weigh(np.subtract(out[:, 1:], out[:, :-1], out=wx), bx)
        weigh(np.subtract(out[1:, :], out[:-1, :], out=wy), by)
        x0 = out if warm_start else None
        del out  # a cold start reads nothing of the last iterate
        out = cg_solve(apply_a, rhs, cg_iters, x0=x0)
        if not np.all(np.isfinite(out)):
            raise NumericalError("deconvolution: non-finite iterate")
    return out


def _restore(image, kernel, lam: float, wx_base, wy_base, cg_iters: int, warm_start: bool) -> np.ndarray:
    """Both restorations' entry: checks the image, ``lam`` and the kernel, and
    restores an (h, w) image, or an (h, w, c) one channel by channel, with
    one blur operator and the same weights."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise InvalidInputError("deconv: expected an (h, w) or (h, w, c) image, got shape %s"
                                % (img.shape,))
    if not np.all(np.isfinite(img)):
        raise InvalidInputError("deconv: image samples must be finite")
    if not (math.isfinite(lam) and lam > 0):
        raise InvalidInputError("deconv: lambda must be a finite number > 0, got %r" % (lam,))
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel_weights(k)
    op = BlurOperator(k, img.shape[:2])

    def restore(channel):
        return _irls_deconv_single(channel, op, lam, wx_base, wy_base, IRLS_ITERS, cg_iters,
                                   WEIGHT_FLOOR, warm_start=warm_start)

    if img.ndim == 2:
        return restore(img)
    return np.dstack([restore(img[:, :, c]) for c in range(img.shape[2])])


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
    return _restore(image, kernel, lambda_c, 1.0, 1.0, CG_ITERS_INTERIM, False)


def adaptive_deconv(image, kernel, grad_s: GradientField, lam: float) -> np.ndarray:
    """Final restoration with structure-adaptive smoothness weights.

    The per-direction regularizer weight is exp(-|dS|^0.8) / max(|dI|, floor),
    so smoothing relaxes across salient edges.  Each reweighting's CG starts
    from the previous iterate (the blurred image for the first).  Multi-channel
    images are restored channel by channel with the same structure field.
    """
    sx = np.asarray(grad_s[0], dtype=np.float64)
    sy = np.asarray(grad_s[1], dtype=np.float64)
    if sx.shape != np.shape(image)[:2] or sy.shape != sx.shape:
        raise InvalidInputError("deconv: structure field shape %s != image shape %s"
                                % (sx.shape, np.shape(image)[:2]))
    if not (np.all(np.isfinite(sx)) and np.all(np.isfinite(sy))):
        raise InvalidInputError("deconv: structure field must be finite")
    return _restore(image, kernel, lam, smooth_weight(sx), smooth_weight(sy), CG_ITERS_FINAL, True)
