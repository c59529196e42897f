"""Blur-kernel estimation from gradient fields.

Alternates two solvers: a reweighted least-squares fit of the kernel to the
blurred image's gradients against the salient-edge field (with a sparsity
prior on kernel weights), and a gradient-count smoothing step that removes
isolated noise while preserving the kernel's connected trajectory.  The
kernel is projected onto the simplex-like constraint set (non-negative,
unit sum) after every inner solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (GradientField, _check_count, _check_finite, _check_kernel_shape, _check_real, _difference_spectra,
                   _pad_replicate, convolve, gradients, periodic_gradients)
from .deconv import cg_solve
from .errors import DegenerateStructureError, InvalidInputError, NumericalError

# Floor on |k| in the reweighting, avoiding the singular exponent at zero.
IRLS_WEIGHT_FLOOR = 1e-4

# Gradients below this fraction of the grid's largest gradient count as zero
# when evaluating the counting prior on float data (with a tiny absolute
# floor for pure-roundoff grids).
COUNT_REL_TOL = 1e-3
COUNT_ABS_FLOOR = 1e-8

_BETA_MAX = 1e5


@dataclass
class KernelEstParams:
    """Weights and iteration budgets for kernel estimation."""

    gamma: float = 0.01
    alpha: float = 0.5
    mu: float = 5e-3
    itr: int = 2
    irls_iters: int = 3
    cg_iters: int = 25

    def __post_init__(self):
        _check_real(self.gamma, "kernel-estimation: gamma", 0, closed=True)
        _check_real(self.alpha, "kernel-estimation: alpha", 0, 1)
        _check_real(self.mu, "kernel-estimation: mu", 0, closed=True)
        for name in ("itr", "irls_iters", "cg_iters"):
            _check_count(getattr(self, name), 1, "kernel-estimation: " + name)


def mu_schedule(kernel_size: int) -> float:
    """Default gradient-count weight, growing with kernel size (clamped)."""
    _check_count(kernel_size, 3, "kernel-estimation: kernel size")
    return float(np.clip(5e-3 * (kernel_size / 25.0), 1e-3, 2e-2))


def gradient_count(kernel) -> int:
    """Number of pixels whose forward-difference gradient is (numerically) nonzero.

    The tolerance is a small fraction of the grid's largest gradient, so the
    count is invariant to global rescaling and to additive constants.
    """
    g = gradients(np.asarray(kernel, dtype=np.float64))
    mag = np.abs(g.gx) + np.abs(g.gy)
    tol = max(COUNT_ABS_FLOOR, COUNT_REL_TOL * float(mag.max()))
    return int(np.count_nonzero(mag > tol))


def project_kernel(raw) -> tuple[np.ndarray, bool]:
    """The one rule that turns a grid into a kernel: an odd grid of
    non-negative weights that sum to one.

    Even side lengths are padded to odd with a trailing zero row/column,
    negative weights clamp to zero, and the result is divided by its sum.
    Raises InvalidInputError if a weight is not finite or if no positive
    mass is left (sum at most 1e-12): no kernel is invented.  Returns
    ``(kernel, False)``; the second value is always False and stays only
    because callers unpack two values.
    """
    k = np.array(raw, dtype=np.float64)
    if k.ndim != 2:
        raise InvalidInputError("kernel: expected a 2D array")
    _check_finite("kernel: weights", k)
    pad_y = k.shape[0] % 2 == 0
    pad_x = k.shape[1] % 2 == 0
    if pad_y or pad_x:
        k = np.pad(k, ((0, int(pad_y)), (0, int(pad_x))))
    k = np.maximum(k, 0.0)
    total = k.sum()
    if not total > 1e-12:
        raise InvalidInputError("kernel: weights have no positive mass")
    return k / total, False


def _run_sums(q: np.ndarray, n: int) -> np.ndarray:
    """Sums of every run of n consecutive rows of q, for at most n runs.

    Each run is the rows that all runs share plus a short head and tail, so
    no long prefix sums are differenced and the sums keep the accuracy of
    direct ones.
    """
    m = q.shape[0] - n + 1
    out = np.empty((m,) + q.shape[1:])
    out[:] = q[m - 1 : n].sum(axis=0)
    if m > 1:
        out[:-1] += np.cumsum(q[m - 2 :: -1], axis=0)[::-1]
        out[1:] += np.cumsum(q[n:], axis=0)
    return out


class _EdgeSystem:
    """Normal equations of ||grad B - k * grad S||^2 in the kernel unknown.

    Over both gradient channels c, the data term is sum_c ||A_c k' - b_c||^2:
    row (y, x) of A_c is the replicate-padded kh x kw window of structure
    channel c at that pixel, and k' is the kernel reversed, since window
    offsets run opposite to kernel taps.  The system holds the exact
    (kh kw)^2 Gram matrix sum_c A_c^T A_c and the right-hand side
    sum_c A_c^T b_c in kernel order, so one operator application is a small
    matrix-vector product.

    The Gram entry of window offsets (a, b) and (a + dy, b + dx) sums the lag
    product P(u, v) P(u + dy, v + dx) of the padded channels P over the
    h x w box at (a, b); each lag's product is formed once and summed over
    all its boxes.  No step calls BLAS, whose results follow its thread
    count in the last bits.
    """

    def __init__(self, grad_b: GradientField, grad_s: GradientField, kshape):
        kh, kw = kshape
        b = np.stack([np.asarray(c, dtype=np.float64) for c in grad_b])
        s = [np.asarray(c, dtype=np.float64) for c in grad_s]
        _, h, w = b.shape
        if any(c.shape != (h, w) for c in s):
            raise InvalidInputError("kernel-estimation: blurred and structure gradients differ in shape")
        _check_kernel_shape(np.empty((kh, kw)), (h, w))
        self.kshape = (kh, kw)
        p = np.stack([_pad_replicate(c, kh // 2, kw // 2) for c in s])
        _, ph, pw = p.shape
        windows = np.lib.stride_tricks.sliding_window_view(p, self.kshape, axis=(1, 2))
        self.rhs = np.einsum("cyxij,cyx->ij", windows, b)[::-1, ::-1].copy()
        # lags[dy, kw - 1 + dx, a, b - max(0, -dx)] is the entry of offsets
        # (a, b) and (a + dy, b + dx), for the lags with dy > 0 or dy == 0 <= dx
        lags = np.zeros((kh, 2 * kw - 1, kh, kw))
        for dy in range(kh):
            for dx in range(0 if dy == 0 else 1 - kw, kw):
                x0, x1 = max(0, -dx), pw - max(0, dx)
                q = np.einsum("cuv,cuv->uv", p[:, : ph - dy, x0:x1], p[:, dy:, x0 + dx : x1 + dx])
                lags[dy, kw - 1 + dx, : kh - dy, : kw - abs(dx)] = _run_sums(_run_sums(q, h).T, w).T
        # a pair of offsets takes the lag from its first offset in raster
        # order, so the matrix comes out exactly symmetric
        ya, xa, yb, xb = np.ogrid[:kh, :kw, :kh, :kw]
        forward = (yb > ya) | ((yb == ya) & (xb >= xa))
        gram = lags[abs(yb - ya), kw - 1 + np.where(forward, xb - xa, xa - xb),
                    np.minimum(ya, yb), np.minimum(xa, xb)]
        self.gram = gram.reshape(kh * kw, kh * kw)[::-1, ::-1].copy()

    def apply_data(self, kernel: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", self.gram, kernel.ravel()).reshape(self.kshape)


def data_residual(grad_b: GradientField, grad_s: GradientField, kernel) -> float:
    """||grad B - kernel * grad S||^2 with the estimator's boundary handling,
    evaluated directly."""
    k = np.asarray(kernel, dtype=np.float64)
    return sum(float(((convolve(s, k, "spatial") - np.asarray(b)) ** 2).sum())
               for s, b in zip(grad_s, grad_b))


def kernel_irls_step(grad_b: GradientField, grad_s: GradientField, k0, params: KernelEstParams,
                     system: _EdgeSystem | None = None) -> np.ndarray:
    """Reweighted least-squares fit of the kernel with an L_alpha sparsity prior.

    Each reweighting solves a quadratic by conjugate gradients on the normal
    equations, then projects onto the kernel constraints, keeping iterates
    feasible throughout; a solution that ``project_kernel`` refuses (not
    finite, or no positive mass) raises NumericalError.  ``system``, when
    given, is the prebuilt normal equations of (grad_b, grad_s) at the
    kernel's shape.
    """
    k = np.asarray(k0, dtype=np.float64)
    if not np.any(np.asarray(grad_s[0])) and not np.any(np.asarray(grad_s[1])):
        raise DegenerateStructureError("kernel-estimation: salient-edge field is all zero")
    if system is None:
        system = _EdgeSystem(grad_b, grad_s, k.shape)
    for _ in range(params.irls_iters):
        weight = params.gamma * params.alpha * np.maximum(np.abs(k), IRLS_WEIGHT_FLOOR) ** (params.alpha - 2.0)

        def apply_a(x):
            return system.apply_data(x) + (0.5 * weight) * x

        try:
            k, _ = project_kernel(cg_solve(apply_a, system.rhs, params.cg_iters))
        except InvalidInputError as exc:
            raise NumericalError("kernel-estimation: degenerate kernel iterate (%s)" % exc) from exc
    return k


def kernel_sparsity(kernel, alpha: float) -> float:
    """Sum |k|^alpha, the sparsity prior evaluated on a kernel."""
    return float((np.abs(np.asarray(kernel, dtype=np.float64)) ** alpha).sum())


def l0_gradient_smooth(kernel, mu: float) -> np.ndarray:
    """Gradient-count smoothing: argmin ||out - kernel||^2 + mu C(out).

    Half-quadratic splitting with an auxiliary gradient pair that is
    hard-thresholded per pixel, and a periodic frequency-domain solve for the
    kernel given the pair; the coupling weight doubles from 2 mu up to 1e5.

    The counting objective is invariant to a global rescale of the kernel, so
    the splitting runs on a gradient-normalized grid (largest gradient
    magnitude scaled to one) with ``mu`` interpreted in those units; the
    schedule's first threshold, half a unit gradient, then lands inside the
    grid's actual gradient range whatever the kernel's mass distribution, and
    ``mu`` values carry the same pruning strength they have on unit-range
    data.  Dominant structure survives the first pass; weaker gradients are
    smoothed away.  If the relaxation ends worse (in original units) than the
    trivial candidate, the input itself is returned, so the final energy
    never exceeds mu * C(kernel).  The output is not yet projected; callers
    project.
    """
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2:
        raise InvalidInputError("kernel-estimation: kernel grid must be 2D")
    _check_finite("kernel-estimation: kernel weights", k)
    _check_real(mu, "kernel-estimation: mu", 0, closed=True)
    if mu == 0.0:
        return k.copy()
    gk = gradients(k)
    scale_sq = float((gk.gx**2 + gk.gy**2).max())
    # Once the (gradient-normalized) mu exceeds the fidelity cost of
    # flattening, the constant grid is the exact minimizer: any non-constant
    # grid pays at least one count.
    flat = np.full_like(k, k.mean())
    flat_cost = float(((k - flat) ** 2).sum())
    if flat_cost <= mu * scale_sq or scale_sq == 0.0:
        return flat
    scale = np.sqrt(scale_sq)
    ry, rx = k.shape[0] // 2, k.shape[1] // 2
    x = np.pad(k / scale, ((ry, ry), (rx, rx)))
    conj_dx, conj_dy, d2 = _difference_spectra(x.shape)
    f_target = np.fft.fft2(x)
    beta = 2.0 * mu
    while beta <= _BETA_MAX:
        gx, gy = periodic_gradients(x)
        keep = gx * gx + gy * gy >= mu / beta
        fh = np.fft.fft2(np.where(keep, gx, 0.0))
        fv = np.fft.fft2(np.where(keep, gy, 0.0))
        numer = f_target + beta * (conj_dx * fh + conj_dy * fv)
        x = np.real(np.fft.ifft2(numer / (1.0 + beta * d2)))
        beta *= 2.0
    out = scale * x[ry : ry + k.shape[0], rx : rx + k.shape[1]]
    if float(((out - k) ** 2).sum()) + mu * gradient_count(out) > mu * gradient_count(k):
        return k.copy()
    return out


def estimate_kernel(grad_b: GradientField, grad_s: GradientField, k0, params: KernelEstParams) -> np.ndarray:
    """Full kernel estimation: alternate the least-squares fit and the
    gradient-count smoothing, projecting after each round.  The fit's normal
    equations are built once and shared by every round."""
    k = np.asarray(k0, dtype=np.float64)
    system = _EdgeSystem(grad_b, grad_s, k.shape)
    for _ in range(params.itr):
        k = kernel_irls_step(grad_b, grad_s, k, params, system=system)
        smoothed = l0_gradient_smooth(k, params.mu)
        k, _ = project_kernel(smoothed)
    return k
