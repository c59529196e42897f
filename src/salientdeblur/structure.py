"""Salient-structure extraction from a blurred image.

The stages: a coherence map r scores each window by the ratio of the summed
gradient vector to the summed gradient magnitude; r feeds a per-pixel
fidelity weight for an adaptive total-variation split of the image into
structure and texture; a shock filter sharpens the structure component; and
a magnitude threshold keeps only the salient edges that drive kernel
estimation.
"""

from __future__ import annotations

import math
import numpy as np

from .core import (GradientField, _check_count, _check_finite, _check_real, _inner, _pad_replicate, divergence,
                   gradients)
from .errors import InvalidInputError


def _channel(image, stage: str) -> np.ndarray:
    """A stage's input: a single-channel image of finite samples, as float64."""
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError("structure: %s expects a single-channel image" % stage)
    _check_finite("structure: %s samples" % stage, a)
    return a


def _check_window(window, where: str) -> None:
    """The coherence window's side, for ``r_map`` and ``DeblurConfig``."""
    _check_count(window, 3, where + ": window", odd=True)


def _window_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sum over a window x window neighborhood, clipped at the borders."""
    h, w = a.shape
    r = window // 2
    acc = np.zeros((h + 1, w + 1))
    acc[1:, 1:] = a
    acc = acc.cumsum(axis=0).cumsum(axis=1)
    r1 = np.maximum(np.arange(h) - r, 0)
    r2 = np.minimum(np.arange(h) + r + 1, h)
    c1 = np.maximum(np.arange(w) - r, 0)
    c2 = np.minimum(np.arange(w) + r + 1, w)
    return acc[np.ix_(r2, c2)] - acc[np.ix_(r1, c2)] - acc[np.ix_(r2, c1)] + acc[np.ix_(r1, c1)]


def r_map(image, window: int = 5) -> np.ndarray:
    """Local gradient-coherence map in [0, 1).

    Near zero where the window is flat or gradients cancel (fine texture),
    near one on coherent structure.  Windows are clipped at the image border.
    """
    a = _channel(image, "r_map")
    _check_window(window, "structure")
    g = gradients(a)
    sx = _window_sum(g.gx, window)
    sy = _window_sum(g.gy, window)
    smag = _window_sum(np.hypot(g.gx, g.gy), window)
    return np.hypot(sx, sy) / (smag + 0.5)


def smooth_weight(r, *, out: np.ndarray | None = None) -> np.ndarray:
    """Fidelity weight exp(-|r|^0.8); 1 in flat regions, smaller on structure.

    Written into ``out`` (a float64 array shaped like ``r``) when given.
    """
    a = np.abs(np.asarray(r, dtype=np.float64), out=out)
    return np.exp(np.negative(np.power(a, 0.8, out=a), out=a), out=a)


def tv_objective(u, image, theta: float, omega=None) -> float:
    """Energy of the adaptive TV model: sum ||grad u||_2 + (u - image)^2 / (2 theta omega)."""
    u = np.asarray(u, dtype=np.float64)
    f = np.asarray(image, dtype=np.float64)
    lam = theta * (np.ones_like(f) if omega is None else np.asarray(omega, dtype=np.float64))
    g = gradients(u)
    return _tv_energy(u, np.hypot(g.gx, g.gy), f, lam)


def _tv_energy(u: np.ndarray, mag: np.ndarray, f: np.ndarray, lam: np.ndarray,
               t: np.ndarray | None = None) -> float:
    """sum mag + (u - f)^2 / (2 lam), with mag = ||grad u||_2 and lam = theta * omega per pixel;
    ``t``, when given, is a scratch plane shaped like u.

    The fidelity is summed as (u - f)^2 / lam and halved, with no plane for
    2 lam: halving is exact, in each term and in each of the sum's pairwise
    partial sums, so the energy has the bits of the direct formula.
    """
    fidelity = np.divide(np.square(np.subtract(u, f, out=t), out=t), lam, out=t)
    return float(mag.sum() + 0.5 * fidelity.sum())


def adaptive_tv_denoise(image, theta: float, omega=None, max_iters: int = 100, tol: float = 1e-3) -> np.ndarray:
    """Structure component of an image under spatially weighted TV smoothing.

    Minimizes sum ||grad I_s||_2 + (I_s - image)^2 / (2 theta omega) by a dual
    projection fixed point with a per-pixel step; omega None means the plain
    (uniform-fidelity) model.  Stops when the relative change of the iterate
    drops below ``tol`` or after ``max_iters`` iterations.

    The dual iteration is not primal-monotone (near jumps the energy can rise
    transiently before settling), so the iterate with the lowest energy seen
    is returned; the input itself is iterate zero, hence the output energy
    never exceeds the input's.

    The iteration runs on kept buffers and holds about 11 image planes above
    its input: lam and tau / lam, the dual pair, the gradient pair and their
    magnitude, the iterate, the previous one, the best one, and one
    temporary.  Only the divergence and the gradients are formed afresh
    each iterate, after the planes they replace are dropped.
    """
    f = _channel(image, "adaptive_tv_denoise")
    _check_real(theta, "structure: theta", 0)
    _check_count(max_iters, 0, "structure: max_iters and tol are budgets; max_iters")
    _check_real(tol, "structure: max_iters and tol are budgets; tol", 0, closed=True)
    if omega is None:
        lam = np.full_like(f, theta)
    else:
        om = np.asarray(omega, dtype=np.float64)
        if om.shape != f.shape:
            raise InvalidInputError("structure: omega shape %s != image shape %s" % (om.shape, f.shape))
        if not np.all((om > 0) & (om <= 1)):  # a NaN fails both
            raise InvalidInputError("structure: omega entries must lie in (0, 1]")
        lam = theta * om
    tau = 0.125
    coef = tau / lam
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    t = np.empty_like(f)  # temporary
    u = f
    # each iterate's gradients serve both its energy and the next dual step
    gx, gy = gradients(u)
    mag = np.hypot(gx, gy)
    best = f.copy()
    best_energy = _tv_energy(u, mag, f, lam, t)
    for _ in range(max_iters):
        denom = np.add(1.0, np.multiply(coef, mag, out=t), out=t)
        np.divide(np.add(px, np.multiply(coef, gx, out=gx), out=px), denom, out=px)
        np.divide(np.add(py, np.multiply(coef, gy, out=gy), out=py), denom, out=py)
        del gx, gy  # dead until this iterate's gradients replace them
        u_prev = u
        u = divergence(GradientField(px, py))
        np.add(f, np.multiply(lam, u, out=u), out=u)
        gx, gy = gradients(u)
        e = _tv_energy(u, np.hypot(gx, gy, out=mag), f, lam, t)
        if e < best_energy:
            best_energy = e
            np.copyto(best, u)
        step = np.subtract(u, u_prev, out=t)
        if np.sqrt(_inner(step, step)) <= tol * max(np.sqrt(_inner(u_prev, u_prev)), 1e-12):
            break
    return best


def _minmod(c: np.ndarray, back: np.ndarray, ahead: np.ndarray, out: np.ndarray, t: np.ndarray,
            t2: np.ndarray) -> np.ndarray:
    """minmod(c - back, ahead - c) in ``out``, with ``t`` and ``t2`` as scratch.

    The backward difference is formed twice, so three planes suffice; every
    value rounds as the plain expressions' would.
    """
    ahead_diff = np.subtract(ahead, c, out=out)
    smaller_back = np.less_equal(np.abs(np.subtract(c, back, out=t), out=t), np.abs(ahead_diff, out=t2))
    back_diff = np.subtract(c, back, out=t)
    opposite = np.logical_not(np.greater(np.multiply(back_diff, ahead_diff, out=t2), 0))
    np.copyto(out, back_diff, where=smaller_back)
    np.copyto(out, 0.0, where=opposite)
    return out


def shock_filter(image) -> np.ndarray:
    """One step of the edge-enhancing shock evolution d I/dt = -sign(D I) ||grad I||, dt = 1.

    D is the second derivative along the gradient direction (central
    differences); the gradient magnitude uses minmod upwinding.  Output is
    clamped to the input's min/max range.  Runs on kept buffers, about 6
    image planes above the input: the padded frame and five stencil terms,
    one of which receives the output.
    """
    a = _channel(image, "shock_filter")
    edge2 = np.empty(a.shape)  # the output, allocated first so it pins none of the planes freed on return
    p = _pad_replicate(a, 1, 1)
    c, left, right, up, down = p[1:-1, 1:-1], p[1:-1, :-2], p[1:-1, 2:], p[:-2, 1:-1], p[2:, 1:-1]
    # The stencil terms are formed one at a time on kept buffers, in the
    # order of the plain expressions: ix = 0.5 (right - left),
    # iy = 0.5 (down - up), ixx = right - 2 c + left, iyy = down - 2 c + up,
    # ixy = 0.25 (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) and
    # edge2 = ix ix ixx + 2 ix iy ixy + iy iy iyy.
    ix, iy, t, mag = (np.empty(a.shape) for _ in range(4))
    np.multiply(0.5, np.subtract(right, left, out=ix), out=ix)
    np.multiply(0.5, np.subtract(down, up, out=iy), out=iy)
    ixx = np.add(np.subtract(right, np.multiply(2.0, c, out=t), out=t), left, out=t)
    np.multiply(np.multiply(ix, ix, out=edge2), ixx, out=edge2)
    ixy = np.subtract(p[2:, 2:], p[2:, :-2], out=t)
    np.multiply(0.25, np.add(np.subtract(ixy, p[:-2, 2:], out=t), p[:-2, :-2], out=t), out=t)
    cross = np.multiply(np.multiply(np.multiply(2.0, ix, out=ix), iy, out=ix), ixy, out=ix)
    np.add(edge2, cross, out=edge2)
    iyy = np.add(np.subtract(down, np.multiply(2.0, c, out=t), out=t), up, out=t)
    np.add(edge2, np.multiply(np.multiply(iy, iy, out=iy), iyy, out=iy), out=edge2)
    # mag = hypot(minmod(c - left, right - c), minmod(c - up, down - c))
    np.hypot(_minmod(c, left, right, ix, iy, t), _minmod(c, up, down, mag, iy, t), out=mag)
    speed = np.multiply(np.sign(edge2, out=edge2), mag, out=edge2)
    return np.clip(np.subtract(a, speed, out=edge2), a.min(), a.max(), out=edge2)


def _mask(g: GradientField, threshold: float) -> np.ndarray:
    _check_real(threshold, "structure: threshold", 0, closed=True)
    return np.hypot(g.gx, g.gy) >= threshold


def salient_mask(enhanced, threshold: float) -> np.ndarray:
    """Boolean mask of pixels whose gradient magnitude reaches the threshold."""
    return _mask(gradients(_channel(enhanced, "salient_mask")), threshold)


def select_salient_edges(enhanced, threshold: float) -> GradientField:
    """Gradient field of the enhanced structure, zeroed where the gradient
    magnitude falls below the threshold."""
    g = gradients(_channel(enhanced, "select_salient_edges"))
    mask = _mask(g, threshold)
    return GradientField(np.where(mask, g.gx, 0.0), np.where(mask, g.gy, 0.0))


def init_threshold(grad: GradientField, image_pixels: int, kernel_pixels: int) -> float:
    """Starting gradient threshold that keeps enough pixels per direction group.

    Gradient directions (mod 180 degrees) are quantized into four 45-degree
    groups; each group holding at least m = ceil(sqrt(image_pixels *
    kernel_pixels) / 2) pixels contributes the magnitude of its m-th largest
    member, and the smallest contribution wins.  Returns 0 when every group
    is too sparse (degenerate input; the caller must handle it).
    """
    _check_count(image_pixels, 1, "structure: image_pixels")
    _check_count(kernel_pixels, 1, "structure: kernel_pixels")
    gx = np.asarray(grad[0], dtype=np.float64).ravel()
    gy = np.asarray(grad[1], dtype=np.float64).ravel()
    mag = np.hypot(gx, gy)
    _check_finite("structure: gradient field", mag)
    nz = mag > 0
    if not np.any(nz):
        return 0.0
    angle = np.degrees(np.arctan2(gy[nz], gx[nz])) % 180.0
    group = np.minimum((angle // 45.0).astype(int), 3)
    mag = mag[nz]
    m = math.ceil(0.5 * math.sqrt(image_pixels * kernel_pixels))
    candidates = []
    for b in range(4):
        members = mag[group == b]
        if members.size >= m:
            candidates.append(np.partition(members, members.size - m)[members.size - m])
    if not candidates:
        return 0.0
    return float(min(candidates))
