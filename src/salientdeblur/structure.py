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

from .core import GradientField, _check_count, _inner, _is_real, _pad_replicate, divergence, gradients
from .errors import InvalidInputError


def _channel(image, stage: str) -> np.ndarray:
    """A stage's input: a single-channel image of finite samples, as float64."""
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError("structure: %s expects a single-channel image" % stage)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("structure: %s expects finite samples" % stage)
    return a


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
    _check_count(window, 3, "structure: window")
    if window % 2 == 0:
        raise InvalidInputError("structure: window must be odd, got %d" % window)
    g = gradients(a)
    sx = _window_sum(g.gx, window)
    sy = _window_sum(g.gy, window)
    smag = _window_sum(np.hypot(g.gx, g.gy), window)
    return np.hypot(sx, sy) / (smag + 0.5)


def smooth_weight(r) -> np.ndarray:
    """Fidelity weight exp(-|r|^0.8); 1 in flat regions, smaller on structure."""
    return np.exp(-np.abs(np.asarray(r, dtype=np.float64)) ** 0.8)


def tv_objective(u, image, theta: float, omega=None) -> float:
    """Energy of the adaptive TV model: sum ||grad u||_2 + (u - image)^2 / (2 theta omega)."""
    u = np.asarray(u, dtype=np.float64)
    f = np.asarray(image, dtype=np.float64)
    lam = theta * (np.ones_like(f) if omega is None else np.asarray(omega, dtype=np.float64))
    g = gradients(u)
    return _tv_energy(u, np.hypot(g.gx, g.gy), f, lam)


def _tv_energy(u: np.ndarray, mag: np.ndarray, f: np.ndarray, lam: np.ndarray) -> float:
    """sum mag + (u - f)^2 / (2 lam), with mag = ||grad u||_2 and lam = theta * omega per pixel."""
    return float(mag.sum() + ((u - f) ** 2 / (2.0 * lam)).sum())


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
    """
    f = _channel(image, "adaptive_tv_denoise")
    if not (math.isfinite(theta) and theta > 0):
        raise InvalidInputError("structure: theta must be a finite number > 0, got %r" % (theta,))
    _check_count(max_iters, 0, "structure: max_iters and tol are budgets; max_iters")
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidInputError("structure: max_iters and tol are budgets; tol must be a finite "
                                "number >= 0, got %r" % (tol,))
    if omega is None:
        lam = np.full_like(f, theta)
    else:
        om = np.asarray(omega, dtype=np.float64)
        if om.shape != f.shape:
            raise InvalidInputError("structure: omega shape %s != image shape %s" % (om.shape, f.shape))
        if np.any(om <= 0) or np.any(om > 1):
            raise InvalidInputError("structure: omega entries must lie in (0, 1]")
        lam = theta * om
    tau = 0.125
    coef = tau / lam
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    u = f.copy()
    # each iterate's gradients serve both its energy and the next dual step
    gx, gy = gradients(u)
    mag = np.hypot(gx, gy)
    best = u
    best_energy = _tv_energy(u, mag, f, lam)
    for _ in range(max_iters):
        denom = 1.0 + coef * mag
        px = (px + coef * gx) / denom
        py = (py + coef * gy) / denom
        u_prev = u
        u = f + lam * divergence(GradientField(px, py))
        gx, gy = gradients(u)
        mag = np.hypot(gx, gy)
        e = _tv_energy(u, mag, f, lam)
        if e < best_energy:
            best, best_energy = u, e
        step = u - u_prev
        if np.sqrt(_inner(step, step)) <= tol * max(np.sqrt(_inner(u_prev, u_prev)), 1e-12):
            break
    return best


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    same_sign = a * b > 0
    smaller = np.where(np.abs(a) <= np.abs(b), a, b)
    return np.where(same_sign, smaller, 0.0)


def shock_filter(image, dt: float = 1.0, steps: int = 1) -> np.ndarray:
    """Edge-enhancing shock evolution d I/dt = -sign(D I) ||grad I||.

    D is the second derivative along the gradient direction (central
    differences); the gradient magnitude uses minmod upwinding.  Output is
    clamped to the input's min/max range each step.
    """
    a = _channel(image, "shock_filter")
    if not (_is_real(dt) and 0 < dt <= 1):
        raise InvalidInputError("structure: dt must be a number in (0, 1], got %r" % (dt,))
    _check_count(steps, 0, "structure: steps")
    lo, hi = a.min(), a.max()
    out = a.copy()
    for _ in range(steps):
        p = _pad_replicate(out, 1, 1)
        c = p[1:-1, 1:-1]
        ix = 0.5 * (p[1:-1, 2:] - p[1:-1, :-2])
        iy = 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1])
        ixx = p[1:-1, 2:] - 2.0 * c + p[1:-1, :-2]
        iyy = p[2:, 1:-1] - 2.0 * c + p[:-2, 1:-1]
        ixy = 0.25 * (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2])
        edge2 = ix * ix * ixx + 2.0 * ix * iy * ixy + iy * iy * iyy
        dxm = c - p[1:-1, :-2]
        dxp = p[1:-1, 2:] - c
        dym = c - p[:-2, 1:-1]
        dyp = p[2:, 1:-1] - c
        mag = np.hypot(_minmod(dxm, dxp), _minmod(dym, dyp))
        out = np.clip(out - dt * np.sign(edge2) * mag, lo, hi)
    return out


def _mask(g: GradientField, threshold: float) -> np.ndarray:
    if not (math.isfinite(threshold) and threshold >= 0):
        raise InvalidInputError("structure: threshold must be a finite number >= 0, got %r"
                                % (threshold,))
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
