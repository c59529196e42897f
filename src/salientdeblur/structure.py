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

from .core import GradientField, _inner, divergence, gradients
from .errors import InvalidInputError

MASK_RULES = ("magnitude", "conjunction")

# Divisor applied to the single-axis gradient components in the edge
# strength triple before thresholding.
_AXIS_DIVISOR = 5.0 * math.sqrt(2.0)


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
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError("structure: r_map expects a single-channel image")
    if window < 3 or window % 2 == 0:
        raise InvalidInputError("structure: window must be odd and >= 3")
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
    return _tv_energy(u, f, lam)


def _tv_energy(u: np.ndarray, f: np.ndarray, lam: np.ndarray) -> float:
    """sum ||grad u||_2 + (u - f)^2 / (2 lam), with lam = theta * omega per pixel."""
    g = gradients(u)
    return float(np.hypot(g.gx, g.gy).sum() + ((u - f) ** 2 / (2.0 * lam)).sum())


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
    f = np.asarray(image, dtype=np.float64)
    if f.ndim != 2:
        raise InvalidInputError("structure: adaptive_tv_denoise expects a single-channel image")
    if theta <= 0:
        raise InvalidInputError("structure: theta must be > 0")
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
    best = u
    best_energy = _tv_energy(u, f, lam)
    for _ in range(max_iters):
        gx, gy = gradients(u)
        denom = 1.0 + coef * np.hypot(gx, gy)
        px = (px + coef * gx) / denom
        py = (py + coef * gy) / denom
        u_prev = u
        u = f + lam * divergence(GradientField(px, py))
        e = _tv_energy(u, f, lam)
        if e < best_energy:
            best, best_energy = u, e
        step = u - u_prev
        if np.sqrt(_inner(step, step)) <= tol * max(np.sqrt(_inner(u_prev, u_prev)), 1e-12):
            break
    return best.copy()


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
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError("structure: shock_filter expects a single-channel image")
    if not 0 < dt <= 1:
        raise InvalidInputError("structure: dt must be in (0, 1]")
    if steps < 0:
        raise InvalidInputError("structure: steps must be >= 0")
    lo, hi = a.min(), a.max()
    out = a.copy()
    for _ in range(steps):
        p = np.pad(out, 1, mode="edge")
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


def _edge_strength(g: GradientField):
    mag = np.hypot(g.gx, g.gy)
    return mag, np.abs(g.gx) / _AXIS_DIVISOR, np.abs(g.gy) / _AXIS_DIVISOR


def salient_mask(enhanced, threshold: float, rule: str = "magnitude") -> np.ndarray:
    """Boolean mask of pixels whose edge strength reaches the threshold.

    ``magnitude`` thresholds the gradient norm alone; ``conjunction``
    additionally requires both scaled single-axis components to reach it.
    """
    if threshold < 0:
        raise InvalidInputError("structure: threshold must be >= 0")
    if rule not in MASK_RULES:
        raise InvalidInputError("structure: mask_rule must be one of %s" % (MASK_RULES,))
    mag, ax, ay = _edge_strength(gradients(np.asarray(enhanced, dtype=np.float64)))
    mask = mag >= threshold
    if rule == "conjunction":
        mask &= (ax >= threshold) & (ay >= threshold)
    return mask


def select_salient_edges(enhanced, threshold: float, rule: str = "magnitude") -> GradientField:
    """Gradient field of the enhanced structure, zeroed outside the salient mask."""
    a = np.asarray(enhanced, dtype=np.float64)
    g = gradients(a)
    mask = salient_mask(a, threshold, rule)
    return GradientField(np.where(mask, g.gx, 0.0), np.where(mask, g.gy, 0.0))


def init_threshold(grad: GradientField, image_pixels: int, kernel_pixels: int) -> float:
    """Starting gradient threshold that keeps enough pixels per direction group.

    Gradient directions (mod 180 degrees) are quantized into four 45-degree
    groups; each group holding at least m = ceil(sqrt(image_pixels *
    kernel_pixels) / 2) pixels contributes the magnitude of its m-th largest
    member, and the smallest contribution wins.  Returns 0 when every group
    is too sparse (degenerate input; the caller must handle it).
    """
    if image_pixels < 1 or kernel_pixels < 1:
        raise InvalidInputError("structure: pixel counts must be >= 1")
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
