"""Synthetic data: a deterministic test chart, blur-kernel presets, and a
seeded blur-plus-noise generator, so the whole pipeline can be exercised and
scored without external imagery."""

from __future__ import annotations

import numpy as np

from .core import _check_count, _check_kernel_weights, _check_real, as_image, convolve
from .errors import InvalidInputError
from .kernel_est import project_kernel

KERNEL_PRESETS = ("line-h", "line-d", "box", "l-curve")

_LO, _HI = 0.05, 0.95


def test_chart(size: int = 255) -> np.ndarray:
    """High-contrast chart with edges at many orientations and flat regions.

    Deterministic; used by the synthetic round-trip checks.
    """
    _check_count(size, 64, "synth: chart size")
    img = np.full((size, size), _LO)
    y, x = np.mgrid[0:size, 0:size]
    third = size // 3

    # Block 1: vertical and horizontal bars of growing width.
    bars = ((x // max(6, size // 32)) % 2 == 0) & (y < third) & (x < third)
    img[bars] = _HI
    hbars = ((y // max(9, size // 24)) % 2 == 0) & (y < third) & (x >= third) & (x < 2 * third)
    img[hbars] = _HI

    # Block 2: diagonal stripes and a coarse checkerboard.
    diag = (((x + y) // max(8, size // 28)) % 2 == 0) & (y < third) & (x >= 2 * third)
    img[diag] = _HI
    checker = (((x // max(12, size // 18)) + (y // max(12, size // 18))) % 2 == 0)
    img[(y >= third) & (y < 2 * third) & (x < third) & checker] = _HI

    # Block 3: disk and ring.
    cy, cx = int(1.5 * third), int(1.5 * third)
    rad = (y - cy) ** 2 + (x - cx) ** 2
    img[rad < (third // 2) ** 2] = _HI
    ring = (rad > (third // 2 + size // 20) ** 2) & (rad < (third // 2 + size // 12) ** 2)
    img[ring & (y >= third) & (y < 2 * third)] = _HI

    # Block 4: solid rotated square (diamond) and an L shape.
    diamond = np.abs(y - int(2.5 * third)) + np.abs(x - third // 2)
    img[diamond < third // 2] = _HI
    lx, ly = 2 * third + third // 4, 2 * third + third // 4
    arm = max(4, size // 24)
    img[(y >= ly) & (y < ly + 2 * arm + third // 2) & (x >= lx) & (x < lx + arm)] = _HI
    img[(y >= ly + third // 2 + arm) & (y < ly + third // 2 + 2 * arm) & (x >= lx) & (x < lx + third // 3 + arm)] = _HI

    # A few isolated bright squares on the remaining flat field.
    dot = max(2, size // 60)
    for oy, ox in ((int(2.4 * third), int(1.6 * third)), (int(2.7 * third), int(1.9 * third))):
        img[oy : oy + dot, ox : ox + dot] = _HI

    # Smooth radial bump: hard steps put forward differences on axis/diagonal
    # lines only, so gradients covering every orientation need a smooth patch.
    sigma = max(4.0, size / 24.0)
    bump = (_HI - _LO) * np.exp(-((y - 1.45 * third) ** 2 + (x - 2.55 * third) ** 2) / (2 * sigma**2))
    return np.clip(np.maximum(img, _LO + bump), _LO, _HI)


def kernel_preset(name: str, size: int) -> np.ndarray:
    """Named blur kernel of odd ``size``: a horizontal or diagonal line, a
    box, or an L-shaped trajectory; uniform mass, unit sum."""
    _check_count(size, 3, "synth: kernel size", odd=True)
    if name not in KERNEL_PRESETS:
        raise InvalidInputError("synth: unknown kernel preset %r (choose from %s)" % (name, KERNEL_PRESETS))
    k = np.zeros((size, size))
    c = size // 2
    length = max(3, int(round(0.6 * size)))
    half = length // 2
    if name == "line-h":
        k[c, c - half : c - half + length] = 1.0
    elif name == "line-d":
        for off in range(-half, -half + length):
            k[c + off, c + off] = 1.0
    elif name == "box":
        side = max(3, int(round(size / 3.0)))
        lo = c - side // 2
        k[lo : lo + side, lo : lo + side] = 1.0
    else:  # l-curve
        arm = max(2, size // 2 - 1)
        k[c - arm : c + 1, c - arm // 2] = 1.0
        k[c, c - arm // 2 : c - arm // 2 + arm + 1] = 1.0
    return project_kernel(k)[0]


def synthesize(sharp, kernel, noise_sigma: float = 0.0, seed: int = 0) -> np.ndarray:
    """Blur a sharp image and add seeded Gaussian noise; clipped to [0, 1].
    The kernel's weights are non-negative; ``seed`` is an integer >= 0."""
    img = as_image(sharp)
    _check_kernel_weights(np.asarray(kernel, dtype=np.float64))
    _check_real(noise_sigma, "synth: noise sigma", 0, closed=True)
    _check_count(seed, 0, "synth: seed")
    blurred = convolve(img, kernel, mode="fft")
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        blurred = blurred + rng.normal(0.0, noise_sigma, size=blurred.shape)
    return np.clip(blurred, 0.0, 1.0)
