"""Multi-scale blind deblurring orchestration.

Builds a coarse-to-fine pyramid sized by the blur kernel, then per level
repeats: extract salient structure, estimate the kernel, restore an interim
latent image, and relax the structure threshold and smoothing strength.  The
kernel estimated at each level seeds the next finer one.

``restore`` is the one restoration from a kernel, estimated or known: the
structure that weights the full-resolution adaptive restoration is
extracted from a full-frame latent under the kernel, never from the
blurred input, whose edges are the blur's.  ``deblur_blind`` runs it at the
pyramid's final threshold and smoothing strength, the ``deconv`` command at
the config's.  The TV restoration (``tv_deconv``) is the pyramid's interim
solver only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import (_check_count, _check_kernel_weights, _check_real, _shift_zero, as_image, delta_kernel, gradients,
                   resample, resize, to_grayscale)
from .deconv import _check_out, _l2_latent, adaptive_deconv, tv_deconv
from .errors import InvalidInputError, TexturelessImageError
from .kernel_est import KernelEstParams, estimate_kernel, mu_schedule, project_kernel
from .structure import (
    _check_window,
    adaptive_tv_denoise,
    init_threshold,
    r_map,
    select_salient_edges,
    shock_filter,
    smooth_weight,
)

SCALE_FACTOR = math.sqrt(2.0) / 2.0

# Relaxation attempts (threshold halvings) before declaring an image textureless.
_MAX_RELAX = 5


@dataclass(frozen=True)
class DeblurConfig:
    """The model weights of the blind pipeline; defaults follow the method's
    reference settings.  Salient edges are selected by gradient magnitude.
    Solver budgets, the kernel fit's alternation count ``KernelEstParams.itr``
    among them, are the defaults of the solvers that run them
    (``KernelEstParams``, ``adaptive_tv_denoise``) or, for the restorations,
    constants of ``deconv``; ``shock_filter`` runs one fixed step.  Every
    field is checked when the config is made."""

    kernel_size: int
    theta0: float = 1.0
    lambda_c: float = 0.005
    lambda_final: float = 0.003
    gamma: float = 0.01
    alpha: float = 0.5
    inner_iters: int = 5
    decay: float = 1.1
    window: int = 5
    mu: float | None = None          # None: size-based schedule per level
    threshold: float | None = None   # None: adaptive initialization

    def __post_init__(self):
        """Check every field, the pyramid's and the window's with the checks
        that ``build_schedule`` and ``r_map`` run."""
        _check_schedule(self.kernel_size, self.theta0, self.decay, self.inner_iters, "config")
        _check_window(self.window, "config")
        for name in ("lambda_c", "lambda_final"):
            _check_real(getattr(self, name), "config: " + name, 0)
        _check_real(self.gamma, "config: gamma", 0, closed=True)
        _check_real(self.alpha, "config: alpha", 0, 1)
        for name in ("mu", "threshold"):
            if getattr(self, name) is not None:
                _check_real(getattr(self, name), "config: " + name, 0, closed=True)

    def kernel_params(self, level_kernel_size: int) -> KernelEstParams:
        mu = self.mu if self.mu is not None else mu_schedule(level_kernel_size)
        return KernelEstParams(gamma=self.gamma, alpha=self.alpha, mu=mu)


# The schema of config files and CLI flags: every field's value type, read
# from its annotation ("float | None" is an optional float).
_CONFIG_TYPES = {f.name: {"int": int, "float": float}[f.type.split(" | ")[0]]
                 for f in fields(DeblurConfig)}
_OPTIONAL_KEYS = {f.name for f in fields(DeblurConfig) if f.type.endswith(" | None")}


def parse_config_text(text: str, kernel_size: int | None = None) -> DeblurConfig:
    """Parse ``key = value`` lines into a config; unknown and repeated keys
    are errors."""
    values: dict = {}
    linenos: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError("config: line %d is not 'key = value': %r" % (lineno, raw))
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise InvalidInputError("config: unknown key %r on line %d" % (key, lineno))
        if key in linenos:
            raise InvalidInputError("config: key %r given twice, on lines %d and %d" % (key, linenos[key], lineno))
        linenos[key] = lineno
        values[key] = _parse_config_value(key, value)
    if kernel_size is not None:
        values["kernel_size"] = kernel_size
    if "kernel_size" not in values:
        raise InvalidInputError("config: kernel_size missing (set it in the file or pass a flag)")
    return DeblurConfig(**values)


def _parse_config_value(key: str, value: str):
    if value.lower() == "none" and key in _OPTIONAL_KEYS:
        return None
    try:
        return _CONFIG_TYPES[key](value)
    except ValueError as exc:
        raise InvalidInputError("config: bad value %r for key %r" % (value, key)) from exc


def load_config(path, kernel_size: int | None = None) -> DeblurConfig:
    path = Path(path)
    if not path.is_file():
        raise InvalidInputError("config: no such file: %s" % path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise InvalidInputError("config: %s is not a text file" % path) from exc
    return parse_config_text(text, kernel_size=kernel_size)


@dataclass(frozen=True)
class ScaleLevel:
    image_shape: tuple
    kernel_size: int
    theta: float
    scale: float


@dataclass(frozen=True)
class ScaleSchedule:
    levels: tuple  # coarse to fine

    def __len__(self):
        return len(self.levels)


def _round_odd(x: float) -> int:
    return 2 * int(math.floor((x - 1.0) / 2.0 + 0.5)) + 1


def _check_schedule(kernel_size, theta0, decay, inner_iters, where: str) -> None:
    """The pyramid's parameters, for ``build_schedule`` and ``DeblurConfig``."""
    _check_count(kernel_size, 3, where + ": kernel_size", odd=True)
    _check_real(theta0, where + ": theta0", 0)
    _check_real(decay, where + ": decay", 1)
    _check_count(inner_iters, 1, where + ": inner_iters")


def build_schedule(image_shape, kernel_size: int, theta0: float = 1.0, decay: float = 1.1,
                   inner_iters: int = 5) -> ScaleSchedule:
    """Coarse-to-fine pyramid: consecutive scales shrink by sqrt(2)/2 until the
    kernel side lands in [3, 7]; per-level kernel sizes round to the nearest
    odd integer (floored at 3)."""
    h, w = image_shape[0], image_shape[1]
    _check_count(h, 1, "schedule: image height")
    _check_count(w, 1, "schedule: image width")
    _check_schedule(kernel_size, theta0, decay, inner_iters, "schedule")
    if kernel_size > h or kernel_size > w:
        raise InvalidInputError("schedule: kernel %d does not fit image %s" % (kernel_size, (h, w)))
    n = 0
    while kernel_size * SCALE_FACTOR ** n > 7.0:
        n += 1
    levels = []
    for i in range(n + 1):
        power = n - i
        scale = SCALE_FACTOR ** power
        ksize = kernel_size if power == 0 else max(3, _round_odd(kernel_size * scale))
        dims = (int(math.floor(h * scale + 0.5)), int(math.floor(w * scale + 0.5)))
        if ksize > min(dims):
            raise InvalidInputError("schedule: kernel %d does not fit level image %s" % (ksize, dims))
        levels.append(ScaleLevel(image_shape=dims, kernel_size=ksize,
                                 theta=theta0 / decay ** (inner_iters * i), scale=scale))
    return ScaleSchedule(levels=tuple(levels))


@dataclass
class PyramidResult:
    """Outcome of the multi-scale kernel estimation."""

    kernel: np.ndarray
    threshold: float        # final (decayed) edge threshold
    theta: float            # final (decayed) smoothing strength


def _initial_kernel(size: int) -> np.ndarray:
    # A pure impulse makes the first coarse fit too sparse; mix in a uniform floor.
    k, _ = project_kernel(0.9 * delta_kernel(size) + 0.1 * np.full((size, size), 1.0 / (size * size)))
    return k


def _recenter_kernel(kernel: np.ndarray) -> np.ndarray:
    """Shift a projected kernel's center of mass to the grid center (integer
    shift).

    The blur model is shift-ambiguous; without recentering the drift
    accumulated across pyramid levels can push a large kernel against its
    frame and clip it.
    """
    h, w = kernel.shape
    total = kernel.sum()
    cy = float((np.arange(h) * kernel.sum(axis=1)).sum() / total)
    cx = float((np.arange(w) * kernel.sum(axis=0)).sum() / total)
    return _shift_zero(kernel, h // 2 - int(round(cy)), w // 2 - int(round(cx)))


def _extract_structure(image, omega, theta: float, threshold: float | None, kernel_size: int):
    """TV split, shock filter and salient-edge selection on one image.

    A ``threshold`` of None starts from the adaptive initialization for the
    kernel size; an empty edge field halves the threshold until edges
    appear.  Returns (structure, enhanced, threshold used, salient gradient
    field).
    """
    structure = adaptive_tv_denoise(image, theta, omega)
    enhanced = shock_filter(structure)
    t = threshold
    if t is None:
        t = init_threshold(gradients(enhanced), enhanced.size, kernel_size ** 2)
    for _ in range(_MAX_RELAX + 1):
        grad_s = select_salient_edges(enhanced, t)
        if np.any(grad_s.gx) or np.any(grad_s.gy):
            return structure, enhanced, t, grad_s
        if t == 0.0:
            break
        t = t / 2.0
    raise TexturelessImageError(
        "structure: no salient edges even after threshold relaxation; "
        "the image is textureless or constant")


def _unit_image(image) -> np.ndarray:
    """A finite image whose samples lie in [0, 1], as the blind pipeline expects."""
    img = as_image(image)
    if img.size and not 0.0 <= img.min() <= img.max() <= 1.0:
        raise InvalidInputError("image: samples must lie in [0, 1], got [%g, %g]"
                                % (img.min(), img.max()))
    return img


def estimate_blur_kernel(image, config: DeblurConfig, progress=None) -> PyramidResult:
    """Multi-scale kernel estimation (the blind half of the pipeline).

    The image's samples must lie in [0, 1].  ``progress``, when given, is
    called as progress(level_index, inner_index, kernel, threshold) after
    every inner iteration.
    """
    gray = to_grayscale(_unit_image(image))
    schedule = build_schedule(gray.shape, config.kernel_size, config.theta0,
                              config.decay, config.inner_iters)
    kernel = _initial_kernel(schedule.levels[0].kernel_size)
    latent = None
    t = config.threshold
    for li, level in enumerate(schedule.levels):
        blurred = resample(gray, level.scale) if level.scale != 1.0 else gray
        if latent is None:
            latent = blurred.copy()
        else:
            latent = np.clip(resize(latent, level.image_shape), 0.0, 1.0)
            kernel, _ = project_kernel(resize(kernel, (level.kernel_size, level.kernel_size)))
        grad_b = gradients(blurred)
        omega = smooth_weight(r_map(blurred, config.window))
        kparams = config.kernel_params(level.kernel_size)
        theta = level.theta
        for it in range(config.inner_iters):
            _, _, t, grad_s = _extract_structure(latent, omega, theta, t, level.kernel_size)
            kernel = estimate_kernel(grad_b, grad_s, kernel, kparams)
            # canonical representative of the shift-ambiguous blur pair; the
            # interim deconvolution below rebuilds the latent consistently
            kernel, _ = project_kernel(_recenter_kernel(kernel))
            # nothing reads the latent of the last level's last iteration
            if li + 1 < len(schedule.levels) or it + 1 < config.inner_iters:
                latent = tv_deconv(blurred, kernel, config.lambda_c)
            t = t / config.decay
            theta = theta / config.decay
            if progress is not None:
                progress(li, it, kernel, t)
    return PyramidResult(kernel=kernel, threshold=t, theta=theta)


def structure_pass(image, config: DeblurConfig, theta: float | None = None,
                   threshold: float | None = None):
    """One full structure extraction on an image: returns (structure, enhanced,
    mask threshold used, salient gradient field)."""
    gray = to_grayscale(image)
    omega = smooth_weight(r_map(gray, config.window))
    return _extract_structure(gray, omega, theta if theta is not None else config.theta0,
                              threshold if threshold is not None else config.threshold,
                              config.kernel_size)


def crop_region(img, crop) -> np.ndarray:
    """The (x, y, w, h) pixel rectangle of an image: integers, x and y >= 0,
    w and h >= 1, lying inside the image."""
    if np.shape(crop) != (4,):
        raise InvalidInputError("crop: expected (x, y, w, h), got %r" % (crop,))
    x, y, cw, ch = crop
    for value, least, name in ((x, 0, "x"), (y, 0, "y"), (cw, 1, "w"), (ch, 1, "h")):
        _check_count(value, least, "crop: " + name)
    if y + ch > img.shape[0] or x + cw > img.shape[1]:
        raise InvalidInputError("crop: rectangle %s outside image %s" % (crop, img.shape[:2]))
    return img[y : y + ch, x : x + cw]


def restore(image, kernel, config: DeblurConfig, *, theta: float | None = None,
            threshold: float | None = None, out=None):
    """Structure-adaptive restoration of an image under a given kernel.

    The structure field comes from a full-frame latent under the kernel:
    one closed-form solve under a quadratic gradient prior (``_l2_latent``),
    clipped to [0, 1], whose ringing and noise the structure step removes.
    ``structure_pass`` runs on it at ``theta`` and ``threshold``, by default
    the config's ``theta0`` and ``threshold``; ``adaptive_deconv`` then
    restores the image per channel at ``config.lambda_final``.

    The image's samples must lie in [0, 1].  The kernel must be finite,
    non-negative, odd-sided, no larger than the image and of positive sum.
    The restored image goes into ``out`` when given, a writeable float64
    array of the image's shape that may be the image itself.  Returns the
    restored image, clipped to [0, 1], and the structure field.  Neither the
    gray frame nor the latent is held through the restoration.
    """
    img = np.asarray(image, dtype=np.float64)
    _unit_image(img)
    _check_out(out, img.shape)
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel_weights(k, img.shape, positive_sum=True)
    latent = _l2_latent(to_grayscale(img), k)
    _, _, _, grad_s = structure_pass(np.clip(latent, 0.0, 1.0, out=latent), config,
                                     theta=theta, threshold=threshold)
    del latent
    restored = adaptive_deconv(img, k, grad_s, config.lambda_final, out=out)
    return np.clip(restored, 0.0, 1.0, out=restored), grad_s


def deblur_blind(image, config: DeblurConfig, crop=None, progress=None, *, out=None):
    """End-to-end blind deblurring.

    Estimates the kernel from the grayscale image, or from its ``crop``
    region, (x, y, w, h) in pixels, then restores the full image with
    ``restore`` at the estimate's final threshold and smoothing strength.
    The whole image's samples must lie in [0, 1].  The restored image goes
    into ``out`` when given, a writeable float64 array of the image's shape
    that may be the image itself (read for the last time by the
    restoration).  Returns (kernel, restored, grad_s).
    """
    img = np.asarray(image, dtype=np.float64)
    _unit_image(img)
    _check_out(out, img.shape)
    region = img if crop is None else crop_region(img, crop)
    result = estimate_blur_kernel(region, config, progress=progress)
    restored, grad_s = restore(img, result.kernel, config, theta=result.theta,
                               threshold=result.threshold, out=out)
    return result.kernel, restored, grad_s
