"""Multi-scale blind deblurring orchestration.

Builds a coarse-to-fine pyramid sized by the blur kernel, then per level
repeats: extract salient structure, estimate the kernel, restore an interim
latent image, and relax the structure threshold and smoothing strength.  The
kernel estimated at each level seeds the next finer one; the final level's
kernel and structure drive the full-resolution adaptive restoration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import _shift_zero, delta_kernel, gradients, resample, resize, to_grayscale
from .deconv import DeconvParams, adaptive_deconv, tv_deconv
from .errors import InvalidInputError, TexturelessImageError
from .kernel_est import KernelEstParams, estimate_kernel, mu_schedule, project_kernel
from .structure import (
    MASK_RULES,
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


@dataclass
class DeblurConfig:
    """Every tunable of the blind pipeline; defaults follow the method's
    reference settings."""

    kernel_size: int
    theta0: float = 1.0
    lambda_c: float = 0.005
    lambda_final: float = 0.003
    gamma: float = 0.01
    alpha: float = 0.5
    itr: int = 2
    inner_iters: int = 5
    decay: float = 1.1
    window: int = 5
    mask_rule: str = "magnitude"
    mu: float | None = None          # None: size-based schedule per level
    threshold: float | None = None   # None: adaptive initialization
    shock_dt: float = 1.0
    shock_steps: int = 1
    tv_iters: int = 100
    tv_tol: float = 1e-3
    irls_iters: int = 3
    cg_iters_kernel: int = 25
    cg_iters_interim: int = 30
    cg_iters_final: int = 100
    weight_floor: float = 0.001

    def validate(self) -> "DeblurConfig":
        for name, typ in _CONFIG_TYPES.items():
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_KEYS:
                continue
            if typ is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise InvalidInputError("config: %s must be an integer, got %r" % (name, value))
            if typ is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                 or not math.isfinite(value)):
                raise InvalidInputError("config: %s must be a finite number, got %r" % (name, value))
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise InvalidInputError("config: kernel_size must be odd and >= 3")
        if self.decay <= 1:
            raise InvalidInputError("config: decay must be > 1")
        if self.inner_iters < 1:
            raise InvalidInputError("config: inner_iters must be >= 1")
        if self.theta0 <= 0 or self.lambda_c <= 0 or self.lambda_final <= 0:
            raise InvalidInputError("config: theta0, lambda_c and lambda_final must be > 0")
        if self.window < 3 or self.window % 2 == 0:
            raise InvalidInputError("config: window must be odd and >= 3")
        if self.mask_rule not in MASK_RULES:
            raise InvalidInputError("config: mask_rule must be one of %s" % (MASK_RULES,))
        if self.mu is not None and self.mu < 0:
            raise InvalidInputError("config: mu must be >= 0")
        if self.threshold is not None and self.threshold < 0:
            raise InvalidInputError("config: threshold must be >= 0")
        if not 0 < self.shock_dt <= 1:
            raise InvalidInputError("config: shock_dt must be in (0, 1]")
        if self.shock_steps < 0:
            raise InvalidInputError("config: shock_steps must be >= 0")
        # delegate the remaining ranges to the parameter bundles
        self.kernel_params(self.kernel_size)
        self.deconv_params()
        return self

    def kernel_params(self, level_kernel_size: int) -> KernelEstParams:
        mu = self.mu if self.mu is not None else mu_schedule(level_kernel_size)
        return KernelEstParams(gamma=self.gamma, alpha=self.alpha, mu=mu, itr=self.itr,
                               irls_iters=self.irls_iters, cg_iters=self.cg_iters_kernel)

    def deconv_params(self) -> DeconvParams:
        return DeconvParams(irls_iters=self.irls_iters, cg_iters_interim=self.cg_iters_interim,
                            cg_iters_final=self.cg_iters_final, weight_floor=self.weight_floor)


# The schema of config files and CLI flags: every field's value type, read
# from its annotation ("float | None" is an optional float).
_CONFIG_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type.split(" | ")[0]]
                 for f in fields(DeblurConfig)}
_OPTIONAL_KEYS = {f.name for f in fields(DeblurConfig) if f.type.endswith(" | None")}


def parse_config_text(text: str, base: DeblurConfig | None = None, kernel_size: int | None = None) -> DeblurConfig:
    """Parse ``key = value`` lines into a config; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError("config: line %d is not 'key = value': %r" % (lineno, raw))
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise InvalidInputError("config: unknown key %r on line %d" % (key, lineno))
        values[key] = _parse_config_value(key, value)
    if base is not None:
        cfg = replace(base, **values)
    else:
        if "kernel_size" not in values:
            if kernel_size is None:
                raise InvalidInputError("config: kernel_size missing (set it in the file or pass a flag)")
            values["kernel_size"] = kernel_size
        cfg = DeblurConfig(**values)
    if kernel_size is not None:
        cfg = replace(cfg, kernel_size=kernel_size)
    return cfg


def _parse_config_value(key: str, value: str):
    if value.lower() == "none":
        return None
    try:
        return _CONFIG_TYPES[key](value)
    except ValueError as exc:
        raise InvalidInputError("config: bad value %r for key %r" % (value, key)) from exc


def load_config(path, kernel_size: int | None = None) -> DeblurConfig:
    path = Path(path)
    if not path.is_file():
        raise InvalidInputError("config: no such file: %s" % path)
    return parse_config_text(path.read_text(), kernel_size=kernel_size)


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


def build_schedule(image_shape, kernel_size: int, theta0: float = 1.0, decay: float = 1.1,
                   inner_iters: int = 5) -> ScaleSchedule:
    """Coarse-to-fine pyramid: consecutive scales shrink by sqrt(2)/2 until the
    kernel side lands in [3, 7]; per-level kernel sizes round to the nearest
    odd integer (floored at 3)."""
    h, w = int(image_shape[0]), int(image_shape[1])
    if kernel_size < 3 or kernel_size % 2 == 0:
        raise InvalidInputError("schedule: kernel_size must be odd and >= 3")
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
    grad_s: object          # GradientField at full estimation resolution
    threshold: float        # final (decayed) edge threshold
    theta: float            # final (decayed) smoothing strength


def _initial_kernel(size: int) -> np.ndarray:
    # A pure impulse makes the first coarse fit too sparse; mix in a uniform floor.
    k = 0.9 * delta_kernel(size) + 0.1 * np.full((size, size), 1.0 / (size * size))
    return k / k.sum()


def _recenter_kernel(kernel: np.ndarray) -> np.ndarray:
    """Shift the kernel's center of mass to the grid center (integer shift).

    The blur model is shift-ambiguous; without recentering the drift
    accumulated across pyramid levels can push a large kernel against its
    frame and clip it.
    """
    h, w = kernel.shape
    total = kernel.sum()
    if total <= 0:
        return kernel
    cy = float((np.arange(h) * kernel.sum(axis=1)).sum() / total)
    cx = float((np.arange(w) * kernel.sum(axis=0)).sum() / total)
    return _shift_zero(kernel, h // 2 - int(round(cy)), w // 2 - int(round(cx)))


def _extract_structure(image, omega, theta: float, threshold: float | None, kernel_size: int,
                       config: DeblurConfig):
    """TV split, shock filter and salient-edge selection on one image.

    A ``threshold`` of None starts from the adaptive initialization for the
    kernel size; an empty edge field halves the threshold until edges
    appear.  Returns (structure, enhanced, threshold used, salient gradient
    field).
    """
    structure = adaptive_tv_denoise(image, theta, omega, config.tv_iters, config.tv_tol)
    enhanced = shock_filter(structure, config.shock_dt, config.shock_steps)
    t = threshold
    if t is None:
        t = init_threshold(gradients(enhanced), enhanced.size, kernel_size ** 2)
    for _ in range(_MAX_RELAX + 1):
        grad_s = select_salient_edges(enhanced, t, config.mask_rule)
        if np.any(grad_s.gx) or np.any(grad_s.gy):
            return structure, enhanced, t, grad_s
        if t == 0.0:
            break
        t = t / 2.0
    raise TexturelessImageError(
        "structure: no salient edges even after threshold relaxation; "
        "the image is textureless or constant")


def estimate_blur_kernel(image, config: DeblurConfig, progress=None) -> PyramidResult:
    """Multi-scale kernel estimation (the blind half of the pipeline).

    ``progress``, when given, is called as progress(level_index, inner_index,
    kernel, threshold) after every inner iteration.
    """
    config.validate()
    gray = to_grayscale(image)
    schedule = build_schedule(gray.shape, config.kernel_size, config.theta0,
                              config.decay, config.inner_iters)
    kernel = _initial_kernel(schedule.levels[0].kernel_size)
    latent = None
    t = config.threshold
    grad_s = None
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
        dparams = config.deconv_params()
        theta = level.theta
        for it in range(config.inner_iters):
            _, _, t, grad_s = _extract_structure(latent, omega, theta, t, level.kernel_size, config)
            kernel = estimate_kernel(grad_b, grad_s, kernel, kparams)
            # canonical representative of the shift-ambiguous blur pair; the
            # interim deconvolution below rebuilds the latent consistently
            kernel, _ = project_kernel(_recenter_kernel(kernel))
            latent = tv_deconv(blurred, kernel, config.lambda_c, dparams)
            t = t / config.decay
            theta = theta / config.decay
            if progress is not None:
                progress(li, it, kernel, t)
    return PyramidResult(kernel=kernel, grad_s=grad_s, threshold=t, theta=theta)


def structure_pass(image, config: DeblurConfig, theta: float | None = None,
                   threshold: float | None = None):
    """One full structure extraction on an image: returns (structure, enhanced,
    mask threshold used, salient gradient field)."""
    gray = to_grayscale(image)
    omega = smooth_weight(r_map(gray, config.window))
    return _extract_structure(gray, omega, theta if theta is not None else config.theta0,
                              threshold if threshold is not None else config.threshold,
                              config.kernel_size, config)


def crop_region(img, crop) -> np.ndarray:
    """The (x, y, w, h) pixel rectangle of an image; it must lie inside it."""
    x, y, cw, ch = (int(v) for v in crop)
    if x < 0 or y < 0 or cw < 1 or ch < 1 or y + ch > img.shape[0] or x + cw > img.shape[1]:
        raise InvalidInputError("crop: rectangle %s outside image %s" % (crop, img.shape[:2]))
    return img[y : y + ch, x : x + cw]


def deblur_blind(image, config: DeblurConfig, crop=None, progress=None):
    """End-to-end blind deblurring.

    Estimates the kernel from the (optionally cropped) grayscale image, then
    restores the full image per channel with structure-adaptive weights.
    ``crop`` is (x, y, w, h) in pixels.  Returns (kernel, restored, grad_s).
    """
    config.validate()
    img = np.asarray(image, dtype=np.float64)
    if crop is not None:
        result = estimate_blur_kernel(crop_region(img, crop), config, progress=progress)
        # The crop's structure field does not cover the full frame; rebuild it
        # from an interim full-frame restoration at the final (t, theta).
        gray = to_grayscale(img)
        interim = tv_deconv(gray, result.kernel, config.lambda_c, config.deconv_params())
        _, _, _, grad_s = structure_pass(np.clip(interim, 0.0, 1.0), config,
                                         theta=result.theta, threshold=result.threshold)
    else:
        result = estimate_blur_kernel(img, config, progress=progress)
        grad_s = result.grad_s
    restored = adaptive_deconv(img, result.kernel, grad_s, config.lambda_final,
                               config.deconv_params())
    return result.kernel, np.clip(restored, 0.0, 1.0), grad_s
