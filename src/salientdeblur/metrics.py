"""Quantitative evaluation: kernel similarity, image fidelity, and the
restoration error ratio.

Kernel comparison projects both kernels (``project_kernel``), aligns them
by the integer shift maximizing cross-correlation (blind estimation is
shift-ambiguous), and sums squared differences.  The error ratio divides
the restoration error obtained with the estimated kernel, as that alignment
registered it, by the error obtained with the true kernel, using one common
non-blind deconvolver for both sides.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _check_finite, _shift_zero, to_grayscale
from .deconv import tv_deconv
from .errors import InvalidInputError
from .fileio import read_image, read_kernel
from .kernel_est import project_kernel
from .pipeline import DeblurConfig, estimate_blur_kernel

PSNR_CAP_DB = 99.0
ERROR_RATIO_CAP = 1e6

# Common non-blind deconvolver weight used on both sides of the error ratio.
COMMON_LAMBDA_C = 0.005

CUMULATIVE_THRESHOLDS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0)


@dataclass
class EvalReport:
    ssde: float
    psnr_db: float
    error_ratio: float
    alignment_shift: tuple


def _embed_center(k: np.ndarray, shape) -> np.ndarray:
    th, tw = shape
    kh, kw = k.shape
    out = np.zeros((th, tw))
    oy, ox = (th - kh) // 2, (tw - kw) // 2
    out[oy : oy + kh, ox : ox + kw] = k
    return out


def _align(k_est, k_true):
    """Both kernels projected onto one centered canvas, k_est shifted into
    registration by the correlation-maximizing offset.

    The canvas carries half-a-side of extra margin in every direction, so no
    mass clips at any shift inside the search window; alignment is therefore
    symmetric between the two arguments.  Returns (SSDE on the canvas, the
    shift, the aligned k_est cropped to the canvas's centre at the larger
    of the two kernels' sides on each axis, not projected again).
    """
    a, _ = project_kernel(k_est)
    b, _ = project_kernel(k_true)
    side = max(a.shape[0], b.shape[0], a.shape[1], b.shape[1])  # odd: both are projected
    radius = side // 2
    canvas = side + 2 * radius
    ac = _embed_center(a, (canvas, canvas))
    bc = _embed_center(b, (canvas, canvas))
    best_corr, best_shift = 0.0, (0, 0)  # no overlap at any shift: k_est stays in place
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            corr = float((_shift_zero(ac, dy, dx) * bc).sum())
            if corr > best_corr:
                best_corr, best_shift = corr, (dy, dx)
    aligned = _shift_zero(ac, best_shift[0], best_shift[1])
    fh, fw = max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])
    oy, ox = (canvas - fh) // 2, (canvas - fw) // 2
    return float(((aligned - bc) ** 2).sum()), best_shift, aligned[oy : oy + fh, ox : ox + fw]


def ssde(k_est, k_true) -> tuple:
    """Sum of squared differences between aligned unit-sum kernels.

    Kernels of different sizes are zero-padded onto a common centered canvas.
    Returns (error, (dy, dx)).
    """
    err, shift, _ = _align(k_est, k_true)
    return err, shift


def psnr(img, ref) -> float:
    """Peak signal-to-noise ratio in dB with MAX = 1; capped at 99 dB."""
    a = np.asarray(img, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidInputError("metrics: psnr images differ in shape: %s vs %s" % (a.shape, b.shape))
    _check_finite("metrics: psnr images", a, b)
    mse = float(((a - b) ** 2).mean())
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def error_ratio(restored, truth_restored, truth) -> float:
    """||I_r - I_g||^2 / ||I_t - I_g||^2, capped when the denominator vanishes."""
    i_r = np.asarray(restored, dtype=np.float64)
    i_t = np.asarray(truth_restored, dtype=np.float64)
    i_g = np.asarray(truth, dtype=np.float64)
    if not (i_r.shape == i_t.shape == i_g.shape):
        raise InvalidInputError("metrics: error_ratio images differ in shape")
    _check_finite("metrics: error_ratio images", i_r, i_t, i_g)
    denom = float(((i_t - i_g) ** 2).sum())
    if denom < 1e-12:
        return ERROR_RATIO_CAP
    return float(((i_r - i_g) ** 2).sum()) / denom


def evaluate_kernels(k_est, k_true, blurred, sharp, lambda_c: float = COMMON_LAMBDA_C) -> EvalReport:
    """Score an estimated kernel against ground truth on one case.

    Both restorations use the same TV deconvolver.  The estimated kernel is
    the one ``ssde`` aligned: registered to the true one on the common
    canvas, cropped to the larger kernel's frame and projected, so an
    estimate of any size is scored (the report keeps the shift used).
    """
    gray_blur = to_grayscale(blurred)
    gray_sharp = to_grayscale(sharp)
    err, shift, aligned = _align(k_est, k_true)
    restored_est = tv_deconv(gray_blur, project_kernel(aligned)[0], lambda_c)
    restored_true = tv_deconv(gray_blur, project_kernel(k_true)[0], lambda_c)
    return EvalReport(
        ssde=err,
        psnr_db=psnr(np.clip(restored_est, 0.0, 1.0), gray_sharp),
        error_ratio=error_ratio(restored_est, restored_true, gray_sharp),
        alignment_shift=shift,
    )


def evaluate_case(case_dir, config: DeblurConfig | None = None) -> EvalReport:
    """Run blind estimation on one dataset case directory and score it.

    The directory must hold ``blurred.png``, ``kernel_true.txt`` and
    ``sharp.png``; the kernel size is taken from the true kernel.
    """
    case_dir = Path(case_dir)
    blurred = read_image(case_dir / "blurred.png")
    sharp = read_image(case_dir / "sharp.png")
    k_true = read_kernel(case_dir / "kernel_true.txt")
    if config is None:
        config = DeblurConfig(kernel_size=max(project_kernel(k_true)[0].shape))
    result = estimate_blur_kernel(blurred, config)
    return evaluate_kernels(result.kernel, k_true, blurred, sharp)


def cumulative_table(ratios):
    """Fraction of cases at or below each of ``CUMULATIVE_THRESHOLDS``."""
    values = np.asarray(list(ratios), dtype=np.float64)
    if values.size == 0:
        return [(float(t), 0.0) for t in CUMULATIVE_THRESHOLDS]
    return [(float(t), float((values <= t).mean())) for t in CUMULATIVE_THRESHOLDS]


def evaluate_directory(root, csv_path=None, config: DeblurConfig | None = None):
    """Evaluate every case subdirectory under ``root``.

    Returns (list of (name, EvalReport), cumulative table).  Writes a CSV
    report when ``csv_path`` is given.
    """
    root = Path(root)
    if not root.is_dir():
        raise InvalidInputError("eval: no such dataset directory: %s" % root)
    cases = sorted(p for p in root.iterdir() if p.is_dir() and (p / "blurred.png").is_file())
    if not cases:
        raise InvalidInputError("eval: no case directories with blurred.png under %s" % root)
    results = []
    for case in cases:
        results.append((case.name, evaluate_case(case, config=config)))
    table = cumulative_table([rep.error_ratio for _, rep in results])
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case", "ssde", "psnr", "error_ratio"])
            for name, rep in results:
                writer.writerow([name, "%.6g" % rep.ssde, "%.4f" % rep.psnr_db, "%.6g" % rep.error_ratio])
    return results, table
