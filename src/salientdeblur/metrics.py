"""Quantitative evaluation: kernel similarity, image fidelity, and the
restoration error ratio.

Kernel comparison normalizes both kernels, aligns them by the integer shift
maximizing cross-correlation (blind estimation is shift-ambiguous), and sums
squared differences.  The error ratio divides the restoration error obtained
with the estimated kernel by the error obtained with the true kernel, using
one common non-blind deconvolver for both sides.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _shift_zero, to_grayscale
from .deconv import DeconvParams, tv_deconv
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


def _normalize(k) -> np.ndarray:
    k = np.asarray(k, dtype=np.float64)
    total = k.sum()
    if total <= 0:
        raise InvalidInputError("metrics: kernel has no positive mass")
    return k / total


def _aligned_canvases(k_est, k_true):
    """Both kernels normalized onto one centered canvas, k_est shifted into
    registration by the correlation-maximizing offset.

    The canvas carries half-a-side of extra margin in every direction, so no
    mass clips at any shift inside the search window; alignment is therefore
    symmetric between the two arguments.
    """
    a = _normalize(k_est)
    b = _normalize(k_true)
    side = max(a.shape[0], b.shape[0], a.shape[1], b.shape[1])
    if side % 2 == 0:
        side += 1
    radius = side // 2
    canvas = side + 2 * radius
    if canvas % 2 == 0:
        canvas += 1
    ac = _embed_center(a, (canvas, canvas))
    bc = _embed_center(b, (canvas, canvas))
    best_corr, best_shift = -np.inf, (0, 0)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            corr = float((_shift_zero(ac, dy, dx) * bc).sum())
            if corr > best_corr:
                best_corr, best_shift = corr, (dy, dx)
    return _shift_zero(ac, best_shift[0], best_shift[1]), bc, best_shift


def best_alignment(k_est, k_true) -> tuple:
    """Integer (dy, dx) shift of k_est maximizing correlation with k_true."""
    _, _, shift = _aligned_canvases(k_est, k_true)
    return shift


def align_kernel(k_est, k_true):
    """k_est normalized and shifted into registration with k_true (same frame)."""
    shift = best_alignment(k_est, k_true)
    shifted = _shift_zero(_normalize(k_est), shift[0], shift[1])
    aligned, _ = project_kernel(shifted)
    return aligned, shift


def ssde(k_est, k_true) -> tuple:
    """Sum of squared differences between aligned unit-sum kernels.

    Kernels of different sizes are zero-padded onto a common centered canvas.
    Returns (error, (dy, dx)).
    """
    aligned, reference, shift = _aligned_canvases(k_est, k_true)
    return float(((aligned - reference) ** 2).sum()), shift


def psnr(img, ref) -> float:
    """Peak signal-to-noise ratio in dB with MAX = 1; capped at 99 dB."""
    a = np.asarray(img, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidInputError("metrics: psnr images differ in shape: %s vs %s" % (a.shape, b.shape))
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
    denom = float(((i_t - i_g) ** 2).sum())
    if denom < 1e-12:
        return ERROR_RATIO_CAP
    return float(((i_r - i_g) ** 2).sum()) / denom


def evaluate_kernels(k_est, k_true, blurred, sharp, lambda_c: float = COMMON_LAMBDA_C,
                     params: DeconvParams | None = None) -> EvalReport:
    """Score an estimated kernel against ground truth on one case.

    Both restorations use the same TV deconvolver; the estimated kernel is
    first registered to the true one (the report keeps the shift used).
    """
    gray_blur = to_grayscale(blurred)
    gray_sharp = to_grayscale(sharp)
    err, shift = ssde(k_est, k_true)
    aligned, _ = align_kernel(k_est, k_true)
    k_truth, _ = project_kernel(np.asarray(k_true, dtype=np.float64))
    restored_est = tv_deconv(gray_blur, aligned, lambda_c, params)
    restored_true = tv_deconv(gray_blur, k_truth, lambda_c, params)
    return EvalReport(
        ssde=err,
        psnr_db=psnr(np.clip(restored_est, 0.0, 1.0), gray_sharp),
        error_ratio=error_ratio(restored_est, restored_true, gray_sharp),
        alignment_shift=shift,
    )


def evaluate_case(case_dir, config: DeblurConfig | None = None,
                  lambda_c: float = COMMON_LAMBDA_C) -> EvalReport:
    """Run blind estimation on one dataset case directory and score it.

    The directory must hold ``blurred.png``, ``kernel_true.txt`` and
    ``sharp.png``; the kernel size is taken from the true kernel.
    """
    case_dir = Path(case_dir)
    blurred = read_image(case_dir / "blurred.png")
    sharp = read_image(case_dir / "sharp.png")
    k_true = read_kernel(case_dir / "kernel_true.txt")
    size = max(k_true.shape)
    if size % 2 == 0:
        size += 1
    if config is None:
        config = DeblurConfig(kernel_size=size)
    result = estimate_blur_kernel(blurred, config)
    return evaluate_kernels(result.kernel, k_true, blurred, sharp, lambda_c=lambda_c)


def cumulative_table(ratios, thresholds=CUMULATIVE_THRESHOLDS):
    """Fraction of cases at or below each error-ratio threshold."""
    values = np.asarray(list(ratios), dtype=np.float64)
    if values.size == 0:
        return [(float(t), 0.0) for t in thresholds]
    return [(float(t), float((values <= t).mean())) for t in thresholds]


def evaluate_directory(root, csv_path=None, config: DeblurConfig | None = None,
                       lambda_c: float = COMMON_LAMBDA_C):
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
        results.append((case.name, evaluate_case(case, config=config, lambda_c=lambda_c)))
    table = cumulative_table([rep.error_ratio for _, rep in results])
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case", "ssde", "psnr", "error_ratio"])
            for name, rep in results:
                writer.writerow([name, "%.6g" % rep.ssde, "%.4f" % rep.psnr_db, "%.6g" % rep.error_ratio])
    return results, table
