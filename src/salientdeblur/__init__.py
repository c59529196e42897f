"""Blind motion deblurring from salient structure.

Estimates a blur kernel from a single motion-blurred image by extracting
reliable edges (adaptive TV split plus shock filtering), fitting the kernel
with sparsity and gradient-count priors over a coarse-to-fine pyramid, and
restoring the latent image with structure-adaptive regularization.
"""

from .core import (
    BlurOperator,
    GradientField,
    convolve,
    delta_kernel,
    divergence,
    gradients,
    poisson_reconstruct,
    resample,
    resize,
    to_grayscale,
)
from .deconv import adaptive_deconv, cg_solve, tv_deconv
from .errors import (
    DeblurError,
    DegenerateStructureError,
    InvalidInputError,
    NumericalError,
    TexturelessImageError,
)
from .fileio import read_image, read_kernel, write_image, write_kernel, write_kernel_image
from .kernel_est import (
    KernelEstParams,
    estimate_kernel,
    gradient_count,
    kernel_irls_step,
    l0_gradient_smooth,
    mu_schedule,
    project_kernel,
)
from .metrics import EvalReport, error_ratio, evaluate_directory, psnr, ssde
from .pipeline import (
    DeblurConfig,
    ScaleLevel,
    ScaleSchedule,
    build_schedule,
    deblur_blind,
    estimate_blur_kernel,
    load_config,
    restore,
)
from .structure import (
    adaptive_tv_denoise,
    init_threshold,
    r_map,
    salient_mask,
    select_salient_edges,
    shock_filter,
    smooth_weight,
)
from .synth import kernel_preset, synthesize, test_chart

__version__ = "0.1.0"

__all__ = [
    "BlurOperator", "GradientField", "convolve", "delta_kernel", "divergence", "gradients",
    "poisson_reconstruct", "resample", "resize", "to_grayscale",
    "adaptive_deconv", "cg_solve", "tv_deconv",
    "DeblurError", "DegenerateStructureError", "InvalidInputError", "NumericalError",
    "TexturelessImageError",
    "read_image", "read_kernel", "write_image", "write_kernel", "write_kernel_image",
    "KernelEstParams", "estimate_kernel", "gradient_count", "kernel_irls_step",
    "l0_gradient_smooth", "mu_schedule", "project_kernel",
    "EvalReport", "error_ratio", "evaluate_directory", "psnr", "ssde",
    "DeblurConfig", "ScaleLevel", "ScaleSchedule", "build_schedule", "deblur_blind",
    "estimate_blur_kernel", "load_config", "restore",
    "adaptive_tv_denoise", "init_threshold", "r_map", "salient_mask", "select_salient_edges",
    "shock_filter", "smooth_weight",
    "kernel_preset", "synthesize", "test_chart",
]
