"""The input contract of the public scalar parameters: each rejects a bool, a
string, NaN, inf and an out-of-range value with an InvalidInputError that
names it."""

import math

import numpy as np
import pytest

import salientdeblur as sd

_IMG = np.full((8, 8), 0.5)
_K = sd.delta_kernel(3)
_G = sd.gradients(_IMG)

# (id, the name the error carries, the call, a finite number out of range)
SCALARS = [
    ("resample-factor", "factor", lambda v: sd.resample(_IMG, v), 0.0),
    ("tv_deconv-lambda", "lambda", lambda v: sd.tv_deconv(_IMG, _K, v), 0.0),
    ("adaptive_deconv-lambda", "lambda", lambda v: sd.adaptive_deconv(_IMG, _K, _G, v), -1.0),
    ("adaptive_tv_denoise-theta", "theta", lambda v: sd.adaptive_tv_denoise(_IMG, v), 0.0),
    ("adaptive_tv_denoise-tol", "tol", lambda v: sd.adaptive_tv_denoise(_IMG, 0.5, tol=v), -1e-3),
    ("select_salient_edges-threshold", "threshold", lambda v: sd.select_salient_edges(_IMG, v), -0.1),
    ("KernelEstParams-gamma", "gamma", lambda v: sd.KernelEstParams(gamma=v), -0.01),
    ("KernelEstParams-mu", "mu", lambda v: sd.KernelEstParams(mu=v), -0.01),
    ("KernelEstParams-alpha", "alpha", lambda v: sd.KernelEstParams(alpha=v), 1.5),
    ("l0_gradient_smooth-mu", "mu", lambda v: sd.l0_gradient_smooth(_K, v), -0.01),
    ("build_schedule-theta0", "theta0", lambda v: sd.build_schedule((64, 64), 9, theta0=v), 0.0),
    ("build_schedule-decay", "decay", lambda v: sd.build_schedule((64, 64), 9, decay=v), 1.0),
    ("synthesize-noise_sigma", "noise sigma", lambda v: sd.synthesize(_IMG, _K, noise_sigma=v), -0.01),
]

BAD = [("bool", True), ("string", "1"), ("nan", math.nan), ("inf", math.inf), ("out-of-range", None)]


@pytest.mark.parametrize("bad", [b[1] for b in BAD], ids=[b[0] for b in BAD])
@pytest.mark.parametrize("name, call, out_of_range", [s[1:] for s in SCALARS], ids=[s[0] for s in SCALARS])
def test_scalar_contract(name, call, out_of_range, bad):
    value = out_of_range if bad is None else bad
    with pytest.raises(sd.InvalidInputError, match=name):
        call(value)


@pytest.mark.parametrize("name, call", [s[1:3] for s in SCALARS], ids=[s[0] for s in SCALARS])
def test_accepts_a_value_in_range(name, call):
    # so each rejection above is the named value's, not the call's
    call({"factor": 1.0, "lambda": 0.01, "theta": 0.5, "tol": 0.0, "threshold": 0.0,
          "gamma": 0.0, "mu": 0.0, "alpha": 1.0, "theta0": 1.0, "decay": 1.1, "noise sigma": 0.0}[name])
