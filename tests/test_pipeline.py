import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.pipeline import parse_config_text


class TestBuildSchedule:
    def test_small_kernel_single_level(self):
        sched = sd.build_schedule((128, 128), 5)
        assert len(sched) == 1
        assert sched.levels[0].kernel_size == 5
        assert sched.levels[0].scale == 1.0

    def test_kernel_9_two_levels(self):
        sched = sd.build_schedule((128, 128), 9)
        assert len(sched) == 2
        assert sched.levels[0].kernel_size == 7  # 9 * sqrt(2)/2 = 6.36 -> 7
        assert sched.levels[-1].kernel_size == 9

    def test_kernel_45_seven_levels(self):
        sched = sd.build_schedule((512, 512), 45)
        assert len(sched) == 7
        assert sched.levels[0].kernel_size == 5  # 45 * (sqrt(2)/2)^6 = 5.63 -> 5
        assert sched.levels[-1].kernel_size == 45

    def test_coarsest_side_always_in_range(self):
        for size in range(3, 101, 2):
            sched = sd.build_schedule((600, 600), size)
            assert 3 <= sched.levels[0].kernel_size <= 7
            assert sched.levels[-1].kernel_size == size
            for level in sched.levels:
                assert level.kernel_size % 2 == 1

    def test_scale_ratio(self):
        sched = sd.build_schedule((256, 256), 25)
        scales = [level.scale for level in sched.levels]
        for a, b in zip(scales, scales[1:]):
            assert b / a == pytest.approx(np.sqrt(2))
        assert scales[-1] == 1.0

    def test_theta_decays_per_level(self):
        sched = sd.build_schedule((256, 256), 25, theta0=1.0, decay=1.1, inner_iters=5)
        for i, level in enumerate(sched.levels):
            assert level.theta == pytest.approx(1.0 / 1.1 ** (5 * i))

    def test_kernel_must_fit(self):
        with pytest.raises(sd.InvalidInputError):
            sd.build_schedule((16, 16), 21)

    def test_even_kernel_rejected(self):
        with pytest.raises(sd.InvalidInputError):
            sd.build_schedule((64, 64), 8)


class TestConfig:
    def test_defaults_valid(self):
        cfg = sd.DeblurConfig(kernel_size=15)
        cfg.validate()
        assert cfg.theta0 == 1.0
        assert cfg.lambda_c == 0.005
        assert cfg.lambda_final == 0.003
        assert cfg.gamma == 0.01
        assert cfg.alpha == 0.5
        assert cfg.itr == 2
        assert cfg.inner_iters == 5
        assert cfg.decay == 1.1
        assert cfg.window == 5

    def test_validation_errors(self):
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=8).validate()
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=9, decay=1.0).validate()
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=9, inner_iters=0).validate()

    @pytest.mark.parametrize("key, value", [
        ("mu", math.nan), ("theta0", math.inf), ("gamma", math.nan), ("lambda_c", math.nan),
        ("weight_floor", math.nan), ("threshold", math.nan), ("decay", math.inf),
        ("kernel_size", 7.0), ("itr", True), ("tv_iters", None), ("alpha", "0.5"),
        ("shock_dt", 0.0), ("shock_steps", -1),
    ])
    def test_validate_rejects_non_finite_and_mistyped(self, key, value):
        with pytest.raises(sd.InvalidInputError, match=key):
            replace(sd.DeblurConfig(kernel_size=7), **{key: value}).validate()

    def test_every_field_round_trips_through_config_text(self):
        base = sd.DeblurConfig(kernel_size=7)
        changed = {}
        for f in fields(base):
            value = getattr(base, f.name)
            if value is None:
                changed[f.name] = 0.25
            elif isinstance(value, str):
                changed[f.name] = "conjunction"
            else:
                changed[f.name] = value + 2 if isinstance(value, int) else value * 1.5
        cfg = replace(base, **changed)
        text = "\n".join("%s = %s" % (k, v) for k, v in changed.items())
        parsed = parse_config_text(text)
        assert parsed == cfg
        for k, v in changed.items():
            assert type(getattr(parsed, k)) is type(v)
        assert parse_config_text("kernel_size = 7\nmu = none\nthreshold = None\n") == base

    def test_parse_config_text(self):
        cfg = parse_config_text("kernel_size = 11\ngamma = 0.02\nmask_rule = conjunction\n# comment\n\nmu = none\n")
        assert cfg.kernel_size == 11
        assert cfg.gamma == 0.02
        assert cfg.mask_rule == "conjunction"
        assert cfg.mu is None

    def test_unknown_key_is_error(self):
        with pytest.raises(sd.InvalidInputError):
            parse_config_text("kernel_size = 9\nbogus = 1\n")

    def test_cli_kernel_size_overrides_file(self):
        cfg = parse_config_text("kernel_size = 11\n", kernel_size=9)
        assert cfg.kernel_size == 9

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("kernel_size = 9\nlambda_c = 0.004\n")
        cfg = sd.load_config(path)
        assert cfg.lambda_c == 0.004


class TestPipeline:
    def test_sharp_input_near_delta(self):
        chart = sd.test_chart(128)
        result = sd.estimate_blur_kernel(chart, sd.DeblurConfig(kernel_size=9))
        err, _ = sd.ssde(result.kernel, sd.delta_kernel(9))
        assert err <= 5e-3

    def test_synthetic_blur_small(self):
        chart = sd.test_chart(128)
        k_true = sd.kernel_preset("line-d", 9)
        blurred = sd.synthesize(chart, k_true, noise_sigma=0.01, seed=7)
        result = sd.estimate_blur_kernel(blurred, sd.DeblurConfig(kernel_size=9))
        err, _ = sd.ssde(result.kernel, k_true)
        assert err <= 0.02

    def test_larger_kernel_deeper_pyramid(self):
        # five pyramid levels; guards the large-kernel path against the
        # flat-collapse failure mode (which lands near SSDE 0.05)
        chart = sd.test_chart(192)
        k_true = sd.kernel_preset("line-d", 21)
        blurred = sd.synthesize(chart, k_true, noise_sigma=0.01, seed=31)
        result = sd.estimate_blur_kernel(blurred, sd.DeblurConfig(kernel_size=21))
        err, _ = sd.ssde(result.kernel, k_true)
        assert err <= 0.03

    def test_textureless_raises(self):
        with pytest.raises(sd.TexturelessImageError):
            sd.estimate_blur_kernel(np.full((64, 64), 0.5), sd.DeblurConfig(kernel_size=9))

    def test_interim_kernels_always_valid_and_threshold_decays(self):
        chart = sd.test_chart(96)
        blurred = sd.synthesize(chart, sd.kernel_preset("line-h", 7), noise_sigma=0.005, seed=3)
        kernels = []
        thresholds = []

        def hook(level, it, kernel, threshold):
            kernels.append(kernel.copy())
            thresholds.append((level, threshold))

        sd.estimate_blur_kernel(blurred, sd.DeblurConfig(kernel_size=7), progress=hook)
        assert kernels
        for k in kernels:
            sd.check_kernel(k)
        # within each level the threshold decays by exactly 1/decay per iteration
        by_level = {}
        for level, t in thresholds:
            by_level.setdefault(level, []).append(t)
        for values in by_level.values():
            for a, b in zip(values, values[1:]):
                assert b == pytest.approx(a / 1.1)

    def test_deterministic_end_to_end(self):
        chart = sd.test_chart(96)
        blurred = sd.synthesize(chart, sd.kernel_preset("line-h", 7), noise_sigma=0.01, seed=5)
        cfg = sd.DeblurConfig(kernel_size=7)
        k1, restored1, _ = sd.deblur_blind(blurred, cfg)
        k2, restored2, _ = sd.deblur_blind(blurred, cfg)
        assert np.array_equal(k1, k2)
        assert np.array_equal(restored1, restored2)

    def test_deblur_blind_improves_image(self):
        chart = sd.test_chart(128)
        k_true = sd.kernel_preset("line-d", 9)
        blurred = sd.synthesize(chart, k_true, noise_sigma=0.01, seed=11)
        kernel, restored, grad_s = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=9))
        sd.check_kernel(kernel)
        assert restored.shape == blurred.shape
        assert grad_s.gx.shape == blurred.shape
        assert sd.psnr(restored, chart) > sd.psnr(blurred, chart) + 3.0

    def test_color_input_restores_per_channel(self):
        chart = sd.test_chart(96)
        color = np.dstack([chart, np.clip(chart * 0.8 + 0.1, 0, 1), np.clip(1 - chart, 0, 1)])
        blurred = sd.synthesize(color, sd.kernel_preset("line-h", 7), noise_sigma=0.005, seed=2)
        kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=11))
        assert restored.shape == color.shape
        sd.check_kernel(kernel)

    def test_crop_estimation_restores_full_frame(self):
        chart = sd.test_chart(128)
        blurred = sd.synthesize(chart, sd.kernel_preset("line-h", 7), noise_sigma=0.005, seed=9)
        kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=7), crop=(16, 16, 96, 96))
        assert restored.shape == blurred.shape
        sd.check_kernel(kernel)

    def test_bad_crop_rejected(self):
        chart = sd.test_chart(96)
        with pytest.raises(sd.InvalidInputError):
            sd.deblur_blind(chart, sd.DeblurConfig(kernel_size=7), crop=(90, 90, 50, 50))


_BLIND_RUN = """
import sys
import numpy as np
import salientdeblur as sd
blurred = sd.synthesize(sd.test_chart(112), sd.kernel_preset("line-d", 11), noise_sigma=0.01, seed=3)
kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=11))
np.savez(sys.argv[1], kernel=kernel, restored=restored)
"""


def test_blind_deblur_independent_of_blas_threads(tmp_path):
    # 112^2 pixels is past the vector length (about 1e4) at which OpenBLAS
    # splits an inner product over its threads, and an 11^2 kernel gives a
    # normal matrix large enough for a threaded BLAS product to differ
    src = str(Path(sd.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / ("threads%s.npz" % threads)
        subprocess.run([sys.executable, "-c", _BLIND_RUN, str(out)], env=env, check=True, timeout=300)
        results.append(np.load(out))
    for name in ("kernel", "restored"):
        assert np.array_equal(results[0][name], results[1][name]), name
