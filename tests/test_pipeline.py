import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur import pipeline
from salientdeblur.pipeline import parse_config_text

from oracles import check_kernel


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

    @pytest.mark.parametrize("kwargs, name", [
        ({"kernel_size": math.nan}, "kernel_size"), ({"kernel_size": 9.0}, "kernel_size"),
        ({"kernel_size": True}, "kernel_size"), ({"decay": 0.0}, "decay"),
        ({"decay": 1.0}, "decay"), ({"decay": math.nan}, "decay"),
        ({"theta0": math.nan}, "theta0"), ({"theta0": 0.0}, "theta0"),
        ({"inner_iters": 0}, "inner_iters"), ({"inner_iters": 2.0}, "inner_iters"),
        ({"image_shape": (math.nan, 64)}, "height"), ({"image_shape": (64, 0)}, "width"),
        ({"theta0": "1"}, "theta0"), ({"theta0": True}, "theta0"), ({"decay": "2"}, "decay"),
    ])
    def test_rejects_what_config_rejects(self, kwargs, name):
        # the ranges DeblurConfig checks; nan levels, a raw
        # ZeroDivisionError or TypeError, and a bool theta0 taken as 1.0 were
        # the results before
        args = {"image_shape": (64, 64), "kernel_size": 9, **kwargs}
        with pytest.raises(sd.InvalidInputError, match=name):
            sd.build_schedule(**args)


class TestConfig:
    def test_defaults_valid(self):
        cfg = sd.DeblurConfig(kernel_size=15)
        assert cfg.theta0 == 1.0
        assert cfg.lambda_c == 0.005
        assert cfg.lambda_final == 0.003
        assert cfg.gamma == 0.01
        assert cfg.alpha == 0.5
        assert cfg.inner_iters == 5
        assert cfg.decay == 1.1
        assert cfg.window == 5

    def test_validation_errors(self):
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=8)
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=9, decay=1.0)
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=9, inner_iters=0)

    @pytest.mark.parametrize("key, value", [
        ("mu", math.nan), ("theta0", math.inf), ("gamma", math.nan), ("lambda_c", math.nan),
        ("lambda_final", math.nan), ("threshold", math.nan), ("decay", math.inf),
        ("kernel_size", 7.0), ("inner_iters", True), ("inner_iters", None), ("alpha", "0.5"),
        ("window", 5.0), ("alpha", math.inf),
    ])
    def test_validate_rejects_non_finite_and_mistyped(self, key, value):
        with pytest.raises(sd.InvalidInputError, match=key):
            replace(sd.DeblurConfig(kernel_size=7), **{key: value})

    def test_every_field_round_trips_through_config_text(self):
        base = sd.DeblurConfig(kernel_size=7)
        changed = {}
        for f in fields(base):
            value = getattr(base, f.name)
            if value is None:
                changed[f.name] = 0.25
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
        cfg = parse_config_text("kernel_size = 11\ngamma = 0.02\n# comment\n\nmu = none\n")
        assert cfg.kernel_size == 11
        assert cfg.gamma == 0.02
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
            check_kernel(k)
        # within each level the threshold decays by exactly 1/decay per iteration
        by_level = {}
        for level, t in thresholds:
            by_level.setdefault(level, []).append(t)
        for values in by_level.values():
            for a, b in zip(values, values[1:]):
                assert b == pytest.approx(a / 1.1)

    def test_last_interim_restoration_is_skipped(self, monkeypatch):
        from salientdeblur import pipeline

        blurred = sd.synthesize(sd.test_chart(96), sd.kernel_preset("line-d", 9), noise_sigma=0.01, seed=4)
        cfg = sd.DeblurConfig(kernel_size=9)
        real_tv = pipeline.tv_deconv
        calls = []
        monkeypatch.setattr(pipeline, "tv_deconv", lambda *a: calls.append(a) or real_tv(*a))
        events = []
        skipped = sd.estimate_blur_kernel(blurred, cfg, progress=lambda *e: events.append(e))
        levels = len({e[0] for e in events})
        assert levels == 2 and len(events) == levels * cfg.inner_iters
        assert len(calls) == levels * cfg.inner_iters - 1

        # a run that also makes the skipped call (on the finest, unscaled
        # level) from the last progress event ends with the same kernel
        def unskip(level, it, kernel, threshold):
            if (level, it) == (levels - 1, cfg.inner_iters - 1):
                pipeline.tv_deconv(blurred, kernel, cfg.lambda_c)

        calls.clear()
        unskipped = sd.estimate_blur_kernel(blurred, cfg, progress=unskip)
        assert len(calls) == levels * cfg.inner_iters
        assert np.array_equal(skipped.kernel, unskipped.kernel)
        assert (skipped.threshold, skipped.theta) == (unskipped.threshold, unskipped.theta)

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
        check_kernel(kernel)
        assert restored.shape == blurred.shape
        assert grad_s.gx.shape == blurred.shape
        assert sd.psnr(restored, chart) > sd.psnr(blurred, chart) + 3.0

    def test_color_input_restores_per_channel(self):
        chart = sd.test_chart(96)
        color = np.dstack([chart, np.clip(chart * 0.8 + 0.1, 0, 1), np.clip(1 - chart, 0, 1)])
        blurred = sd.synthesize(color, sd.kernel_preset("line-h", 7), noise_sigma=0.005, seed=2)
        kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=11))
        assert restored.shape == color.shape
        check_kernel(kernel)

    def test_crop_estimation_restores_full_frame(self):
        chart = sd.test_chart(128)
        blurred = sd.synthesize(chart, sd.kernel_preset("line-h", 7), noise_sigma=0.005, seed=9)
        kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=7), crop=(16, 16, 96, 96))
        assert restored.shape == blurred.shape
        check_kernel(kernel)

    @pytest.mark.parametrize("color", [False, True], ids=["gray", "rgb"])
    def test_whole_frame_crop_equals_no_crop_bitwise(self, color):
        chart = sd.test_chart(80)[:64]
        sharp = np.dstack([chart, np.roll(chart, 3, axis=0), np.roll(chart, 5, axis=1)]) if color else chart
        blurred = sd.synthesize(sharp, sd.kernel_preset("line-h", 5), noise_sigma=0.005, seed=4)
        cfg = sd.DeblurConfig(kernel_size=5)
        cropped = sd.deblur_blind(blurred, cfg, crop=(0, 0, 80, 64))
        whole = sd.deblur_blind(blurred, cfg)
        assert np.array_equal(cropped[0], whole[0]) and np.array_equal(cropped[1], whole[1])
        assert np.array_equal(cropped[2].gx, whole[2].gx) and np.array_equal(cropped[2].gy, whole[2].gy)

    @pytest.mark.parametrize("color", [False, True], ids=["gray", "rgb"])
    @pytest.mark.parametrize("crop", [None, (8, 8, 48, 48)], ids=["full", "crop"])
    def test_restores_into_its_input_bitwise(self, color, crop):
        chart = sd.test_chart(64)
        sharp = np.dstack([chart, np.roll(chart, 3, axis=0), np.roll(chart, 5, axis=1)]) if color else chart
        blurred = sd.synthesize(sharp, sd.kernel_preset("line-h", 5), noise_sigma=0.005, seed=4)
        cfg = sd.DeblurConfig(kernel_size=5)
        kernel, restored, _ = sd.deblur_blind(blurred, cfg, crop=crop)
        image = blurred.copy()
        kernel_in, restored_in, _ = sd.deblur_blind(image, cfg, crop=crop, out=image)
        assert restored_in is image
        assert np.array_equal(kernel_in, kernel) and np.array_equal(restored_in, restored)

    @pytest.mark.parametrize("bad", ["shape", "dtype", "read-only"])
    def test_bad_out_is_rejected_before_estimation(self, bad, monkeypatch):
        blurred = sd.test_chart(64)
        out = {"shape": np.empty((64, 63)), "dtype": np.empty((64, 64), np.float32),
               "read-only": np.broadcast_to(0.0, (64, 64))}[bad]

        def unexpected(*args, **kwargs):
            raise AssertionError("the kernel estimate ran")

        monkeypatch.setattr(pipeline, "estimate_blur_kernel", unexpected)
        with pytest.raises(sd.InvalidInputError, match="out"):
            sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=5), out=out)

    def test_bad_crop_rejected(self):
        chart = sd.test_chart(96)
        with pytest.raises(sd.InvalidInputError):
            sd.deblur_blind(chart, sd.DeblurConfig(kernel_size=7), crop=(90, 90, 50, 50))

    @pytest.mark.parametrize("crop, name", [
        ((1.5, 0, 48, 48), "x"), ((math.nan, 0, 48, 48), "x"), ((0, -1, 48, 48), "y"),
        ((0, 0, 48.0, 48), "w"), ((0, 0, 48, 0), "h"), ((0, 0, 48, True), "h"),
        ((0, 0, 48), "expected"), (48, "expected"),
    ])
    def test_crop_must_be_integers_in_range(self, crop, name):
        # a fractional x was truncated and a NaN one ended in a raw ValueError
        chart = sd.test_chart(64)
        with pytest.raises(sd.InvalidInputError, match="crop: " + name):
            pipeline.crop_region(chart, crop)
        with pytest.raises(sd.InvalidInputError, match="crop: " + name):
            sd.deblur_blind(chart, sd.DeblurConfig(kernel_size=7), crop=crop)

    def test_blind_entry_points_reject_out_of_range_samples(self):
        # an 8-bit chart left at 0..255 would otherwise give a wrong kernel without an error
        blurred = sd.synthesize(sd.test_chart(96), sd.kernel_preset("line-d", 7),
                                noise_sigma=0.01, seed=1)
        cfg = sd.DeblurConfig(kernel_size=7)
        for bad in (blurred * 255.0, blurred - 0.5):
            with pytest.raises(sd.InvalidInputError, match=r"\[0, 1\]"):
                sd.estimate_blur_kernel(bad, cfg)
            with pytest.raises(sd.InvalidInputError, match=r"\[0, 1\]"):
                sd.deblur_blind(bad, cfg)
        # the whole frame is checked, not only the crop the kernel comes from
        outside = blurred.copy()
        outside[0, 0] = 1.5
        with pytest.raises(sd.InvalidInputError, match=r"\[0, 1\]"):
            sd.deblur_blind(outside, cfg, crop=(16, 16, 64, 64))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_blind_entry_points_reject_non_finite_samples(self, bad):
        blurred = sd.test_chart(64)
        blurred[5, 5] = bad
        cfg = sd.DeblurConfig(kernel_size=7)
        with pytest.raises(sd.InvalidInputError, match="finite"):
            sd.estimate_blur_kernel(blurred, cfg)
        with pytest.raises(sd.InvalidInputError, match="finite"):
            sd.deblur_blind(blurred, cfg, crop=(16, 16, 40, 40))



def _blurred_pair(color):
    """A small blurred chart, gray or RGB, and the line-h 5 kernel."""
    chart = sd.test_chart(64)
    sharp = np.dstack([chart, np.roll(chart, 3, axis=0), np.roll(chart, 5, axis=1)]) if color else chart
    kernel = sd.kernel_preset("line-h", 5)
    return sd.synthesize(sharp, kernel, noise_sigma=0.005, seed=4), kernel


class TestRestore:
    @pytest.mark.parametrize("color", [False, True], ids=["gray", "rgb"])
    @pytest.mark.parametrize("crop", [None, (8, 8, 48, 48)], ids=["full", "crop"])
    def test_deblur_blind_is_estimate_then_restore_bitwise(self, color, crop):
        blurred, _ = _blurred_pair(color)
        cfg = sd.DeblurConfig(kernel_size=5)
        kernel, restored, grad_s = sd.deblur_blind(blurred, cfg, crop=crop)
        region = blurred if crop is None else pipeline.crop_region(blurred, crop)
        result = sd.estimate_blur_kernel(region, cfg)
        restored_2, grad_s_2 = sd.restore(blurred, result.kernel, cfg, theta=result.theta,
                                          threshold=result.threshold)
        assert np.array_equal(kernel, result.kernel) and np.array_equal(restored, restored_2)
        assert np.array_equal(grad_s.gx, grad_s_2.gx) and np.array_equal(grad_s.gy, grad_s_2.gy)

    def test_defaults_are_the_configs_theta0_and_threshold(self):
        blurred, kernel = _blurred_pair(False)
        cfg = sd.DeblurConfig(kernel_size=5, theta0=0.8, threshold=0.05)
        restored, grad_s = sd.restore(blurred, kernel, cfg)
        restored_2, grad_s_2 = sd.restore(blurred, kernel, cfg, theta=0.8, threshold=0.05)
        assert np.array_equal(restored, restored_2) and np.array_equal(grad_s.gx, grad_s_2.gx)
        assert 0.0 <= restored.min() and restored.max() <= 1.0

    def test_structure_comes_from_the_latent_not_the_input(self):
        # the input's edges are the blur's: the latent's give a sharper restoration
        chart = sd.test_chart(96)
        kernel = sd.kernel_preset("line-d", 9)
        blurred = sd.synthesize(chart, kernel, noise_sigma=0.01, seed=3)
        cfg = sd.DeblurConfig(kernel_size=9)
        restored, _ = sd.restore(blurred, kernel, cfg)
        from_input = sd.adaptive_deconv(blurred, kernel, pipeline.structure_pass(blurred, cfg)[3],
                                        cfg.lambda_final)
        assert sd.psnr(restored, chart) > sd.psnr(np.clip(from_input, 0.0, 1.0), chart)

    @pytest.mark.parametrize("bad, match", [
        ("nan", "finite"), ("inf", "finite"), ("negative", "non-negative"), ("even", "odd"),
        ("flat", "2D"), ("larger", "larger than image"), ("zero-sum", "positive sum"),
    ])
    def test_bad_kernel_is_rejected_before_any_solve(self, bad, match, monkeypatch):
        blurred, kernel = _blurred_pair(False)
        kernel = {"nan": np.where(kernel > 0, np.nan, 0.0), "inf": np.where(kernel > 0, np.inf, 0.0),
                  "negative": kernel - 0.01, "even": np.full((4, 5), 0.05), "flat": kernel.ravel(),
                  "larger": np.full((65, 3), 1.0 / 195), "zero-sum": np.zeros((5, 5))}[bad]

        def unexpected(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("_l2_latent", "structure_pass", "adaptive_deconv"):
            monkeypatch.setattr(pipeline, name, unexpected)
        with pytest.raises(sd.InvalidInputError, match="kernel: .*" + match):
            sd.restore(blurred, kernel, sd.DeblurConfig(kernel_size=5))

    @pytest.mark.parametrize("bad", ["samples", "out"])
    def test_bad_image_or_out_is_rejected(self, bad):
        blurred, kernel = _blurred_pair(False)
        image, out = (blurred * 255.0, None) if bad == "samples" else (blurred, np.empty((64, 63)))
        with pytest.raises(sd.InvalidInputError, match=r"\[0, 1\]" if bad == "samples" else "out"):
            sd.restore(image, kernel, sd.DeblurConfig(kernel_size=5), out=out)


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
