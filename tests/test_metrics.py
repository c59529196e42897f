import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur import metrics
from salientdeblur.cli import main
from salientdeblur.metrics import COMMON_LAMBDA_C, EvalReport, cumulative_table, evaluate_kernels

from oracles import align_kernel


def shifted(kernel, dy, dx):
    out = np.zeros_like(kernel)
    h, w = kernel.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    out[ys, xs] = kernel[slice(max(-dy, 0), min(h - dy, h)), slice(max(-dx, 0), min(w - dx, w))]
    return out


class TestSsde:
    def test_identical_kernels(self):
        k = sd.kernel_preset("line-d", 9)
        err, shift = sd.ssde(k, k)
        assert err == 0.0
        assert shift == (0, 0)

    def test_shifted_kernel_aligns_to_zero(self):
        k = sd.kernel_preset("box", 9)
        err, shift = sd.ssde(shifted(k, 1, 0), k)
        assert err <= 1e-12
        assert shift == (-1, 0)

    def test_delta_vs_uniform_closed_form(self):
        err, _ = sd.ssde(sd.delta_kernel(3), np.full((3, 3), 1.0 / 9.0))
        assert err == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_symmetric_after_alignment(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random((7, 7))
            b = rng.random((7, 7))
            assert sd.ssde(a, b)[0] == pytest.approx(sd.ssde(b, a)[0], abs=1e-12)

    def test_different_sizes_padded(self):
        small = sd.delta_kernel(3)
        big = sd.delta_kernel(7)
        err, _ = sd.ssde(small, big)
        assert err <= 1e-12

    def test_unnormalized_inputs_normalized(self):
        k = sd.kernel_preset("line-h", 7)
        err, _ = sd.ssde(k * 3.7, k)
        assert err <= 1e-12

    def test_even_sided_true_kernel_scores_as_its_projection(self):
        rng = np.random.default_rng(3)
        k_true = rng.random((6, 4))
        padded, _ = sd.project_kernel(k_true)
        for k_est in (rng.random((7, 7)), rng.random((5, 5))):
            assert sd.ssde(k_est, k_true) == sd.ssde(k_est, padded)

    @pytest.mark.parametrize("bad, match", [(np.zeros((3, 3)), "no positive mass"),
                                            (np.full((3, 3), -1.0), "no positive mass"),
                                            (np.full((3, 3), np.nan), "finite")])
    def test_kernel_that_is_not_a_kernel_raises(self, bad, match):
        k = sd.kernel_preset("box", 3)
        for args in ((bad, k), (k, bad)):
            with pytest.raises(sd.InvalidInputError, match=match):
                sd.ssde(*args)


class TestPsnr:
    def test_identical_capped(self):
        img = np.random.default_rng(1).random((16, 16))
        assert sd.psnr(img, img) == 99.0

    def test_known_mse(self):
        ref = np.zeros((10, 10))
        img = np.full((10, 10), 0.1)  # MSE = 0.01
        assert sd.psnr(img, ref) == pytest.approx(20.0)
        img = np.ones((10, 10))  # MSE = 1
        assert sd.psnr(img, ref) == pytest.approx(0.0)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(2)
        ref = rng.random((32, 32))
        values = []
        for sigma in (0.01, 0.05, 0.1, 0.2):
            noisy = ref + rng.normal(0, sigma, ref.shape)
            values.append(sd.psnr(noisy, ref))
        assert values == sorted(values, reverse=True)

    def test_shape_mismatch(self):
        with pytest.raises(sd.InvalidInputError):
            sd.psnr(np.zeros((4, 4)), np.zeros((5, 5)))


class TestErrorRatio:
    def test_equal_restorations(self):
        rng = np.random.default_rng(3)
        truth = rng.random((12, 12))
        restored = truth + rng.normal(0, 0.1, truth.shape)
        assert sd.error_ratio(restored, restored, truth) == pytest.approx(1.0)

    def test_perfect_restoration(self):
        rng = np.random.default_rng(4)
        truth = rng.random((12, 12))
        other = truth + 0.1
        assert sd.error_ratio(truth, other, truth) == 0.0

    def test_zero_denominator_capped(self):
        truth = np.random.default_rng(5).random((8, 8))
        assert sd.error_ratio(truth + 0.2, truth, truth) == 1e6

    def test_scales_with_numerator_residual(self):
        rng = np.random.default_rng(6)
        truth = rng.random((10, 10))
        base = rng.normal(0, 1, truth.shape)
        est = truth + rng.normal(0, 0.05, truth.shape)
        r1 = sd.error_ratio(truth + base, est, truth)
        r2 = sd.error_ratio(truth + 2 * base, est, truth)
        assert r2 == pytest.approx(4 * r1)


class TestAlignment:
    def test_align_kernel_round_trip(self):
        k = sd.kernel_preset("l-curve", 9)
        moved = shifted(k, -1, 2)
        aligned, shift = align_kernel(moved, k)
        assert shift == (1, -2)
        assert np.allclose(aligned, k, atol=1e-12)


class TestEvaluation:
    def test_cumulative_table(self):
        table = cumulative_table([1.0, 2.0, 2.0, 9.0])
        assert table == [(1.5, 0.25), (2.0, 0.75), (2.5, 0.75), (3.0, 0.75), (3.5, 0.75), (4.0, 0.75),
                         (5.0, 0.75), (6.0, 0.75), (8.0, 0.75), (10.0, 1.0)]
        assert cumulative_table([]) == [(t, 0.0) for t, _ in table]

    def test_evaluate_kernels_on_synthetic(self, monkeypatch):
        calls = []
        real = metrics._align
        monkeypatch.setattr(metrics, "_align", lambda *a: calls.append(1) or real(*a))
        chart = sd.test_chart(96)
        k_true = sd.kernel_preset("line-h", 7)
        blurred = sd.synthesize(chart, k_true, noise_sigma=0.01, seed=8)
        report = evaluate_kernels(shifted(k_true, 1, 1), k_true, blurred, chart)
        assert len(calls) == 1                # one shift search registers the kernel
        assert report.ssde <= 1e-12           # same kernel after alignment
        assert report.error_ratio == pytest.approx(1.0, abs=1e-6)
        assert report.alignment_shift == (-1, -1)
        assert report.psnr_db > 10.0

    def test_evaluate_directory(self, tmp_path):
        chart = sd.test_chart(96)
        k_true = sd.kernel_preset("line-h", 7)
        blurred = sd.synthesize(chart, k_true, noise_sigma=0.01, seed=9)
        case = tmp_path / "case_a"
        case.mkdir()
        sd.write_image(case / "blurred.png", blurred, bit_depth=16)
        sd.write_image(case / "sharp.png", chart, bit_depth=16)
        sd.write_kernel(case / "kernel_true.txt", k_true)
        csv_path = tmp_path / "report.csv"
        results, table = sd.evaluate_directory(tmp_path, csv_path=csv_path)
        assert len(results) == 1
        name, report = results[0]
        assert name == "case_a"
        assert np.isfinite(report.ssde) and np.isfinite(report.error_ratio)
        assert report.ssde < 0.05
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "case,ssde,psnr,error_ratio"
        assert lines[1].startswith("case_a,")
        assert len(table) == 10

    def test_empty_directory_is_error(self, tmp_path):
        with pytest.raises(sd.InvalidInputError):
            sd.evaluate_directory(tmp_path)


def _corner_truth(corner):
    """A 9x9 true kernel whose mass is a 2x2 block in one corner."""
    k = np.zeros((9, 9))
    rows = slice(7, 9) if corner[0] else slice(0, 2)
    cols = slice(7, 9) if corner[1] else slice(0, 2)
    k[rows, cols] = 0.25
    return k


def _corner_delta(corner):
    k = np.zeros((3, 3))
    k[2 * corner[0], 2 * corner[1]] = 1.0
    return k


class TestSmallEstimate:
    """Estimates smaller than the true kernel: the error ratio restores with
    the kernel that SSDE's canvas aligned, not one shifted in its own frame."""

    @pytest.fixture(scope="class")
    def scene(self):
        chart = sd.test_chart(96)
        return chart, {corner: sd.synthesize(chart, _corner_truth(corner), noise_sigma=0.01, seed=1)
                       for corner in ((1, 1), (0, 0))}

    @pytest.mark.parametrize("k_est, corner, shift", [
        (sd.delta_kernel(3), (1, 1), (3, 3)),          # shifted past its own 3x3 frame
        (_corner_delta((1, 1)), (1, 1), (2, 2)),
        (_corner_delta((1, 1)), (0, 0), (-4, -4)),     # opposite corners
    ])
    def test_scores_a_3x3_estimate_against_a_9x9_truth(self, scene, k_est, corner, shift):
        chart, blurred = scene
        k_true = _corner_truth(corner)
        report = evaluate_kernels(k_est, k_true, blurred[corner], chart)
        assert (report.ssde, report.alignment_shift) == sd.ssde(k_est, k_true) == (0.75, shift)
        assert np.isfinite(report.psnr_db) and np.isfinite(report.error_ratio)
        aligned, _ = align_kernel(k_est, k_true)
        assert aligned.shape == (9, 9) and aligned.sum() == 1.0

    @pytest.mark.parametrize("side", [3, 9])
    def test_estimate_that_overlaps_at_no_shift_stays_in_place(self, scene, side):
        # the first shift searched, (-4, -4), won every tie at zero correlation
        # and moved all the mass out of the frame: "no positive mass"
        chart, blurred = scene
        k_est, k_true = np.zeros((side, side)), np.zeros((9, 9))
        k_est[0, 0] = k_true[8, 8] = 1.0
        report = evaluate_kernels(k_est, k_true, blurred[(1, 1)], chart)
        assert (report.ssde, report.alignment_shift) == (2.0, (0, 0))
        assert np.isfinite(report.psnr_db) and np.isfinite(report.error_ratio)

    def test_eval_with_a_smaller_kernel_size_exits_0(self, scene, tmp_path, capsys):
        chart, blurred = scene
        case = tmp_path / "ds" / "corner"
        case.mkdir(parents=True)
        sd.write_image(case / "blurred.png", blurred[(1, 1)], bit_depth=16)
        sd.write_image(case / "sharp.png", chart, bit_depth=16)
        sd.write_kernel(case / "kernel_true.txt", _corner_truth((1, 1)))
        assert main(["eval", "--input", str(tmp_path / "ds"), "--kernel-size", "3",
                     "--output", str(tmp_path / "report.csv")]) == 0
        row = (tmp_path / "report.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "corner" and all(np.isfinite(float(v)) for v in row[1:])


def test_equal_sizes_score_as_the_shift_in_the_estimates_own_frame():
    # the error ratio's kernel was the estimate projected, shifted in its own
    # frame and projected again; an estimate at least as large as the truth
    # loses to the crop only the mass that its own frame dropped, so the
    # report is the former one bit for bit
    rng = np.random.default_rng(11)
    chart = sd.test_chart(64)
    for est_shape, true_shape in (((5, 5), (5, 5)), ((7, 7), (7, 7)), ((7, 5), (7, 5)), ((9, 9), (5, 7))):
        k_est, k_true = rng.random(est_shape) ** 4, rng.random(true_shape) ** 4
        blurred = sd.synthesize(chart, sd.project_kernel(k_true)[0], noise_sigma=0.01, seed=2)
        err, shift = sd.ssde(k_est, k_true)
        former = sd.project_kernel(shifted(sd.project_kernel(k_est)[0], *shift))[0]
        assert np.array_equal(align_kernel(k_est, k_true)[0], former)
        restored_est = sd.tv_deconv(blurred, former, COMMON_LAMBDA_C)
        restored_true = sd.tv_deconv(blurred, sd.project_kernel(k_true)[0], COMMON_LAMBDA_C)
        expected = EvalReport(ssde=err, psnr_db=sd.psnr(np.clip(restored_est, 0.0, 1.0), chart),
                              error_ratio=sd.error_ratio(restored_est, restored_true, chart),
                              alignment_shift=shift)
        assert evaluate_kernels(k_est, k_true, blurred, chart) == expected
