import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.metrics import evaluate_kernels
from salientdeblur.pipeline import structure_pass
from salientdeblur.structure import _tv_energy, tv_objective

from oracles import condat_tv1d, tv_energy_direct
from test_core import warm_peak


class TestRMap:
    def test_constant_image(self):
        assert not sd.r_map(np.full((20, 20), 0.4)).any()

    def test_ramp_interior_value(self):
        c = 0.02
        img = np.tile(np.arange(24.0) * c, (24, 1))
        r = sd.r_map(img, 5)
        expected = 25 * c / (25 * c + 0.5)
        assert abs(r[12, 12] - expected) < 1e-12

    def test_alternating_stripes_cancel(self):
        # opposing gradients cancel in the window's vector sum (an odd window
        # leaves one uncancelled column; the +0.5 offset suppresses the rest)
        c = 0.005
        stripes = np.tile(np.array([0.0, c] * 16), (32, 1))
        ramp = np.tile(np.arange(32.0) * 2 * c, (32, 1))
        r_stripes = sd.r_map(stripes, 5)[16, 16]
        r_ramp = sd.r_map(ramp, 5)[16, 16]
        assert r_stripes < 0.1
        assert r_stripes < 0.25 * r_ramp

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = sd.r_map(rng.random((15, 17)), 5)
            assert r.min() >= 0.0 and r.max() < 1.0

    @pytest.mark.parametrize("window", [5.0, np.nan, True, 1, 4])
    def test_rejects_bad_window(self, window):
        # a float window used to end in a raw IndexError
        img = np.random.default_rng(0).random((24, 24))
        with pytest.raises(sd.InvalidInputError, match="window"):
            sd.r_map(img, window)


class TestSmoothWeight:
    def test_zero(self):
        assert sd.smooth_weight(np.zeros((3, 3)))[0, 0] == 1.0

    def test_one(self):
        assert abs(sd.smooth_weight(np.ones((2, 2)))[0, 0] - np.exp(-1.0)) < 1e-12

    def test_monotone(self):
        r = np.linspace(0, 5, 100)
        w = sd.smooth_weight(r)
        assert np.all(np.diff(w) < 0)
        assert w.min() > 0.0 and w.max() <= 1.0

    def test_out_matches_the_plain_expression_bitwise(self):
        r = np.random.default_rng(6).normal(size=(9, 11))
        out = np.empty_like(r)
        assert sd.smooth_weight(r, out=out) is out
        assert np.array_equal(out, np.exp(-np.abs(r) ** 0.8))
        assert np.array_equal(sd.smooth_weight(r), out)


class TestAdaptiveTV:
    def test_constant_fixed(self):
        img = np.full((12, 12), 0.6)
        for theta in (0.01, 0.5, 2.0):
            assert np.allclose(sd.adaptive_tv_denoise(img, theta), img, atol=1e-12)

    def test_theta_to_zero_is_identity(self):
        img = np.random.default_rng(1).random((20, 21))
        out = sd.adaptive_tv_denoise(img, 1e-6)
        assert np.sqrt(np.mean((out - img) ** 2)) <= 1e-3

    def test_matches_taut_string_on_1d_step(self):
        theta = 0.08
        signal = np.concatenate([np.full(24, 0.2), np.full(24, 0.8)])
        img = np.tile(signal, (16, 1))
        out = sd.adaptive_tv_denoise(img, theta, None, max_iters=2000, tol=1e-9)
        oracle = condat_tv1d(signal, theta)
        assert np.sqrt(np.mean((out[8] - oracle) ** 2)) <= 1e-2
        # rows identical by symmetry
        assert np.abs(out - out[8][None, :]).max() < 1e-8

    def test_matches_taut_string_on_noisy_1d(self):
        rng = np.random.default_rng(2)
        signal = np.clip(np.repeat(rng.random(6), 8) + rng.normal(0, 0.05, 48), 0, 1)
        theta = 0.05
        img = np.tile(signal, (12, 1))
        out = sd.adaptive_tv_denoise(img, theta, None, max_iters=2000, tol=1e-9)
        oracle = condat_tv1d(signal, theta)
        assert np.sqrt(np.mean((out[6] - oracle) ** 2)) <= 1e-2

    def test_objective_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            img = rng.random((14, 15))
            omega = np.clip(rng.random((14, 15)), 0.05, 1.0)
            theta = 10 ** rng.uniform(-3, 0)
            out = sd.adaptive_tv_denoise(img, theta, omega)
            assert tv_objective(out, img, theta, omega) <= tv_objective(img, img, theta, omega) + 1e-9

    def test_plain_model_is_omega_one(self):
        img = np.random.default_rng(4).random((10, 10))
        a = sd.adaptive_tv_denoise(img, 0.2, None)
        b = sd.adaptive_tv_denoise(img, 0.2, np.ones_like(img))
        assert np.array_equal(a, b)

    def test_one_gradient_per_iterate(self, monkeypatch):
        # each iterate's gradients serve its energy and the next dual step
        import salientdeblur.structure as structure

        calls = []

        def counted(a):
            calls.append(1)
            return sd.gradients(a)

        monkeypatch.setattr(structure, "gradients", counted)
        img = np.random.default_rng(5).random((12, 13))
        sd.adaptive_tv_denoise(img, 0.1, None, max_iters=7, tol=0.0)
        assert len(calls) == 7 + 1

    def test_rejects_bad_omega(self):
        img = np.zeros((5, 5))
        with pytest.raises(sd.InvalidInputError):
            sd.adaptive_tv_denoise(img, 0.1, np.full((5, 5), 1.5))

    def test_rejects_non_finite_omega(self):
        # a nan passed both range checks and the input came back unchanged
        omega = np.full((5, 5), 0.5)
        omega[2, 3] = np.nan
        with pytest.raises(sd.InvalidInputError, match="omega"):
            sd.adaptive_tv_denoise(np.random.default_rng(3).random((5, 5)), 0.1, omega)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, 0.0, -0.1, True, "1"])
    def test_rejects_bad_theta(self, theta):
        # a nan or inf theta would return the input unchanged; True ran as 1
        # and a string ended in a raw TypeError
        img = np.random.default_rng(3).random((8, 8))
        with pytest.raises(sd.InvalidInputError, match="theta"):
            sd.adaptive_tv_denoise(img, theta)

    @pytest.mark.parametrize("max_iters, tol", [(-1, 1e-3), (100, -1e-3)])
    def test_rejects_negative_budget(self, max_iters, tol):
        # max_iters = -1 would run no iteration and silently return the input
        img = np.random.default_rng(3).random((8, 8))
        with pytest.raises(sd.InvalidInputError, match="max_iters and tol"):
            sd.adaptive_tv_denoise(img, 0.1, None, max_iters, tol)

    @pytest.mark.parametrize("max_iters, tol", [
        (2.5, 1e-3), (True, 1e-3), (100, np.nan), (100, np.inf), (100, True), (100, "0.1"),
    ])
    def test_rejects_mistyped_budget(self, max_iters, tol):
        # a float max_iters used to end in a raw TypeError; a nan tol ran
        # every iteration
        img = np.random.default_rng(3).random((24, 24))
        with pytest.raises(sd.InvalidInputError, match="max_iters and tol"):
            sd.adaptive_tv_denoise(img, 1.0, None, max_iters, tol)


@pytest.mark.parametrize("order", ["C", "F"])
def test_tv_energy_matches_the_direct_formula_bitwise(order):
    # the fidelity is summed over lam and halved, with no plane for 2 lam
    rng = np.random.default_rng(32)
    u, f = (np.asarray(rng.random((37, 29)), order=order) for _ in range(2))
    omega = np.asarray(0.99 * rng.random((37, 29)) + 0.01, order=order)
    mag = np.hypot(*sd.gradients(u))
    for theta in (1.0, 0.7, 3e-4, 2e3):
        lam = theta * omega
        expected = tv_energy_direct(u, mag, f, lam)
        assert _tv_energy(u, mag, f, lam) == expected
        assert _tv_energy(u, mag, f, lam, np.empty_like(u)) == expected
        assert tv_objective(u, f, theta, omega) == expected


class TestShockFilter:
    def test_constant_unchanged(self):
        img = np.full((8, 8), 0.42)
        assert np.array_equal(sd.shock_filter(img), img)

    def test_sharpens_smooth_ramp(self):
        # rounded-shoulder ramp: curvature at the shoulders drives the
        # sharpening (an exactly linear ramp is a stationary profile of the
        # discrete scheme: zero second derivative inside, zero minmod at the
        # junctions)
        x = np.arange(24.0)
        profile = 0.1 + 0.8 / (1 + np.exp(-(x - 12) / 1.8))
        img = np.tile(profile, (12, 1))
        out = sd.shock_filter(img)
        gin = sd.gradients(img)
        gout = sd.gradients(out)
        assert np.hypot(gout.gx, gout.gy).max() > np.hypot(gin.gx, gin.gy).max()

    def test_range_clamped(self):
        rng = np.random.default_rng(6)
        img = rng.random((16, 16)) * 0.5 + 0.2
        out = sd.shock_filter(img)
        assert out.min() >= img.min() - 1e-15
        assert out.max() <= img.max() + 1e-15

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_its_input_alone(self, order):
        # the step reads the input in place of a copy
        img = np.asarray(np.random.default_rng(7).random((9, 11)), order=order)
        before = img.copy()
        sd.shock_filter(img)
        assert np.array_equal(img, before)


class TestSelectSalientEdges:
    def test_zero_threshold_keeps_all(self, monkeypatch):
        import salientdeblur.structure as structure

        calls = []
        monkeypatch.setattr(structure, "gradients", lambda a: calls.append(1) or sd.gradients(a))
        img = np.random.default_rng(7).random((10, 10))
        g = sd.gradients(img)
        sel = sd.select_salient_edges(img, 0.0)
        assert np.array_equal(sel.gx, g.gx) and np.array_equal(sel.gy, g.gy)
        assert len(calls) == 1  # the mask reuses the selection's gradients

    def test_above_max_drops_all(self):
        img = np.random.default_rng(8).random((10, 10))
        g = sd.gradients(img)
        t = np.hypot(g.gx, g.gy).max() * 1.01
        sel = sd.select_salient_edges(img, t)
        assert not sel.gx.any() and not sel.gy.any()

    def test_axis_aligned_step_edge_is_kept(self):
        # one vertical edge: gradient (1, 0) at the step
        img = np.zeros((8, 8))
        img[:, 4:] = 1.0
        sel = sd.select_salient_edges(img, 0.5)
        assert sel.gx.any()                  # magnitude 1 >= 0.5 keeps it

    def test_kept_pixels_bitwise_masked_exact_zero(self):
        img = np.random.default_rng(9).random((12, 12))
        g = sd.gradients(img)
        t = np.median(np.hypot(g.gx, g.gy))
        sel = sd.select_salient_edges(img, t)
        mask = sd.salient_mask(img, t)
        assert np.array_equal(sel.gx[mask], g.gx[mask])
        assert np.array_equal(sel.gy[mask], g.gy[mask])
        assert not sel.gx[~mask].any() and not sel.gy[~mask].any()

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -0.1, True, "0.1"])
    def test_rejects_bad_threshold(self, threshold):
        # a nan threshold would give an all-False mask, and True thresholded at 1
        img = np.random.default_rng(7).random((10, 10))
        for select in (sd.salient_mask, sd.select_salient_edges):
            with pytest.raises(sd.InvalidInputError, match="threshold"):
                select(img, threshold)


class TestInitThreshold:
    def test_unit_gradients_fully_populated(self):
        rng = np.random.default_rng(10)
        n = 128
        angles = rng.uniform(0, np.pi, size=(n, n))
        g = sd.GradientField(np.cos(angles), np.sin(angles))
        t = sd.init_threshold(g, n * n, 25)
        assert abs(t - 1.0) < 1e-12

    def test_single_group_ramp(self):
        # axis-aligned ramp: every gradient is (c, 0) -> one populated group
        c = 0.5
        img = np.tile(np.arange(64.0) * c, (64, 1))
        g = sd.gradients(img)
        t = sd.init_threshold(g, img.size, 9)
        assert abs(t - c) < 1e-12

    def test_counting_oracle_random_field(self):
        rng = np.random.default_rng(11)
        gx = rng.normal(size=(100, 100))
        gy = rng.normal(size=(100, 100))
        g = sd.GradientField(gx, gy)
        t = sd.init_threshold(g, 10_000, 25)
        m = int(np.ceil(0.5 * np.sqrt(10_000 * 25)))
        assert m == 250
        mag = np.hypot(gx, gy).ravel()
        angle = np.degrees(np.arctan2(gy, gx).ravel()) % 180.0
        group = np.minimum((angle // 45).astype(int), 3)
        for b in range(4):
            members = np.sort(mag[group == b])[::-1]
            if members.size >= m:
                # at least m members of every retained group reach t
                assert np.sum(mag[group == b] >= t) >= m

    def test_zero_field_returns_zero(self):
        z = np.zeros((30, 30))
        assert sd.init_threshold(sd.GradientField(z, z), 900, 25) == 0.0

    @pytest.mark.parametrize("image_pixels, kernel_pixels", [
        (np.nan, 9), (np.inf, 9), (576.0, 9), (576, 0), (0, 9), (576, True),
    ])
    def test_rejects_bad_pixel_counts(self, image_pixels, kernel_pixels):
        # nan used to end in a raw ValueError, inf in an OverflowError
        g = sd.gradients(np.random.default_rng(12).random((24, 24)))
        with pytest.raises(sd.InvalidInputError, match="pixels"):
            sd.init_threshold(g, image_pixels, kernel_pixels)

    def test_mask_grows_as_threshold_decays(self):
        img = np.random.default_rng(12).random((32, 32))
        g = sd.gradients(img)
        mag = np.hypot(g.gx, g.gy)
        counts = [int((mag >= t).sum()) for t in (0.4, 0.2, 0.1, 0.05, 0.0)]
        assert counts == sorted(counts)


@pytest.mark.parametrize("stage", [
    lambda img: sd.adaptive_tv_denoise(img, 1.0), sd.shock_filter, sd.r_map,
    lambda img: sd.select_salient_edges(img, 0.1), lambda img: sd.salient_mask(img, 0.1),
    lambda img: sd.poisson_reconstruct(sd.GradientField(img, np.zeros_like(img))),
    lambda img: sd.init_threshold(sd.GradientField(np.zeros_like(img), img), img.size, 9),
    lambda img: sd.psnr(np.zeros_like(img), img),
    lambda img: sd.error_ratio(img, np.ones_like(img), np.zeros_like(img)),
    lambda img: sd.ssde(img[2:5, 2:5], np.full((3, 3), 1.0 / 9.0)),
    lambda img: evaluate_kernels(img[2:5, 2:5], np.full((3, 3), 1.0 / 9.0), np.full((16, 16), 0.5),
                                 np.full((16, 16), 0.5)),
], ids=["adaptive_tv_denoise", "shock_filter", "r_map", "select_salient_edges", "salient_mask",
        "poisson_reconstruct", "init_threshold", "psnr", "error_ratio", "ssde", "evaluate_kernels"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stages_reject_non_finite_images(stage, bad):
    # these returned NaN arrays, an all-zero field, a NaN score or a threshold
    # that skipped the NaN gradient without complaint (the kernel scores
    # read the image's centre as a kernel)
    img = np.random.default_rng(9).random((8, 8))
    img[3, 4] = bad
    with pytest.raises(sd.InvalidInputError, match="finite"):
        stage(img)


def test_config_validates_structure_ranges():
    sd.DeblurConfig(kernel_size=7)
    for bad in ({"theta0": 0.0}, {"window": 4}):
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=7, **bad)


class TestWorkingSet:
    """Traced peak of a warm call above its start, in planes of a 128² image:
    the shock filter's padded frame and stencil terms, one of which holds
    the output; the TV split's weights, dual pair, gradients, iterates and
    temporaries; and, for the full pass, the fidelity weight beside the
    split."""

    IMAGE = sd.convolve(sd.test_chart(128), sd.kernel_preset("l-curve", 9))

    @staticmethod
    def _planes(call):
        return warm_peak(call) / (128 * 128 * 8)

    def test_shock_filter(self):
        assert self._planes(lambda: sd.shock_filter(self.IMAGE)) <= 8

    def test_adaptive_tv_denoise(self):
        omega = sd.smooth_weight(sd.r_map(self.IMAGE))
        assert self._planes(lambda: sd.adaptive_tv_denoise(self.IMAGE, 1.0, omega)) <= 12

    def test_structure_pass(self):
        config = sd.DeblurConfig(kernel_size=9)
        assert self._planes(lambda: structure_pass(self.IMAGE, config)) <= 13
