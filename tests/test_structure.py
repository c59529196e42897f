import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.structure import tv_objective

from oracles import condat_tv1d


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

    def test_rejects_bad_omega(self):
        img = np.zeros((5, 5))
        with pytest.raises(sd.InvalidInputError):
            sd.adaptive_tv_denoise(img, 0.1, np.full((5, 5), 1.5))


class TestShockFilter:
    def test_zero_steps_identity(self):
        img = np.random.default_rng(5).random((9, 9))
        assert np.array_equal(sd.shock_filter(img, 1.0, 0), img)

    def test_constant_unchanged(self):
        img = np.full((8, 8), 0.42)
        assert np.array_equal(sd.shock_filter(img, 1.0, 5), img)

    def test_sharpens_smooth_ramp(self):
        # rounded-shoulder ramp: curvature at the shoulders drives the
        # sharpening (an exactly linear ramp is a stationary profile of the
        # discrete scheme: zero second derivative inside, zero minmod at the
        # junctions)
        x = np.arange(24.0)
        profile = 0.1 + 0.8 / (1 + np.exp(-(x - 12) / 1.8))
        img = np.tile(profile, (12, 1))
        out = sd.shock_filter(img, 1.0, 5)
        gin = sd.gradients(img)
        gout = sd.gradients(out)
        assert np.hypot(gout.gx, gout.gy).max() > np.hypot(gin.gx, gin.gy).max()

    def test_range_clamped(self):
        rng = np.random.default_rng(6)
        img = rng.random((16, 16)) * 0.5 + 0.2
        out = sd.shock_filter(img, 1.0, 8)
        assert out.min() >= img.min() - 1e-15
        assert out.max() <= img.max() + 1e-15


class TestSelectSalientEdges:
    def test_zero_threshold_keeps_all(self):
        img = np.random.default_rng(7).random((10, 10))
        g = sd.gradients(img)
        sel = sd.select_salient_edges(img, 0.0)
        assert np.array_equal(sel.gx, g.gx) and np.array_equal(sel.gy, g.gy)

    def test_above_max_drops_all(self):
        img = np.random.default_rng(8).random((10, 10))
        g = sd.gradients(img)
        t = np.hypot(g.gx, g.gy).max() * 1.01
        sel = sd.select_salient_edges(img, t)
        assert not sel.gx.any() and not sel.gy.any()

    def test_rule_difference_on_axis_aligned_edge(self):
        # one vertical edge: gradient (1, 0) at the step
        img = np.zeros((8, 8))
        img[:, 4:] = 1.0
        mag_sel = sd.select_salient_edges(img, 0.5, "magnitude")
        con_sel = sd.select_salient_edges(img, 0.5, "conjunction")
        assert mag_sel.gx.any()              # magnitude rule keeps it: 1 >= 0.5
        assert not con_sel.gx.any()          # |dy|/(5 sqrt 2) = 0 < 0.5 drops it
        assert not con_sel.gy.any()

    def test_kept_pixels_bitwise_masked_exact_zero(self):
        img = np.random.default_rng(9).random((12, 12))
        g = sd.gradients(img)
        t = np.median(np.hypot(g.gx, g.gy))
        sel = sd.select_salient_edges(img, t)
        mask = sd.salient_mask(img, t)
        assert np.array_equal(sel.gx[mask], g.gx[mask])
        assert np.array_equal(sel.gy[mask], g.gy[mask])
        assert not sel.gx[~mask].any() and not sel.gy[~mask].any()


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

    def test_mask_grows_as_threshold_decays(self):
        img = np.random.default_rng(12).random((32, 32))
        g = sd.gradients(img)
        mag = np.hypot(g.gx, g.gy)
        counts = [int((mag >= t).sum()) for t in (0.4, 0.2, 0.1, 0.05, 0.0)]
        assert counts == sorted(counts)


def test_config_validates_structure_ranges():
    sd.DeblurConfig(kernel_size=7).validate()
    for bad in ({"theta0": 0.0}, {"window": 4}, {"shock_dt": 1.5}, {"mask_rule": "sometimes"}):
        with pytest.raises(sd.InvalidInputError):
            sd.DeblurConfig(kernel_size=7, **bad).validate()
