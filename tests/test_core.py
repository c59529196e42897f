import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.core import periodic_gradients

from oracles import naive_convolve


class TestGrayscale:
    def test_single_channel_identity(self):
        img = np.random.default_rng(0).random((6, 7))
        assert np.array_equal(sd.to_grayscale(img), img)

    def test_uniform_rgb(self):
        img = np.full((5, 5, 3), 0.5)
        assert np.allclose(sd.to_grayscale(img), 0.5)

    def test_pure_red(self):
        img = np.zeros((4, 4, 3))
        img[:, :, 0] = 1.0
        assert np.allclose(sd.to_grayscale(img), 0.299)

    def test_bad_channel_count(self):
        with pytest.raises(sd.InvalidInputError):
            sd.to_grayscale(np.zeros((4, 4, 2)))


class TestGradients:
    def test_constant(self):
        g = sd.gradients(np.full((8, 9), 0.3))
        assert not g.gx.any() and not g.gy.any()

    def test_horizontal_ramp(self):
        c = 0.05
        img = np.tile(np.arange(10.0) * c, (8, 1))
        g = sd.gradients(img)
        assert np.allclose(g.gx[:, :-1], c)
        assert not g.gx[:, -1].any()
        assert not g.gy.any()

    def test_single_pixel_support(self):
        img = np.zeros((7, 7))
        img[3, 4] = 1.0
        g = sd.gradients(img)
        nz = np.argwhere(g.gx != 0)
        assert {tuple(p) for p in nz} == {(3, 3), (3, 4)}


class TestDivergence:
    def test_zero_field(self):
        z = np.zeros((6, 6))
        assert not sd.divergence(sd.GradientField(z, z)).any()

    def test_adjoint_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            h, w = rng.integers(2, 20, size=2)
            u = rng.normal(size=(h, w))
            g = sd.GradientField(rng.normal(size=(h, w)), rng.normal(size=(h, w)))
            gu = sd.gradients(u)
            lhs = float(np.sum(gu.gx * g.gx + gu.gy * g.gy))
            rhs = float(np.sum(u * -sd.divergence(g)))
            scale = np.linalg.norm(u) * np.hypot(np.linalg.norm(g.gx), np.linalg.norm(g.gy))
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)

    def test_divergence_of_delta_gradient_is_laplacian(self):
        # Compose the two public definitions by hand on a 5x5 grid and
        # compare against divergence(gradients(delta)).
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        g = sd.gradients(delta)
        # Hand evaluation: div = -(Dx^T gx + Dy^T gy) per the documented stencils.
        expected = np.zeros((5, 5))
        for r in range(5):
            for c in range(5):
                dx = (g.gx[r, c] if c <= 3 else 0.0) - (g.gx[r, c - 1] if c >= 1 else 0.0)
                dy = (g.gy[r, c] if r <= 3 else 0.0) - (g.gy[r - 1, c] if r >= 1 else 0.0)
                expected[r, c] = dx + dy
        result = sd.divergence(g)
        assert np.allclose(result, expected, atol=1e-15)
        # interior of the composition is the 5-point Laplacian of the delta
        assert result[2, 2] == -4.0
        assert result[2, 1] == result[2, 3] == result[1, 2] == result[3, 2] == 1.0


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(1)
        img = rng.random((12, 13))
        for mode in ("spatial", "fft"):
            assert np.allclose(sd.convolve(img, sd.delta_kernel(5), mode), img, atol=1e-12)

    def test_uniform_kernel_on_constant(self):
        img = np.full((10, 10), 0.7)
        k = np.full((3, 3), 1.0 / 9.0)
        for mode in ("spatial", "fft"):
            assert np.allclose(sd.convolve(img, k, mode), 0.7, atol=1e-12)

    def test_spatial_is_oracle_for_fft(self):
        rng = np.random.default_rng(2)
        img = rng.random((17, 17))
        k = rng.random((5, 5))
        k /= k.sum()
        diff = np.abs(sd.convolve(img, k, "spatial") - sd.convolve(img, k, "fft"))
        assert diff.max() <= 1e-8

    def test_modes_agree_up_to_large_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            h, w = rng.integers(16, 65, size=2)
            kh, kw = 2 * rng.integers(1, 8, size=2) + 1
            img = rng.random((h, w))
            k = rng.random((kh, kw))
            diff = np.abs(sd.convolve(img, k, "spatial") - sd.convolve(img, k, "fft"))
            assert diff.max() <= 1e-8

    def test_against_naive_loops(self):
        rng = np.random.default_rng(4)
        img = rng.random((9, 8))
        k = rng.random((3, 5))
        expected = naive_convolve(img, k)
        assert np.allclose(sd.convolve(img, k, "spatial"), expected, atol=1e-12)
        assert np.allclose(sd.convolve(img, k, "fft"), expected, atol=1e-10)

    def test_kernel_larger_than_image(self):
        with pytest.raises(sd.InvalidInputError):
            sd.convolve(np.zeros((4, 4)), np.full((5, 5), 0.04))

    def test_mean_preserved_on_constant(self):
        rng = np.random.default_rng(5)
        k = rng.random((7, 7))
        k /= k.sum()
        img = np.full((20, 20), 0.37)
        out = sd.convolve(img, k, "fft")
        assert abs(out.mean() - 0.37) < 1e-12

    def test_adjoint_pair(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            img = rng.normal(size=(14, 11))
            v = rng.normal(size=(14, 11))
            k = rng.normal(size=(5, 3))
            lhs = float(np.sum(sd.convolve(img, k, "fft") * v))
            rhs = float(np.sum(img * sd.BlurOperator(k, v.shape).adjoint(v)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_blur_operator_matches_free_functions(self):
        rng = np.random.default_rng(7)
        img = rng.random((21, 19))
        k = rng.random((5, 5))
        k /= k.sum()
        op = sd.BlurOperator(k, img.shape)
        assert np.array_equal(op.forward(img), sd.convolve(img, k, "fft"))


class TestResample:
    def test_identity_factor(self):
        img = np.random.default_rng(8).random((9, 11))
        assert np.array_equal(sd.resample(img, 1.0), img)

    def test_constant_any_factor(self):
        img = np.full((16, 16), 0.25)
        for factor in (0.3, 0.5, 0.7071, 1.4, 2.0):
            out = sd.resample(img, factor)
            assert np.allclose(out, 0.25, atol=1e-12)

    def test_ramp_round_trip(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 8), (8, 1))
        down = sd.resample(ramp, 0.5)
        up = sd.resample(down, 2.0)
        assert up.shape == ramp.shape
        rmse = np.sqrt(np.mean((up - ramp) ** 2))
        assert rmse <= 0.05

    def test_bad_factor(self):
        img = np.zeros((8, 8))
        with pytest.raises(sd.InvalidInputError):
            sd.resample(img, 0.0)
        with pytest.raises(sd.InvalidInputError):
            sd.resample(img, 0.01)


class TestPoisson:
    def test_consistent_field_recovery(self):
        # image whose first/last rows and columns agree, so the forward
        # differences coincide with the periodic gradient
        h, w = 18, 24
        x = np.arange(w)
        y = np.arange(h)
        img = 0.5 + 0.2 * np.cos(2 * np.pi * x[None, :] / (w - 1)) * np.cos(2 * np.pi * y[:, None] / (h - 1))
        rec = sd.poisson_reconstruct(sd.gradients(img))
        rec = rec - rec.mean() + img.mean()
        assert np.sqrt(np.mean((rec - img) ** 2)) <= 1e-6

    def test_zero_field_gives_mid_gray(self):
        z = np.zeros((10, 12))
        out = sd.poisson_reconstruct(sd.GradientField(z, z))
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_inconsistent_field_least_squares(self):
        rng = np.random.default_rng(9)
        a = rng.random((15, 17))
        b = rng.random((15, 17))
        mixed = sd.GradientField(periodic_gradients(a).gx, periodic_gradients(b).gy)
        rec = sd.poisson_reconstruct(mixed)

        def residual(candidate):
            g = periodic_gradients(candidate)
            return float(((g.gx - mixed.gx) ** 2 + (g.gy - mixed.gy) ** 2).sum())

        r = residual(rec)
        assert r <= residual(a) + 1e-9
        assert r <= residual(b) + 1e-9

    def test_mean_is_half(self):
        rng = np.random.default_rng(10)
        g = sd.GradientField(rng.normal(size=(9, 9)), rng.normal(size=(9, 9)))
        assert abs(sd.poisson_reconstruct(g).mean() - 0.5) < 1e-12


class TestKernelHelpers:
    def test_delta(self):
        k = sd.delta_kernel(5)
        assert k[2, 2] == 1.0 and k.sum() == 1.0
        sd.check_kernel(k)

    def test_check_rejects_even(self):
        with pytest.raises(sd.InvalidInputError):
            sd.check_kernel(np.full((4, 4), 1 / 16.0))

    def test_check_rejects_negative(self):
        k = sd.delta_kernel(3)
        k[0, 0] = -0.1
        k[1, 1] = 1.1
        with pytest.raises(sd.InvalidInputError):
            sd.check_kernel(k)


def test_no_nan_inf_from_finite_inputs():
    rng = np.random.default_rng(11)
    img = rng.random((20, 22))
    k = rng.random((5, 5))
    k /= k.sum()
    outputs = [
        sd.to_grayscale(np.dstack([img, img, img])),
        sd.gradients(img).gx,
        sd.divergence(sd.gradients(img)),
        sd.convolve(img, k, "fft"),
        sd.BlurOperator(k, img.shape).adjoint(img),
        sd.resample(img, 0.7071),
        sd.poisson_reconstruct(sd.gradients(img)),
    ]
    for out in outputs:
        assert np.all(np.isfinite(out))
