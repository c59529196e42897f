import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.core import _fast_len, periodic_gradients

from oracles import FFT2Blur, check_kernel, naive_convolve


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

    @pytest.mark.parametrize("view", [lambda a: a, lambda a: a.T, lambda a: a[::2, 1:],
                                      lambda a: a[:1], lambda a: a[:, :1]],
                             ids=["contiguous", "transposed", "strided", "row", "column"])
    def test_matches_the_slice_differences_bitwise(self, view):
        img = view(np.random.default_rng(3).random((9, 12)))
        gx, gy = np.zeros(img.shape), np.zeros(img.shape)
        gx[:, :-1] = img[:, 1:] - img[:, :-1]
        gy[:-1, :] = img[1:, :] - img[:-1, :]
        g = sd.gradients(img)
        assert np.array_equal(g.gx, gx) and np.array_equal(g.gy, gy)
        # the memory order of the input, which the rounding of later sums follows
        assert g.gx.strides == g.gy.strides == np.zeros_like(img).strides


@pytest.mark.parametrize("size", [np.nan, 3.5, True, 4, 0, (3, 2.5), (5, 2), (3, 3, 3), None])
def test_delta_kernel_rejects_bad_sizes(size):
    # nan used to end in a raw ValueError, and 3.5 became a 3x3 kernel
    with pytest.raises(sd.InvalidInputError, match="delta"):
        sd.delta_kernel(size)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["spatial", "fft"])
    def test_rejects_non_finite_kernel(self, mode, bad):
        # a NaN weight made every output sample NaN, and synthesize returned that image
        k = sd.delta_kernel(3)
        k[0, 1] = bad
        with pytest.raises(sd.InvalidInputError, match="kernel: weights must be finite"):
            sd.convolve(np.full((8, 8), 0.5), k, mode)
        with pytest.raises(sd.InvalidInputError, match="kernel: weights must be finite"):
            sd.synthesize(np.full((8, 8), 0.5), k)

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


def warm_peak(call):
    """Traced peak of a second call, in bytes above what existed before it."""
    import tracemalloc

    call()  # numpy's FFT plan cache fills on the first call
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNormalOperator:
    # (frame, kernel): square and non-square frames, a 1x1 kernel, a kernel
    # as large as the frame, 1xN and Nx1 strips, and non-square kernels
    CASES = [((31, 31), (7, 7)), ((23, 37), (5, 5)), ((12, 9), (1, 1)), ((9, 7), (9, 7)),
             ((1, 20), (1, 5)), ((20, 1), (5, 1)), ((25, 30), (3, 5)), ((30, 25), (5, 3))]

    @pytest.mark.parametrize("shape,kshape", CASES)
    def test_equals_adjoint_of_forward_bitwise(self, shape, kshape):
        rng = np.random.default_rng(12)
        k = rng.random(kshape)
        op = sd.BlurOperator(k / k.sum(), shape)
        ref = FFT2Blur(k / k.sum(), shape)
        for _ in range(3):  # repeated calls on one operator's buffers
            u = rng.normal(size=shape)
            kept = u.copy()
            assert np.array_equal(op.normal(u), ref.adjoint(ref.forward(u)))
            assert np.array_equal(u, kept)

    @pytest.mark.parametrize("shape,kshape", CASES)
    def test_forward_and_adjoint_match_fft2_oracle_bitwise(self, shape, kshape):
        rng = np.random.default_rng(15)
        k = rng.random(kshape)
        op = sd.BlurOperator(k / k.sum(), shape)
        ref = FFT2Blur(k / k.sum(), shape)
        for _ in range(3):
            u = rng.normal(size=shape)
            kept = u.copy()
            assert np.array_equal(op.forward(u), ref.forward(u))
            assert np.array_equal(op.adjoint(u), ref.adjoint(u))
            assert np.array_equal(u, kept)

    def test_returned_arrays_survive_later_calls(self):
        rng = np.random.default_rng(16)
        k = rng.random((5, 7))
        op = sd.BlurOperator(k / k.sum(), (19, 23))
        u = rng.normal(size=(19, 23))
        fu, au = op.forward(u), op.adjoint(u)
        fu_kept, au_kept = fu.copy(), au.copy()
        for _ in range(2):
            op.normal(rng.normal(size=(19, 23)))
            op.forward(rng.normal(size=(19, 23)))
            op.adjoint(rng.normal(size=(19, 23)))
        assert np.array_equal(fu, fu_kept) and np.array_equal(au, au_kept)

    @pytest.mark.parametrize("flip", [False, True])
    def test_input_sharing_the_frame_is_read_before_the_pad(self, flip):
        # the pad frame is a corner of the real frame; an input that is a
        # view of it (the one normal returns, or that view flipped) must
        # give what a copy of it gives
        rng = np.random.default_rng(17)
        k = rng.random((5, 7))
        op = sd.BlurOperator(k / k.sum(), (19, 23))
        for method in ("normal", "forward", "adjoint"):
            v = op.normal(rng.normal(size=(19, 23)))
            v = v[::-1, ::-1] if flip else v
            kept = v.copy()
            got = getattr(op, method)(v).copy()
            assert np.array_equal(got, getattr(op, method)(kept))

    @pytest.mark.parametrize("method", ["forward", "normal", "adjoint"])
    @pytest.mark.parametrize("shape", [(1, 18), (16, 1), (8, 18), (16, 18, 3)])
    def test_wrong_input_shape_is_invalid_input(self, method, shape):
        # these were broadcast into the frame, padded from the wrong edge, or
        # ended in a raw ValueError
        op = sd.BlurOperator(np.full((5, 5), 1.0 / 25.0), (16, 18))
        with pytest.raises(sd.InvalidInputError, match="shape"):
            getattr(op, method)(np.zeros(shape))

    def test_operators_do_not_share_buffers(self):
        rng = np.random.default_rng(13)
        k = np.full((5, 5), 1.0 / 25.0)
        first, second = sd.BlurOperator(k, (16, 18)), sd.BlurOperator(k, (16, 18))
        u, v = rng.random((16, 18)), rng.random((16, 18))
        nu = first.normal(u)
        second.normal(v)
        nu = nu.copy()  # first's next call overwrites the view
        assert np.array_equal(nu, first.adjoint(first.forward(u)))

    def test_steady_state_allocates_no_image(self):
        rng = np.random.default_rng(14)
        k = rng.random((13, 13))
        op = sd.BlurOperator(k / k.sum(), (127, 127))
        u = rng.random((127, 127))
        assert warm_peak(lambda: op.normal(u)) < 0.5 * u.nbytes  # no image-size temporary

    def test_forward_and_adjoint_allocate_only_their_result(self):
        rng = np.random.default_rng(14)
        k = rng.random((13, 13))
        op = sd.BlurOperator(k / k.sum(), (127, 127))
        u = rng.random((127, 127))
        assert warm_peak(lambda: op.forward(u)) <= 1.5 * u.nbytes
        assert warm_peak(lambda: op.adjoint(u)) <= 1.5 * u.nbytes


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
        for factor in ("a", True, np.nan):  # "a" used to end in a raw TypeError, True passed as 1
            with pytest.raises(sd.InvalidInputError, match="factor"):
                sd.resample(img, factor)

    @pytest.mark.parametrize("shape, size", [
        ((24, 24), (np.nan, 5)), ((24, 24), (5.0, 5)), ((24, 24), (5, 0)),
        ((24, 24, 3, 1), (5, 5)), ((24,), (5, 5)), ((0, 5), (3, 3)), ((24, 24), (5, 5, 5)),
    ])
    def test_resize_rejects_bad_shape(self, shape, size):
        # a nan size or a 4-D image used to end in a raw ValueError
        img = np.random.default_rng(8).random(shape)
        with pytest.raises(sd.InvalidInputError, match="resample"):
            sd.resize(img, size)


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
        check_kernel(k)

    def test_check_rejects_even(self):
        with pytest.raises(sd.InvalidInputError):
            check_kernel(np.full((4, 4), 1 / 16.0))

    def test_check_rejects_negative(self):
        k = sd.delta_kernel(3)
        k[0, 0] = -0.1
        k[1, 1] = 1.1
        with pytest.raises(sd.InvalidInputError):
            check_kernel(k)


def test_fast_len_is_the_next_5_smooth_number():
    smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6)
                    if 2**a * 3**b * 5**c < 10000)
    for n in range(1, 5000):
        assert _fast_len(n) == next(m for m in smooth if m >= n)


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
