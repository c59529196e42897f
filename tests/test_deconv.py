import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur import deconv
from salientdeblur.core import BlurOperator
from salientdeblur.core import _diff_x, _fast_len
from salientdeblur.deconv import (CG_ITERS_FINAL, CG_ITERS_INTERIM, IRLS_ITERS, IRLS_ITERS_FINAL, L2_WEIGHT,
                                  WEIGHT_FLOOR, _irls_deconv_single, _l2_latent, deconv_objective)
from salientdeblur.kernel_est import KernelEstParams

from oracles import dense_from_operator, irls_deconv_allocating
from test_core import warm_peak

def step_edge_instance():
    img = np.full((64, 64), 0.1)
    img[:, 32:] = 0.9
    kernel = np.full((7, 7), 1.0 / 49.0)
    blurred = sd.convolve(img, kernel, "fft")
    return img, kernel, blurred


def restorations(grad_s, lam):
    """Both restorations as (image, kernel) -> restored, at weight lam."""
    return (lambda img, k: sd.tv_deconv(img, k, lam),
            lambda img, k: sd.adaptive_deconv(img, k, grad_s, lam))


def transition_width(img, row=32, lo=0.2, hi=0.8):
    vals = img[row]
    return int(np.sum((vals > lo) & (vals < hi)))


class TestCgSolve:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(sd.cg_solve(lambda v: v, b, 1), b)

    def test_diagonal_solve(self):
        d = np.array([1.0, 2.0, 4.0])
        x = sd.cg_solve(lambda v: d * v, d.copy(), 10)
        assert np.allclose(x, 1.0, atol=1e-10)

    def test_random_spd_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.normal(size=(10, 10))
            a = m.T @ m + np.eye(10)
            b = rng.normal(size=10)
            x = sd.cg_solve(lambda v: a @ v, b, 10)
            assert np.linalg.norm(a @ x - b) <= 1e-8
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-7)

    def test_zero_rhs(self):
        assert not sd.cg_solve(lambda v: v, np.zeros(4), 5).any()

    def test_non_finite_operator_raises(self):
        def bad(v):
            return v * np.nan

        with pytest.raises(sd.NumericalError):
            sd.cg_solve(bad, np.ones(3), 5)

    @pytest.mark.parametrize("iters", [2.5, -5, True, None, "3"])
    def test_bad_budget_is_invalid_input(self, iters):
        with pytest.raises(sd.InvalidInputError, match="iters"):
            sd.cg_solve(lambda v: v, np.ones(3), iters)

    def test_zero_budget_returns_the_start(self):
        assert not sd.cg_solve(lambda v: 2.0 * v, np.ones(3), 0).any()
        x0 = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(sd.cg_solve(lambda v: 2.0 * v, np.ones(3), np.int64(0), x0=x0), x0)

    def test_operator_may_reuse_its_output_buffer(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng)
        b = rng.normal(size=10)
        buf = np.empty(10)
        reused = sd.cg_solve(lambda v: np.matmul(a, v, out=buf), b, 10)
        assert np.array_equal(reused, sd.cg_solve(lambda v: a @ v, b, 10))


class TestCgSolvePreconditioned:
    def test_unit_preconditioner_is_the_plain_solve_bitwise(self):
        rng = np.random.default_rng(30)
        a = random_spd(rng)
        b = rng.normal(size=10)
        x0 = rng.normal(size=10)
        for start in (None, x0):
            assert np.array_equal(sd.cg_solve(lambda v: a @ v, b, 7, x0=start, minv=np.ones(10)),
                                  sd.cg_solve(lambda v: a @ v, b, 7, x0=start))

    def test_random_preconditioner_matches_direct_solve(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = random_spd(rng)
            b = rng.normal(size=10)
            minv = rng.uniform(0.1, 10.0, size=10)
            for start in (None, rng.normal(size=10)):
                x = sd.cg_solve(lambda v: a @ v, b, 20, x0=start, minv=minv)
                assert np.linalg.norm(a @ x - b) <= 1e-8
                assert np.allclose(x, np.linalg.solve(a, b), atol=1e-7)

    def test_mismatched_preconditioner_shape_is_invalid_input(self):
        with pytest.raises(sd.InvalidInputError, match="minv"):
            sd.cg_solve(lambda v: v, np.ones(4), 5, minv=np.ones(3))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_preconditioner_is_invalid_input(self, bad):
        # an all-zero minv used to return zeros without complaint
        minv = np.ones(3)
        minv[1] = bad
        with pytest.raises(sd.InvalidInputError, match="minv"):
            sd.cg_solve(lambda v: v, np.ones(3), 5, minv=minv)


def random_spd(rng, n=10):
    m = rng.normal(size=(n, n))
    return m.T @ m + np.eye(n)


class TestCgSolveBuffers:
    @pytest.mark.parametrize("start", ["zero", "distinct", "in-place"])
    @pytest.mark.parametrize("jacobi", [False, True])
    def test_out_and_step_match_the_copying_path_bitwise(self, start, jacobi):
        rng = np.random.default_rng(13)
        a = random_spd(rng)
        b = rng.normal(size=10)
        x0 = rng.normal(size=10)
        kept = x0.copy()
        minv = rng.uniform(0.1, 10.0, size=10) if jacobi else None
        expected = sd.cg_solve(lambda v: a @ v, b, 7, x0=None if start == "zero" else x0, minv=minv)
        out = x0 if start == "in-place" else np.full(10, 5.0)
        step = np.full(10, 7.0)
        got = sd.cg_solve(lambda v: a @ v, b, 7, x0=None if start == "zero" else x0, minv=minv,
                          out=out, step=step)
        assert got is out
        assert np.array_equal(got, expected)
        if start == "distinct":
            assert np.array_equal(x0, kept)

    def test_operator_may_overwrite_the_step_buffer(self):
        rng = np.random.default_rng(14)
        a = random_spd(rng)
        b = rng.normal(size=10)
        step = np.empty(10)

        def apply_a(v):
            step.fill(np.nan)  # the step buffer is dead whenever the operator runs
            return a @ v

        for minv in (None, rng.uniform(0.1, 10.0, size=10)):
            assert np.array_equal(sd.cg_solve(apply_a, b, 7, minv=minv, step=step),
                                  sd.cg_solve(lambda v: a @ v, b, 7, minv=minv))

    @pytest.mark.parametrize("name", ["out", "step"])
    @pytest.mark.parametrize("bad", [np.ones(4), np.ones(3, dtype=np.float32), [1.0, 1.0, 1.0]])
    def test_bad_buffer_is_invalid_input(self, name, bad):
        with pytest.raises(sd.InvalidInputError, match=name):
            sd.cg_solve(lambda v: v, np.ones(3), 5, **{name: bad})

    def test_integer_rhs_is_solved_as_float(self):
        # an integer b used to end in a raw UFuncTypeError
        d = np.array([1.0, 2.0, 4.0])
        assert np.array_equal(sd.cg_solve(lambda v: d * v, np.array([1, 2, 4]), 10),
                              sd.cg_solve(lambda v: d * v, np.array([1.0, 2.0, 4.0]), 10))

    @pytest.mark.parametrize("b", [np.array(["1", "2"]), np.array([1 + 1j, 2]), np.array([True, False])])
    def test_non_real_rhs_is_invalid_input(self, b):
        with pytest.raises(sd.InvalidInputError, match="real"):
            sd.cg_solve(lambda v: v, b, 5)


class TestCgSolveWarmStart:
    def test_exact_solution_is_returned(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = random_spd(rng)
            x_true = rng.normal(size=10)
            x = sd.cg_solve(lambda v: a @ v, a @ x_true, 10, x0=x_true)
            assert np.allclose(x, x_true, rtol=0, atol=1e-12)

    def test_random_start_matches_direct_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_spd(rng)
            b = rng.normal(size=10)
            x0 = rng.normal(size=10)
            x = sd.cg_solve(lambda v: a @ v, b, 10, x0=x0)
            assert np.linalg.norm(a @ x - b) <= 1e-8
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-7)

    def test_zero_rhs_iterates_from_nonzero_start(self):
        d = np.array([1.0, 2.0, 4.0])
        x0 = np.array([1.0, -2.0, 3.0])
        x = sd.cg_solve(lambda v: d * v, np.zeros(3), 3, x0=x0)
        assert np.abs(x).max() <= 1e-12

    def test_start_is_not_mutated(self):
        rng = np.random.default_rng(12)
        a = random_spd(rng)
        x0 = rng.normal(size=10)
        kept = x0.copy()
        x = sd.cg_solve(lambda v: a @ v, rng.normal(size=10), 5, x0=x0)
        assert np.array_equal(x0, kept)
        assert x is not x0

    def test_start_counts_one_operator_application(self):
        calls = []

        def counted(v):
            calls.append(1)
            return 2.0 * v

        sd.cg_solve(counted, np.ones(4), 1, x0=np.zeros(4) + 0.25)
        assert len(calls) == 2

    def test_mismatched_start_shape_is_invalid_input(self):
        with pytest.raises(sd.InvalidInputError, match="x0"):
            sd.cg_solve(lambda v: v, np.ones(4), 5, x0=np.ones(3))


class TestTvDeconv:
    def test_delta_kernel_tiny_lambda(self):
        blurred = np.random.default_rng(1).random((32, 32))
        out = sd.tv_deconv(blurred, sd.delta_kernel(3), 1e-9)
        assert np.sqrt(np.mean((out - blurred) ** 2)) <= 1e-4

    def test_constant_fixed_point(self):
        img = np.full((24, 24), 0.42)
        k = np.full((5, 5), 1.0 / 25.0)
        out = sd.tv_deconv(img, k, 0.005)
        assert np.abs(out - img).max() <= 1e-6

    def test_step_edge_restoration(self):
        # converged minimizer check: a generous budget on the interim restoration's cold core
        sharp, kernel, blurred = step_edge_instance()
        restored = _irls_deconv_single(blurred, BlurOperator(kernel, blurred.shape), 0.005, 1.0, 1.0,
                                       8, 300, WEIGHT_FLOOR)
        resid = sd.convolve(restored, kernel, "fft") - blurred
        assert np.sqrt(np.mean(resid**2)) <= 1e-3
        assert transition_width(restored) < transition_width(blurred)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sharp = rng.random((16, 16))
            k = rng.random((3, 3))
            k /= k.sum()
            blurred = sd.convolve(sharp, k, "fft") + rng.normal(0, 0.01, (16, 16))
            lam = 10 ** rng.uniform(-3, -1.5)
            op = BlurOperator(k, blurred.shape)
            prev = None
            for iters in (1, 2, 3):
                out = _irls_deconv_single(blurred, op, lam, 1.0, 1.0, iters, 30, 1e-3)
                obj = deconv_objective(out, blurred, k, lam)
                if prev is not None:
                    assert obj <= prev + 1e-6
                prev = obj

    def test_cold_start_core_bitwise(self):
        # the interim restoration must not pick up the final one's warm start
        _, kernel, blurred = step_edge_instance()
        tv = sd.tv_deconv(blurred, kernel, 0.005)
        core = _irls_deconv_single(blurred, BlurOperator(kernel, blurred.shape), 0.005, 1.0, 1.0,
                                   IRLS_ITERS, CG_ITERS_INTERIM, WEIGHT_FLOOR, warm_start=False)
        assert np.array_equal(tv, core)


class TestAdaptiveDeconv:
    def test_zero_structure_matches_warm_core_bitwise(self):
        _, kernel, blurred = step_edge_instance()
        zeros = sd.GradientField(np.zeros_like(blurred), np.zeros_like(blurred))
        adaptive = sd.adaptive_deconv(blurred, kernel, zeros, 0.005)
        core = _irls_deconv_single(blurred, BlurOperator(kernel, blurred.shape), 0.005, 1.0, 1.0,
                                   IRLS_ITERS_FINAL, CG_ITERS_FINAL, WEIGHT_FLOOR, warm_start=True,
                                   precondition=True)
        assert np.array_equal(adaptive, core)

    def test_delta_kernel_tiny_lambda(self):
        blurred = np.random.default_rng(3).random((24, 24))
        zeros = sd.GradientField(np.zeros_like(blurred), np.zeros_like(blurred))
        out = sd.adaptive_deconv(blurred, sd.delta_kernel(3), zeros, 1e-9)
        assert np.sqrt(np.mean((out - blurred) ** 2)) <= 1e-4

    def test_structure_weights_preserve_edges(self):
        sharp, kernel, blurred = step_edge_instance()
        grad_s = sd.gradients(sharp)
        adaptive = sd.adaptive_deconv(blurred, kernel, grad_s, 0.005)
        tv = sd.tv_deconv(blurred, kernel, 0.005)
        assert transition_width(adaptive) <= transition_width(tv)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            sharp = rng.random((16, 16))
            k = rng.random((3, 3))
            k /= k.sum()
            blurred = sd.convolve(sharp, k, "fft") + rng.normal(0, 0.01, (16, 16))
            grad_s = sd.gradients(sharp)
            lam = 10 ** rng.uniform(-3, -1.5)
            op = BlurOperator(k, blurred.shape)
            wx = np.exp(-np.abs(grad_s.gx) ** 0.8)
            wy = np.exp(-np.abs(grad_s.gy) ** 0.8)
            prev = None
            for iters in (1, 2, 3):
                out = _irls_deconv_single(blurred, op, lam, wx, wy, iters, 30, 1e-3)
                obj = deconv_objective(out, blurred, k, lam, grad_s)
                if prev is not None:
                    assert obj <= prev + 1e-6
                prev = obj

    def test_multichannel_shares_structure(self):
        rng = np.random.default_rng(5)
        sharp = rng.random((20, 20, 3))
        k = np.full((3, 3), 1.0 / 9.0)
        blurred = sd.convolve(sharp, k, "fft")
        grad_s = sd.gradients(sd.to_grayscale(sharp))
        for restore in restorations(grad_s, 0.003):
            out = restore(blurred, k)
            assert out.shape == sharp.shape
            # channels processed independently: restoring each channel alone matches
            for c in range(3):
                assert np.array_equal(out[:, :, c], restore(blurred[:, :, c], k))


@pytest.mark.parametrize("weighted, precondition", [(False, False), (True, False), (False, True), (True, True)],
                         ids=["False", "True", "False-jacobi", "True-jacobi"])
def test_warm_start_objective_non_increasing(weighted, precondition):
    rng = np.random.default_rng(13 + weighted)
    for _ in range(50):
        sharp = rng.random((16, 16))
        k = rng.random((3, 3))
        k /= k.sum()
        blurred = sd.convolve(sharp, k, "fft") + rng.normal(0, 0.01, (16, 16))
        lam = 10 ** rng.uniform(-3, -1.5)
        grad_s = sd.gradients(sharp) if weighted else None
        wx = np.exp(-np.abs(grad_s.gx) ** 0.8) if weighted else 1.0
        wy = np.exp(-np.abs(grad_s.gy) ** 0.8) if weighted else 1.0
        op = BlurOperator(k, blurred.shape)
        prev = None
        for iters in (1, 2, 3):
            out = _irls_deconv_single(blurred, op, lam, wx, wy, iters, 30, 1e-3, warm_start=True,
                                      precondition=precondition)
            obj = deconv_objective(out, blurred, k, lam, grad_s)
            if prev is not None:
                assert obj <= prev + 1e-6
            prev = obj


def test_normal_operator_symmetry():
    rng = np.random.default_rng(6)
    k = rng.random((5, 5))
    k /= k.sum()
    op = BlurOperator(k, (12, 12))
    wx = np.clip(rng.random((12, 12)), 0.1, 1.0)
    wy = np.clip(rng.random((12, 12)), 0.1, 1.0)
    lam = 0.01

    def apply_a(u):
        g = sd.gradients(u)
        reg = -sd.divergence(sd.GradientField(wx * g.gx, wy * g.gy))
        return op.adjoint(op.forward(u)) + (0.5 * lam) * reg

    for _ in range(20):
        u = rng.normal(size=(12, 12))
        v = rng.normal(size=(12, 12))
        lhs = float(np.sum(apply_a(u) * v))
        rhs = float(np.sum(u * apply_a(v)))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_normal_operator_positive_semidefinite_sampled():
    rng = np.random.default_rng(7)
    k = rng.random((3, 3))
    k /= k.sum()
    op = BlurOperator(k, (10, 10))
    for _ in range(20):
        u = rng.normal(size=(10, 10))
        assert float(np.sum(op.adjoint(op.forward(u)) * u)) >= -1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_image_is_invalid_input(bad):
    img = np.full((12, 12), 0.5)
    img[3, 4] = bad
    k = np.full((3, 3), 1.0 / 9.0)
    grad_s = sd.gradients(np.zeros((12, 12)))
    with pytest.raises(sd.InvalidInputError, match="finite"):
        sd.tv_deconv(img, k, 0.005)
    with pytest.raises(sd.InvalidInputError, match="finite"):
        sd.adaptive_deconv(img, k, grad_s, 0.003)
    with pytest.raises(sd.InvalidInputError, match="finite"):
        sd.adaptive_deconv(np.dstack([img, img, img]), k, grad_s, 0.003)


@pytest.mark.parametrize("bad, match", [(np.nan, "finite"), (np.inf, "finite"),
                                        (-0.1, "non-negative")])
def test_bad_kernel_is_invalid_input(bad, match):
    img = np.random.default_rng(9).random((12, 12))
    k = np.full((3, 3), 1.0 / 9.0)
    k[0, 1] = bad
    grad_s = sd.gradients(img)
    with pytest.raises(sd.InvalidInputError, match=match):
        sd.tv_deconv(img, k, 0.005)
    with pytest.raises(sd.InvalidInputError, match=match):
        sd.adaptive_deconv(img, k, grad_s, 0.003)


def test_unnormalized_kernel_is_accepted():
    img = np.random.default_rng(9).random((12, 12))
    out = sd.tv_deconv(img, np.full((3, 3), 0.2), 0.005)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_structure_is_invalid_input(bad):
    img = np.random.default_rng(9).random((12, 12))
    k = np.full((3, 3), 1.0 / 9.0)
    gx = np.zeros((12, 12))
    gx[5, 6] = bad
    for grad_s in (sd.GradientField(gx, np.zeros((12, 12))), sd.GradientField(np.zeros((12, 12)), gx)):
        with pytest.raises(sd.InvalidInputError, match="structure field must be finite"):
            sd.adaptive_deconv(img, k, grad_s, 0.003)


def test_single_channel_stack_keeps_its_shape():
    img = np.random.default_rng(8).random((12, 12, 1))
    k = np.full((3, 3), 1.0 / 9.0)
    for restore in restorations(sd.gradients(img[:, :, 0]), 0.003):
        out = restore(img, k)
        assert out.shape == (12, 12, 1)
        assert np.array_equal(out[:, :, 0], restore(img[:, :, 0], k))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -0.01, True, "0.1"])
def test_bad_lambda_is_invalid_input(lam):
    img = np.random.default_rng(9).random((12, 12))
    k = np.full((3, 3), 1.0 / 9.0)
    for restore in restorations(sd.gradients(img), lam):
        with pytest.raises(sd.InvalidInputError, match="lambda"):
            restore(img, k)


@pytest.mark.parametrize("shape", [(12,), (12, 12, 3, 1)])
def test_bad_image_rank_is_invalid_input(shape):
    img = np.full(shape, 0.5)
    with pytest.raises(sd.InvalidInputError, match="image"):
        sd.tv_deconv(img, np.full((3, 3), 1.0 / 9.0), 0.005)


@pytest.mark.parametrize("name", ["itr", "irls_iters", "cg_iters"])
@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_kernel_params_reject_non_integer_budgets(name, value):
    with pytest.raises(sd.InvalidInputError, match=name):
        KernelEstParams(**{name: value})


class TestBufferedCore:
    @pytest.mark.parametrize("warm_start, precondition", [(False, False), (True, False), (True, True)],
                             ids=["False", "True", "True-jacobi"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_allocating_oracle_bitwise(self, warm_start, precondition, weighted):
        rng = np.random.default_rng(20)
        sharp = rng.random((40, 33))
        k = rng.random((7, 5))
        k /= k.sum()
        blurred = sd.convolve(sharp, k, "fft") + rng.normal(0, 0.01, sharp.shape)
        if weighted:
            grad_s = sd.gradients(sd.convolve(sharp, np.full((3, 3), 1.0 / 9.0), "fft"))
            wx, wy = np.exp(-np.abs(grad_s.gx) ** 0.8), np.exp(-np.abs(grad_s.gy) ** 0.8)
        else:
            wx = wy = 1.0
        args = (blurred, BlurOperator(k, blurred.shape), 0.004, wx, wy, 3, 25, 1e-3)
        flags = {"warm_start": warm_start, "precondition": precondition}
        assert np.array_equal(_irls_deconv_single(*args, **flags), irls_deconv_allocating(*args, **flags))

    @pytest.mark.parametrize("shape,kshape", [((1, 12), (1, 3)), ((12, 1), (3, 1)), ((2, 2), (1, 1))])
    def test_strips_match_allocating_oracle_bitwise(self, shape, kshape):
        rng = np.random.default_rng(21)
        img = rng.random(shape)
        k = np.full(kshape, 1.0 / np.prod(kshape))
        args = (img, BlurOperator(k, shape), 0.01, 1.0, 1.0, 2, 10, 1e-3)
        assert np.array_equal(_irls_deconv_single(*args), irls_deconv_allocating(*args))

    def test_core_reads_its_image_without_writing_it(self):
        # the first weights and the first warm start read the image in place
        rng = np.random.default_rng(22)
        img = rng.random((20, 17))
        kept = img.copy()
        k = np.full((3, 3), 1.0 / 9.0)
        for warm_start in (False, True):
            _irls_deconv_single(img, BlurOperator(k, img.shape), 0.01, 1.0, 1.0, 2, 10, 1e-3,
                                warm_start=warm_start)
            assert np.array_equal(img, kept)


class TestRestoreInto:
    """``adaptive_deconv(..., out=)``: the result in a given array, which may
    be the image itself."""

    @staticmethod
    def case(channels):
        rng = np.random.default_rng(26)
        img = rng.random((20, 17) if channels is None else (20, 17, channels))
        k = rng.random((5, 3))
        grad_s = sd.GradientField(0.1 * rng.normal(size=(20, 17)), 0.1 * rng.normal(size=(20, 17)))
        return img, k / k.sum(), grad_s

    @pytest.mark.parametrize("channels", [None, 1, 3], ids=["gray", "stack1", "rgb"])
    def test_into_the_image_matches_the_copying_call_bitwise(self, channels):
        img, k, grad_s = self.case(channels)
        expected = sd.adaptive_deconv(img, k, grad_s, 0.003)
        into = img.copy()
        assert sd.adaptive_deconv(into, k, grad_s, 0.003, out=into) is into
        assert np.array_equal(into, expected)

    @pytest.mark.parametrize("channels", [None, 3], ids=["gray", "rgb"])
    def test_into_another_array_leaves_the_image_alone(self, channels):
        img, k, grad_s = self.case(channels)
        kept = img.copy()
        # a strided view in Fortran order
        into = np.full((2 * img.shape[1], 2 * img.shape[0]) + img.shape[2:], np.nan).swapaxes(0, 1)[::2, ::2]
        assert sd.adaptive_deconv(img, k, grad_s, 0.003, out=into) is into
        assert np.array_equal(into, sd.adaptive_deconv(img, k, grad_s, 0.003))
        assert np.array_equal(img, kept)

    @pytest.mark.parametrize("bad", ["shape", "dtype", "read-only", "list"])
    def test_bad_out_is_invalid_input(self, bad):
        img, k, grad_s = self.case(3)
        out = {"shape": lambda: np.empty((20, 17)), "dtype": lambda: np.empty(img.shape, np.float32),
               "read-only": lambda: np.broadcast_to(0.0, img.shape), "list": img.tolist}[bad]()
        with pytest.raises(sd.InvalidInputError, match="out"):
            sd.adaptive_deconv(img, k, grad_s, 0.003, out=out)


class _ScribblingOperator(BlurOperator):
    """A blur operator that fills both planes it lends with NaN before each
    application, as any content of theirs is dead by then."""

    def _scribble(self):
        for plane in self.scratch():
            plane.fill(np.nan)

    def forward(self, img):
        self._scribble()
        return super().forward(img)

    def adjoint(self, img):
        self._scribble()
        return super().adjoint(img)

    def normal(self, u):
        self._scribble()
        return super().normal(u)


def test_lent_planes_hold_nothing_across_operator_calls(monkeypatch):
    rng = np.random.default_rng(27)
    k = rng.random((5, 7))
    k /= k.sum()
    grad_s = sd.GradientField(0.1 * rng.normal(size=(19, 24)), 0.1 * rng.normal(size=(19, 24)))
    images = (rng.random((19, 24)), rng.random((19, 24, 3)))
    expected = [(sd.tv_deconv(img, k, 0.005), sd.adaptive_deconv(img, k, grad_s, 0.003)) for img in images]
    monkeypatch.setattr(deconv, "BlurOperator", _ScribblingOperator)
    for img, (tv, adaptive) in zip(images, expected):
        assert np.array_equal(sd.tv_deconv(img, k, 0.005), tv)
        assert np.array_equal(sd.adaptive_deconv(img, k, grad_s, 0.003), adaptive)


class _CountingOperator(BlurOperator):
    """A blur operator that counts its applications by kind."""

    calls: dict = {}

    def forward(self, img):
        self.calls["forward"] = self.calls.get("forward", 0) + 1
        return super().forward(img)

    def adjoint(self, img):
        self.calls["adjoint"] = self.calls.get("adjoint", 0) + 1
        return super().adjoint(img)

    def normal(self, u):
        self.calls["normal"] = self.calls.get("normal", 0) + 1
        return super().normal(u)


@pytest.mark.parametrize("channels", [1, 3])
def test_operator_applications_per_channel(monkeypatch, channels):
    # each application is a few FFT passes, so these counts set a
    # restoration's transform count
    rng = np.random.default_rng(29)
    k = rng.random((5, 7))
    k /= k.sum()
    img = rng.random((19, 24, channels))
    grad_s = sd.GradientField(0.1 * rng.normal(size=(19, 24)), 0.1 * rng.normal(size=(19, 24)))
    monkeypatch.setattr(deconv, "BlurOperator", _CountingOperator)
    for restore, normals in ((lambda: sd.tv_deconv(img, k, 0.005), IRLS_ITERS * CG_ITERS_INTERIM),
                             (lambda: sd.adaptive_deconv(img, k, grad_s, 0.003),
                              IRLS_ITERS_FINAL * (CG_ITERS_FINAL + 1))):  # + 1: each warm start's residual
        monkeypatch.setattr(_CountingOperator, "calls", {})
        restore()
        assert _CountingOperator.calls == {"normal": channels * normals, "adjoint": channels}
    assert (IRLS_ITERS * CG_ITERS_INTERIM, IRLS_ITERS_FINAL * (CG_ITERS_FINAL + 1)) == (90, 126)


def test_lent_planes_are_contiguous_and_disjoint():
    op = BlurOperator(np.full((3, 5), 1.0 / 15.0), (9, 14))
    real, spectrum = op.scratch()
    for plane in (real, spectrum):
        assert plane.shape == (9, 14) and plane.dtype == np.float64 and plane.flags.c_contiguous
    assert not np.may_share_memory(real, spectrum)
    u = np.random.default_rng(28).random((9, 14))
    expected = op.normal(u).copy()
    np.copyto(spectrum, u)  # an input in a lent plane is read before it is overwritten
    assert np.array_equal(op.normal(spectrum), expected)


class TestFlatStencils:
    """The flat x-differences equal the sliced ones bitwise, whatever the
    shape and memory order."""

    SHAPES = [(1, 9), (9, 1), (1, 1), (7, 12), (12, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("out_order", ["C", "F"])
    def test_diff_x_matches_slices(self, shape, order, out_order):
        a = np.asarray(np.random.default_rng(29).normal(size=shape), order=order)
        expected = np.zeros(shape)
        expected[:, :-1] = a[:, 1:] - a[:, :-1]
        out = np.full(shape, np.nan, order=out_order)
        assert _diff_x(a, out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_core_matches_allocating_oracle(self, shape, order):
        rng = np.random.default_rng(30)
        img = np.asarray(rng.random(shape), order=order)
        k = np.full((1, 1), 1.0) if 1 in shape else rng.random((3, 5)) / 7.5
        for flags in ({}, {"warm_start": True, "precondition": True}):
            args = (img, BlurOperator(k, shape), 0.01, 1.0, 1.0, 2, 10, 1e-3)
            assert np.array_equal(_irls_deconv_single(*args, **flags), irls_deconv_allocating(*args, **flags))


class TestWorkingSet:
    """Traced peak of a warm call above its start, in planes of the image
    (128², 9² kernel): the operator's buffers, the regularizer's kept
    buffers, the iterate and the CG vectors and, for RGB, the result unless
    it goes into the input."""

    @staticmethod
    def _planes(call, side):
        return warm_peak(call) / (side * side * 8)

    def test_gray_tv_deconv(self):
        rng = np.random.default_rng(23)
        k = rng.random((9, 9))
        img = rng.random((128, 128))
        assert self._planes(lambda: sd.tv_deconv(img, k / k.sum(), 0.005), 128) <= 13

    def test_rgb_adaptive_deconv(self):
        rng = np.random.default_rng(24)
        k = rng.random((9, 9))
        img = rng.random((128, 128, 3))
        grad_s = sd.GradientField(0.1 * rng.normal(size=(128, 128)), 0.1 * rng.normal(size=(128, 128)))
        assert self._planes(lambda: sd.adaptive_deconv(img, k / k.sum(), grad_s, 0.002), 128) <= 16

    def test_rgb_adaptive_deconv_into_its_input(self):
        # the CLI's call: no planes for the result
        rng = np.random.default_rng(24)
        k = rng.random((9, 9))
        img = rng.random((128, 128, 3))
        grad_s = sd.GradientField(0.1 * rng.normal(size=(128, 128)), 0.1 * rng.normal(size=(128, 128)))
        into = np.empty_like(img)

        def in_place():
            np.copyto(into, img)
            sd.adaptive_deconv(into, k / k.sum(), grad_s, 0.002, out=into)

        assert self._planes(in_place, 128) <= 13


def test_l2_latent_solves_its_periodic_normal_equations():
    # the replicate-padded frame's exact minimizer, by a dense solve of
    # (K^T K + w D^T D) x = K^T b with circular blur and wrap-around differences
    rng = np.random.default_rng(25)
    image = rng.random((10, 12))
    k = rng.random((3, 5))
    k /= k.sum()
    (h, w), (kh, kw) = image.shape, k.shape
    fh, fw = _fast_len(h + 2 * kh), _fast_len(w + 2 * kw)
    top, left = (fh - h) // 2, (fw - w) // 2
    frame = np.pad(image, ((top, fh - h - top), (left, fw - w - left)), mode="edge")

    def blur(u, kernel):
        out = np.zeros_like(u)
        for (i, j), kij in np.ndenumerate(kernel):
            out += kij * np.roll(u, (i - kh // 2, j - kw // 2), axis=(0, 1))
        return out

    def normal(u):
        dx, dy = np.roll(u, -1, axis=1) - u, np.roll(u, -1, axis=0) - u
        dtd = (np.roll(dx, 1, axis=1) - dx) + (np.roll(dy, 1, axis=0) - dy)
        return blur(blur(u, k), k[::-1, ::-1]) + L2_WEIGHT * dtd

    a = dense_from_operator(normal, frame.shape)
    x = np.linalg.solve(a, blur(frame, k[::-1, ::-1]).ravel()).reshape(frame.shape)
    assert np.abs(_l2_latent(image, k) - x[top : top + h, left : left + w]).max() <= 1e-10


def test_l2_latent_owns_its_crop():
    # a view would pin the whole padded frame
    rng = np.random.default_rng(31)
    latent = _l2_latent(rng.random((10, 12)), np.full((3, 5), 1.0 / 15.0))
    assert latent.shape == (10, 12) and latent.base is None
