import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur import kernel_est
from salientdeblur.kernel_est import KernelEstParams, _EdgeSystem, _run_sums, data_residual, kernel_sparsity

from oracles import FFTEdgeSystem, check_kernel, dense_from_operator, smooth_test_image


def line_kernel_5():
    k = np.zeros((5, 5))
    k[2, 1:4] = 1.0 / 3.0
    return k


def make_blur_instance(seed=3, shape=(41, 41), kernel=None):
    """Noiseless blur of a random smooth image with a flat margin; on this
    construction the true kernel reproduces the gradient data exactly."""
    sharp = smooth_test_image(shape, seed)
    k = line_kernel_5() if kernel is None else kernel
    blurred = sd.convolve(sharp, k, "fft")
    return sd.gradients(blurred), sd.gradients(sharp), k


class TestProjectKernel:
    def test_valid_kernel_unchanged(self):
        k = sd.kernel_preset("box", 7)
        out, degenerate = sd.project_kernel(k)
        assert not degenerate
        assert np.allclose(out, k, atol=1e-15)

    def test_even_grid_padded_and_clamped(self):
        out, degenerate = sd.project_kernel(np.array([[-1.0, 1.0]]))
        assert not degenerate
        assert out.shape == (1, 3)
        assert np.array_equal(out, [[0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("raw", [np.full((3, 3), -0.5), np.zeros((3, 3)), np.full((2, 4), 1e-13)],
                             ids=["negative", "zero", "tiny"])
    def test_no_positive_mass_raises(self, raw):
        with pytest.raises(sd.InvalidInputError, match="no positive mass"):
            sd.project_kernel(raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises(self, bad):
        raw = np.ones((3, 3))
        raw[0, 1] = bad
        with pytest.raises(sd.InvalidInputError, match="finite"):
            sd.project_kernel(raw)

    def test_not_2d_raises(self):
        with pytest.raises(sd.InvalidInputError):
            sd.project_kernel(np.ones(5))

    def test_output_satisfies_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out, _ = sd.project_kernel(rng.normal(size=(7, 7)))
            check_kernel(out)


class TestMuSchedule:
    def test_anchor(self):
        assert sd.mu_schedule(25) == pytest.approx(5e-3)

    def test_lower_clamp(self):
        assert sd.mu_schedule(5) == pytest.approx(1e-3)

    def test_upper_clamp(self):
        assert sd.mu_schedule(255) == pytest.approx(2e-2)


class TestGradientCount:
    def test_constant_grid_zero(self):
        assert sd.gradient_count(np.full((7, 7), 0.3)) == 0

    def test_invariant_to_global_constant(self):
        rng = np.random.default_rng(1)
        k = rng.random((9, 9))
        assert sd.gradient_count(k) == sd.gradient_count(k + 0.7)

    def test_line_support(self):
        k = line_kernel_5()
        # forward differences are nonzero on and left/above the line
        assert 0 < sd.gradient_count(k) < k.size


class TestL0GradientSmooth:
    def test_mu_zero_identity(self):
        k = np.random.default_rng(2).random((9, 9))
        k /= k.sum()
        assert np.array_equal(sd.l0_gradient_smooth(k, 0.0), k)

    def test_uniform_unchanged(self):
        k = np.full((7, 7), 1.0 / 49.0)
        assert np.allclose(sd.l0_gradient_smooth(k, 5e-3), k, atol=1e-12)

    def test_denoises_noisy_line(self):
        clean = np.zeros((9, 9))
        clean[4, 3:6] = 1.0 / 3.0
        checker = 1e-3 * ((np.indices((9, 9)).sum(axis=0) % 2) * 2 - 1.0)
        noisy = clean + checker
        out = sd.l0_gradient_smooth(noisy, 5e-3)
        assert sd.gradient_count(out) < sd.gradient_count(noisy)
        assert np.linalg.norm(out - clean) < np.linalg.norm(noisy - clean)

    def test_candidate_energy_bound(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = rng.random((7, 7))
            k /= k.sum()
            mu = 10 ** rng.uniform(-3, -1.7)
            out = sd.l0_gradient_smooth(k, mu)
            energy = float(((out - k) ** 2).sum()) + mu * sd.gradient_count(out)
            assert energy <= mu * sd.gradient_count(k) + 1e-12

    def test_huge_mu_collapses_to_flat(self):
        k = np.random.default_rng(3).random((9, 9))
        k /= k.sum()
        out = sd.l0_gradient_smooth(k, 1e3)
        assert sd.gradient_count(out) == 0
        assert np.allclose(out, out.mean(), atol=1e-15)


def random_fields(ishape, seed):
    rng = np.random.default_rng(seed)
    grad_b = sd.GradientField(rng.normal(size=ishape), rng.normal(size=ishape))
    grad_s = sd.GradientField(rng.normal(size=ishape), rng.normal(size=ishape))
    return grad_b, grad_s, rng


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestGramSystem:
    """The Gram-matrix normal equations against the image-size FFT operator."""

    @pytest.mark.parametrize("ishape, kshape", [
        ((41, 57), (7, 5)),      # non-square image and kernel
        ((23, 9), (5, 9)),       # kernel as wide as the image
        ((9, 23), (9, 3)),       # kernel as tall as the image
        ((11, 11), (11, 11)),    # kernel as large as the image
        ((30, 301), (15, 15)),   # wide image, large kernel
    ])
    def test_matches_fft_reference(self, ishape, kshape):
        grad_b, grad_s, rng = random_fields(ishape, sum(ishape) + sum(kshape))
        ref = FFTEdgeSystem(grad_b, grad_s, kshape)
        system = _EdgeSystem(grad_b, grad_s, kshape)
        for _ in range(3):
            k = rng.random(kshape)
            assert max_rel(system.apply_data(k), ref.apply_data(k)) <= 1e-12
            assert abs(data_residual(grad_b, grad_s, k) - ref.residual(k)) <= 1e-12 * ref.residual(k)
        assert max_rel(system.rhs, ref.rhs) <= 1e-12

    @pytest.mark.parametrize("rows, n", [(9, 9), (13, 7), (40, 37), (5, 3)])
    def test_run_sums_match_direct_sums(self, rows, n):
        q = np.random.default_rng(rows + n).normal(size=(rows, 3))
        direct = np.array([q[i : i + n].sum(axis=0) for i in range(rows - n + 1)])
        assert np.allclose(_run_sums(q, n), direct, rtol=0, atol=1e-13)

    def test_rejects_mismatched_fields(self):
        grad_b, grad_s, _ = random_fields((12, 12), 5)
        short = sd.GradientField(grad_b.gx[:-1], grad_b.gy[:-1])
        with pytest.raises(sd.InvalidInputError):
            _EdgeSystem(short, grad_s, (3, 3))

    def test_gram_symmetric(self):
        grad_b, grad_s, _ = random_fields((25, 31), 3)
        gram = _EdgeSystem(grad_b, grad_s, (5, 7)).gram
        assert np.array_equal(gram, gram.T)

    def test_irls_step_matches_fft_reference(self):
        # same CG iterates up to roundoff whichever operator applies the data term
        grad_b, grad_s, _ = make_blur_instance(seed=14, shape=(37, 45), kernel=np.full((5, 3), 1 / 15))
        params = KernelEstParams(gamma=0.01, alpha=0.5, mu=0.0, itr=1, irls_iters=3, cg_iters=25)
        k0 = sd.delta_kernel((5, 3))
        ref = sd.kernel_irls_step(grad_b, grad_s, k0, params, system=FFTEdgeSystem(grad_b, grad_s, (5, 3)))
        k = sd.kernel_irls_step(grad_b, grad_s, k0, params)
        assert np.abs(k - ref).max() <= 1e-12

    def test_estimate_kernel_builds_system_once(self, monkeypatch):
        built = []

        class Counting(_EdgeSystem):
            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(kernel_est, "_EdgeSystem", Counting)
        grad_b, grad_s, _ = make_blur_instance(seed=15, shape=(31, 31))
        params = KernelEstParams(itr=3, irls_iters=2, cg_iters=10)
        sd.estimate_kernel(grad_b, grad_s, sd.delta_kernel(5), params)
        assert built == [(5, 5)]

    def test_rejects_even_or_oversized_kernel(self):
        grad_b, grad_s, _ = random_fields((9, 12), 4)
        for kshape in ((4, 5), (11, 3), (3, 13)):
            with pytest.raises(sd.InvalidInputError):
                _EdgeSystem(grad_b, grad_s, kshape)


class TestKernelIrlsStep:
    def test_sharp_input_gives_delta(self):
        sharp = smooth_test_image((31, 31), 7)
        g = sd.gradients(sharp)
        params = KernelEstParams(gamma=0.0, mu=0.0, itr=1, irls_iters=1, cg_iters=60)
        k = sd.kernel_irls_step(g, g, sd.delta_kernel(5), params)
        assert np.abs(k - sd.delta_kernel(5)).sum() <= 1e-3

    def test_recovers_line_kernel_noiseless(self):
        grad_b, grad_s, k_true = make_blur_instance()
        params = KernelEstParams(gamma=0.0, mu=0.0, itr=1, irls_iters=1, cg_iters=80)
        k = sd.kernel_irls_step(grad_b, grad_s, sd.delta_kernel(5), params)
        err, _ = sd.ssde(k, k_true)
        assert err <= 1e-4
        # with the true kernel feasible and no noise, the fit is essentially exact
        grad_norm_sq = float((grad_b.gx**2 + grad_b.gy**2).sum())
        assert data_residual(grad_b, grad_s, k) <= 1e-8 * grad_norm_sq

    def test_weighted_step_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        signal = rng.random(9)
        s_img = signal[None, :]
        k3 = np.array([[0.2, 0.5, 0.3]])
        b_img = sd.convolve(s_img, k3, "spatial")
        grad_s = sd.gradients(s_img)
        grad_b = sd.gradients(b_img)
        gamma, alpha = 0.05, 1.0
        k0 = np.array([[0.2, 0.6, 0.2]])

        def apply_data(kflat):
            k = kflat.reshape(1, 3)
            ax = sd.convolve(grad_s.gx, k, "spatial")
            ay = sd.convolve(grad_s.gy, k, "spatial")
            return np.concatenate([ax.ravel(), ay.ravel()])

        a = dense_from_operator(lambda e: apply_data(e.ravel()), (3,))
        b = np.concatenate([grad_b.gx.ravel(), grad_b.gy.ravel()])
        w = gamma * alpha * np.maximum(np.abs(k0.ravel()), kernel_est.IRLS_WEIGHT_FLOOR) ** (alpha - 2.0)
        solution = np.linalg.solve(a.T @ a + 0.5 * np.diag(w), a.T @ b)
        oracle, _ = sd.project_kernel(solution[None, :])
        params = KernelEstParams(gamma=gamma, alpha=alpha, mu=0.0, itr=1, irls_iters=1, cg_iters=50)
        k = sd.kernel_irls_step(grad_b, grad_s, k0, params)
        assert np.abs(k - oracle).max() <= 1e-6

    def test_residual_non_increasing_over_reweightings(self):
        grad_b, grad_s, _ = make_blur_instance(seed=11)
        params = KernelEstParams(gamma=0.0, mu=0.0, itr=1, irls_iters=1, cg_iters=40)
        k = sd.delta_kernel(5)
        prev = None
        for _ in range(3):
            k = sd.kernel_irls_step(grad_b, grad_s, k, params)
            resid = data_residual(grad_b, grad_s, k)
            if prev is not None:
                assert resid <= prev + 1e-6
            prev = resid

    @pytest.mark.parametrize("solution", [-1.0, 0.0, np.nan], ids=["negative", "zero", "nan"])
    def test_degenerate_solution_raises_numerical_error(self, monkeypatch, solution):
        grad_b, grad_s, _ = make_blur_instance()
        monkeypatch.setattr(kernel_est, "cg_solve", lambda apply_a, b, iters: np.full_like(b, solution))
        with pytest.raises(sd.NumericalError, match="degenerate kernel iterate"):
            sd.kernel_irls_step(grad_b, grad_s, sd.delta_kernel(5), KernelEstParams(irls_iters=1))

    def test_degenerate_structure_raises(self):
        z = np.zeros((20, 20))
        grad_b = sd.gradients(np.random.default_rng(6).random((20, 20)))
        with pytest.raises(sd.DegenerateStructureError):
            sd.kernel_irls_step(grad_b, sd.GradientField(z, z), sd.delta_kernel(5), KernelEstParams())


class TestEstimateKernel:
    def test_sharp_input_full_alternation(self):
        sharp = smooth_test_image((31, 31), 8)
        g = sd.gradients(sharp)
        params = KernelEstParams(cg_iters=60)
        k = sd.estimate_kernel(g, g, sd.delta_kernel(5), params)
        err, _ = sd.ssde(k, sd.delta_kernel(5))
        assert err <= 1e-3

    def test_noiseless_line_full_alternation(self):
        grad_b, grad_s, k_true = make_blur_instance(seed=9)
        params = KernelEstParams(gamma=0.01, mu=1e-3, itr=2, irls_iters=3, cg_iters=80)
        k = sd.estimate_kernel(grad_b, grad_s, sd.delta_kernel(5), params)
        err, _ = sd.ssde(k, k_true)
        assert err <= 1e-3

    def test_huge_mu_flattens(self):
        grad_b, grad_s, _ = make_blur_instance(seed=10)
        params = KernelEstParams(mu=1e3, itr=1, irls_iters=1, cg_iters=40)
        k = sd.estimate_kernel(grad_b, grad_s, sd.delta_kernel(5), params)
        assert sd.gradient_count(k) == 0

    def test_output_always_valid(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            grad_b, grad_s, _ = make_blur_instance(seed=20 + seed, shape=(31, 31))
            k0, _ = sd.project_kernel(rng.random((5, 5)))
            k = sd.estimate_kernel(grad_b, grad_s, k0, KernelEstParams(cg_iters=30))
            check_kernel(k)

    def test_true_objective_non_increasing(self):
        # data + gamma * sparsity, evaluated at the feasible iterates
        for seed in range(10):
            grad_b, grad_s, _ = make_blur_instance(seed=40 + seed, shape=(31, 31))
            params = KernelEstParams(gamma=0.01, alpha=0.5, mu=0.0, itr=1, irls_iters=1, cg_iters=60)
            k = sd.delta_kernel(5)
            prev = None
            for _ in range(3):
                k = sd.kernel_irls_step(grad_b, grad_s, k, params)
                obj = data_residual(grad_b, grad_s, k) + params.gamma * kernel_sparsity(k, params.alpha)
                if prev is not None:
                    assert obj <= prev + 1e-6
                prev = obj

    def test_deterministic(self):
        grad_b, grad_s, _ = make_blur_instance(seed=13)
        params = KernelEstParams()
        k1 = sd.estimate_kernel(grad_b, grad_s, sd.delta_kernel(5), params)
        k2 = sd.estimate_kernel(grad_b, grad_s, sd.delta_kernel(5), params)
        assert np.array_equal(k1, k2)


@pytest.mark.parametrize("name", ["gamma", "mu", "alpha"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, True, "0.1"])
def test_params_reject_bad_weights(name, value):
    # a bool weight used to pass as 1.0
    with pytest.raises(sd.InvalidInputError, match=name):
        KernelEstParams(**{name: value})


@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0, True, "0.1"])
def test_l0_smooth_rejects_bad_weight(mu):
    # a nan mu would return the kernel unchanged, True ran as 1.0 and a
    # string ended in a raw TypeError
    with pytest.raises(sd.InvalidInputError, match="mu"):
        sd.l0_gradient_smooth(sd.kernel_preset("line-d", 7), mu)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_l0_smooth_rejects_non_finite_kernel(bad):
    # a nan weight used to give an all-nan grid
    k = sd.kernel_preset("line-d", 7)
    k[3, 2] = bad
    with pytest.raises(sd.InvalidInputError, match="finite"):
        sd.l0_gradient_smooth(k, 0.005)


@pytest.mark.parametrize("size", [4.5, np.nan, True, 2, "9"])
def test_mu_schedule_rejects_bad_sizes(size):
    # 4.5 was accepted and nan returned nan
    with pytest.raises(sd.InvalidInputError, match="kernel size"):
        sd.mu_schedule(size)


def test_params_validation():
    KernelEstParams()
    with pytest.raises(sd.InvalidInputError):
        KernelEstParams(gamma=-1.0)
    with pytest.raises(sd.InvalidInputError):
        KernelEstParams(alpha=0.0)
    with pytest.raises(sd.InvalidInputError):
        KernelEstParams(alpha=1.5)
    with pytest.raises(sd.InvalidInputError):
        KernelEstParams(itr=0)
