import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.synth import KERNEL_PRESETS

from oracles import check_kernel


class TestChart:
    def test_shape_and_range(self):
        chart = sd.test_chart(255)
        assert chart.shape == (255, 255)
        assert chart.min() >= 0.0 and chart.max() <= 1.0

    def test_high_contrast_and_flat_regions(self):
        chart = sd.test_chart(128)
        assert chart.max() - chart.min() >= 0.8
        g = sd.gradients(chart)
        mag = np.hypot(g.gx, g.gy)
        assert (mag == 0).mean() > 0.3      # flat background exists
        assert (mag > 0.5).sum() > 200      # plenty of strong edges

    def test_edges_at_multiple_orientations(self):
        g = sd.gradients(sd.test_chart(128))
        mag = np.hypot(g.gx, g.gy)

        def groups(threshold):
            keep = mag > threshold
            angle = np.degrees(np.arctan2(g.gy[keep], g.gx[keep])) % 180.0
            return np.unique(np.minimum((angle // 45).astype(int), 3))

        assert len(groups(0.02)) == 4   # every orientation group populated
        assert len(groups(0.3)) >= 3    # hard edges cover at least three

    def test_deterministic(self):
        assert np.array_equal(sd.test_chart(100), sd.test_chart(100))

    def test_too_small_rejected(self):
        with pytest.raises(sd.InvalidInputError):
            sd.test_chart(32)

    @pytest.mark.parametrize("size", [np.nan, 100.5, True, "96"])
    def test_non_integer_size_rejected(self, size):
        # nan and 100.5 used to end in a raw TypeError
        with pytest.raises(sd.InvalidInputError, match="chart size"):
            sd.test_chart(size)


class TestKernelPresets:
    @pytest.mark.parametrize("name", KERNEL_PRESETS)
    @pytest.mark.parametrize("size", [5, 9, 15, 27])
    def test_presets_valid(self, name, size):
        k = sd.kernel_preset(name, size)
        check_kernel(k)
        assert k.shape == (size, size)

    @pytest.mark.parametrize("name", KERNEL_PRESETS)
    def test_presets_are_their_uniform_support_over_its_sum(self, name):
        # the projection keeps the bits of the former k / k.sum()
        for size in range(3, 32, 2):
            k = sd.kernel_preset(name, size)
            support = (k > 0).astype(np.float64)
            assert np.array_equal(k, support / support.sum())

    def test_line_d_is_diagonal(self):
        k = sd.kernel_preset("line-d", 15)
        nz = np.argwhere(k > 0)
        assert all(r == c for r, c in nz)
        assert len(nz) == 9  # round(0.6 * 15)

    def test_unknown_preset(self):
        with pytest.raises(sd.InvalidInputError):
            sd.kernel_preset("swirl", 9)

    def test_even_size_rejected(self):
        with pytest.raises(sd.InvalidInputError):
            sd.kernel_preset("box", 8)

    @pytest.mark.parametrize("size", [np.nan, 4.5, True])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(sd.InvalidInputError, match="kernel size"):
            sd.kernel_preset("box", size)


class TestSynthesize:
    def test_noiseless_matches_convolution(self):
        chart = sd.test_chart(96)
        k = sd.kernel_preset("box", 7)
        out = sd.synthesize(chart, k, noise_sigma=0.0)
        assert np.array_equal(out, np.clip(sd.convolve(chart, k, "fft"), 0, 1))

    def test_seeded_noise_reproducible(self):
        chart = sd.test_chart(96)
        k = sd.kernel_preset("line-h", 7)
        a = sd.synthesize(chart, k, noise_sigma=0.01, seed=3)
        b = sd.synthesize(chart, k, noise_sigma=0.01, seed=3)
        c = sd.synthesize(chart, k, noise_sigma=0.01, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_level_scales(self):
        chart = sd.test_chart(96)
        k = sd.kernel_preset("box", 5)
        clean = sd.synthesize(chart, k)
        noisy = sd.synthesize(chart, k, noise_sigma=0.02, seed=1)
        sigma = np.std(noisy - clean)
        assert 0.01 < sigma < 0.03

    @pytest.mark.parametrize("sigma", [-0.01, np.nan, np.inf, True, "0.01"])
    def test_bad_noise_sigma_rejected(self, sigma):
        # nan passed both the < 0 and the > 0 test and added no noise
        with pytest.raises(sd.InvalidInputError, match="noise sigma"):
            sd.synthesize(sd.test_chart(64), sd.delta_kernel(3), noise_sigma=sigma)

    @pytest.mark.parametrize("seed", ["x", 1.5, -1, True, None, np.nan])
    def test_bad_seed_rejected(self, seed):
        # these ended in a raw TypeError or ValueError from the generator
        with pytest.raises(sd.InvalidInputError, match="seed"):
            sd.synthesize(sd.test_chart(64), sd.delta_kernel(3), noise_sigma=0.01, seed=seed)

    def test_negative_weight_rejected(self):
        # a kernel with a negative weight sharpened the image without complaint
        k = np.zeros((3, 3))
        k[1] = (-0.5, 1.5, 0.0)
        with pytest.raises(sd.InvalidInputError, match="non-negative"):
            sd.synthesize(sd.test_chart(64), k)

    def test_output_clipped(self):
        chart = sd.test_chart(96)
        out = sd.synthesize(chart, sd.delta_kernel(3), noise_sigma=0.5, seed=0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_color_input(self):
        chart = sd.test_chart(96)
        color = np.dstack([chart, chart, chart])
        out = sd.synthesize(color, sd.kernel_preset("box", 5), noise_sigma=0.01, seed=2)
        assert out.shape == color.shape
