import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sievesim import kernels, synthetic
from sievesim.functionals import FunctionalSpec
from sievesim.kernels import KernelSpec, eval_kernel, kernel_matrix, rkhs_norm_sq
from sievesim.synthetic import (
    load_dataset,
    load_test_function,
    make_test_function,
    save_dataset,
    save_test_function,
    simulate_inner,
    simulate_outer,
    true_theta,
)

V1_FILES = Path(__file__).parent / "data" / "v1"


class TestMakeTestFunction:
    def test_same_seed_same_function(self):
        spec = KernelSpec.gaussian(3)
        a = make_test_function(spec, n_centers=20, seed=5)
        b = make_test_function(spec, n_centers=20, seed=5)
        assert_allclose(a.centers, b.centers, rtol=0, atol=0)
        assert_allclose(a.coefficients, b.coefficients, rtol=0, atol=0)

    def test_value_at_single_center(self):
        # With one center, f(U1) = c1 * k(U1, U1) = c1.
        spec = KernelSpec.laplace(4)
        f = make_test_function(spec, n_centers=1, seed=6)
        assert_allclose(f(f.centers)[0], f.coefficients[0], rtol=1e-14)

    def test_direct_sum_oracle(self):
        """A 1000-center mixture matches explicit summation.

        The fsum-reduced oracle value is frozen; the vectorized evaluation
        must agree to 1e-12 relative.
        """
        spec = KernelSpec.laplace(10)
        f = make_test_function(spec, n_centers=1000, seed=42)
        x = np.full(10, 0.5)
        oracle = math.fsum(
            f.coefficients[i] * eval_kernel(spec, x, f.centers[i])
            for i in range(1000)
        ) / 1000.0
        assert_allclose(f(x)[0], oracle, rtol=1e-12)
        assert_allclose(f(x)[0], -0.034460193340401124, rtol=1e-12)

    def test_norm_sq_positive(self):
        spec = KernelSpec.matern(2, nu=1.5)
        f = make_test_function(spec, n_centers=30, seed=7)
        assert f.norm_sq is None
        assert rkhs_norm_sq(spec, f.coefficients, f.centers) > 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="incompatible"):
            synthetic.TestFunction(KernelSpec.laplace(2), np.zeros((3, 2)), np.ones(4))


class TestEvaluation:
    def test_linearity_in_coefficients(self):
        import dataclasses

        spec = KernelSpec.gaussian(2)
        f = make_test_function(spec, n_centers=10, seed=8)
        doubled = dataclasses.replace(f, coefficients=2.0 * f.coefficients)
        rng = np.random.default_rng(9)
        x = rng.random((6, 2))
        assert_allclose(doubled(x), 2.0 * f(x), rtol=1e-14)

    def test_batch_equals_loop(self):
        spec = KernelSpec.laplace(3)
        f = make_test_function(spec, n_centers=15, seed=10)
        rng = np.random.default_rng(11)
        x = rng.random((8, 3))
        loop = np.array([f(x[i])[0] for i in range(8)])
        assert_allclose(f(x), loop, rtol=1e-14)

    def test_chunked_evaluation_consistent(self):
        # A batch larger than the internal evaluation chunk must agree with
        # direct evaluation of its pieces.
        spec = KernelSpec.gaussian(2)
        f = make_test_function(spec, n_centers=5, seed=12)
        rng = np.random.default_rng(13)
        x = rng.random((10_050, 2))
        out = f(x)
        assert_allclose(out[:100], f(x[:100]), rtol=0, atol=0)
        assert_allclose(out[-100:], f(x[-100:]), rtol=0, atol=0)

    @pytest.mark.parametrize("block_entries", [64, 10**12], ids=["pooled", "inline"])
    def test_reused_chunk_buffer_keeps_fresh_matrix_bits(self, monkeypatch, block_entries):
        # Each chunk is one fresh kernel matrix times the coefficients, then scaled.
        spec = KernelSpec.laplace(3)
        f = make_test_function(spec, n_centers=60, seed=15)
        x = np.random.default_rng(16).random((10_050, 3))
        expected = np.concatenate([kernel_matrix(spec, x[:10_000], f.centers) @ f.coefficients,
                                   kernel_matrix(spec, x[10_000:], f.centers) @ f.coefficients])
        expected *= 1.0 / 60
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
        assert np.array_equal(f(x), expected)

    def test_wrong_dimension_raises(self):
        f = make_test_function(KernelSpec.gaussian(3), n_centers=4, seed=14)
        with pytest.raises(ValueError, match="dimension 2"):
            f(np.zeros((5, 2)))


class TestSimulateOuter:
    def test_in_unit_cube(self):
        x = simulate_outer(1000, 7, seed=15)
        assert x.shape == (1000, 7)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_reproducible(self):
        assert_allclose(simulate_outer(50, 3, seed=16),
                        simulate_outer(50, 3, seed=16), rtol=0, atol=0)

    def test_coordinate_means(self):
        x = simulate_outer(100_000, 2, seed=17)
        assert_allclose(x.mean(axis=0), [0.5, 0.5], atol=0.01)


class TestSimulateInner:
    def test_noiseless_equals_surface(self):
        spec = KernelSpec.laplace(2)
        f = make_test_function(spec, n_centers=10, seed=18)
        x = simulate_outer(40, 2, seed=19)
        data = simulate_inner(f, x, 5, 0.0, seed=20)
        assert_allclose(data.ybar, f(x), rtol=0, atol=0)

    def test_inner_averaging_concentrates(self):
        # With m = 10^4 unit-variance draws the average deviates from the
        # surface by at most 5 / sqrt(m) across 200 scenarios (sub-Gaussian
        # tail; failure probability well under 1e-6).
        spec = KernelSpec.gaussian(3)
        f = make_test_function(spec, n_centers=10, seed=21)
        x = simulate_outer(200, 3, seed=22)
        m = 10_000
        data = simulate_inner(f, x, m, 1.0, seed=23)
        assert np.max(np.abs(data.ybar - f(x))) <= 5.0 / math.sqrt(m)

    def test_reproducible(self):
        spec = KernelSpec.laplace(2)
        f = make_test_function(spec, n_centers=5, seed=24)
        x = simulate_outer(30, 2, seed=25)
        a = simulate_inner(f, x, 3, 0.7, seed=26)
        b = simulate_inner(f, x, 3, 0.7, seed=26)
        assert_allclose(a.ybar, b.ybar, rtol=0, atol=0)

    def test_m_validation(self):
        spec = KernelSpec.laplace(2)
        f = make_test_function(spec, n_centers=5, seed=27)
        with pytest.raises(ValueError):
            simulate_inner(f, simulate_outer(5, 2, seed=28), 0, 1.0, seed=29)


class TestTrueTheta:
    def test_square_is_mean_of_squares(self):
        # The reference draws its points from the seed as one block.
        f = synthetic.TestFunction(KernelSpec.gaussian(4), np.full((1, 4), 0.5), [3.0])
        oracle = true_theta(f, FunctionalSpec.expectation("square"),
                            eval_points=1000, seed=30)
        pts = np.random.default_rng(30).random((1000, 4))
        assert oracle.value == np.mean(f(pts) ** 2)

    def test_median_of_uniform(self):
        # One Laplace center at 0 in d = 1: f(x) = exp(-x), decreasing, so the
        # median of f(U) is exp(-1/2).
        f = synthetic.TestFunction(KernelSpec.laplace(1), [[0.0]], [1.0])
        eval_points = 40_000
        oracle = true_theta(f, FunctionalSpec.value_at_risk(0.5),
                            eval_points=eval_points, seed=31)
        assert abs(oracle.value - math.exp(-0.5)) <= 2.0 / math.sqrt(eval_points)

    def test_two_resolutions_agree(self):
        """10^6-point and 10^4-point references agree within MC error.

        The standard error of the coarse run is recomputed here from the
        same derived seed the oracle uses.
        """
        spec = KernelSpec.laplace(10)
        f = make_test_function(spec, n_centers=200, seed=32)
        func = FunctionalSpec.expectation("square")
        fine = true_theta(f, func, eval_points=1_000_000, seed=33)
        coarse = true_theta(f, func, eval_points=10_000, seed=34)
        pts = simulate_outer(10_000, 10, seed=34)
        vals = f(pts) ** 2
        se = vals.std(ddof=1) / math.sqrt(10_000)
        assert abs(fine.value - coarse.value) <= 3.0 * se


class TestSerialization:
    def test_test_function_round_trip(self, tmp_path):
        spec = KernelSpec.matern(3, nu=2.5, lengthscale=0.8)
        f = make_test_function(spec, n_centers=12, seed=35)
        path = tmp_path / "fn.txt"
        save_test_function(f, path)
        g = load_test_function(path)
        assert g.kernel == f.kernel
        assert_allclose(g.centers, f.centers, rtol=0, atol=0)
        assert_allclose(g.coefficients, f.coefficients, rtol=0, atol=0)
        rng = np.random.default_rng(36)
        x = rng.random((4, 3))
        assert_allclose(g(x), f(x), rtol=0, atol=0)

    def test_built_surface_resaves_byte_identically(self, tmp_path):
        # A built surface has no recorded norm; saving computes it, and a
        # loaded file keeps the recorded one.
        spec = KernelSpec.laplace(2)
        f = make_test_function(spec, n_centers=9, seed=37)
        path, again = tmp_path / "fn.txt", tmp_path / "again.txt"
        save_test_function(f, path)
        g = load_test_function(path)
        save_test_function(g, again)
        assert again.read_bytes() == path.read_bytes()
        assert g.norm_sq == rkhs_norm_sq(spec, f.coefficients, f.centers)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 4), m=st.integers(1, 6),
           sigma=st.floats(0.0, 10.0), seed=st.integers(0, 2**16))
    def test_dataset_round_trip(self, n, d, m, sigma, seed):
        f = make_test_function(KernelSpec.laplace(d), n_centers=8, seed=seed)
        data = simulate_inner(f, simulate_outer(n, d, seed=seed + 1), m, sigma, seed=seed + 2)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "data.txt", Path(tmp) / "again.txt"
            save_dataset(data, path)
            back = load_dataset(path)
            save_dataset(back, again)
            assert again.read_bytes() == path.read_bytes()
        assert back.m == m
        assert back.noise_sigma == sigma
        assert np.array_equal(back.scenarios, data.scenarios)
        assert np.array_equal(back.ybar, data.ybar)

    @pytest.mark.parametrize("name, load, save", [
        ("test_function_matern", load_test_function, save_test_function),
        ("dataset", load_dataset, save_dataset),
    ])
    def test_committed_v1_file_resaves_byte_identically(self, name, load, save, tmp_path):
        source = V1_FILES / f"{name}.txt"
        save(load(source), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == source.read_bytes()
