import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf

from sievesim import kernels, synthetic
from sievesim.functionals import FunctionalSpec, resolve_eta
from sievesim.harness import config_test_function, parse_config
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
CONFIGS = Path(__file__).parent.parent / "configs"


def gaussian_moments(f) -> tuple[float, float]:
    """Exact E f(U) and E f(U)^2, U uniform on the unit cube, for a Gaussian-kernel surface.

    exp(-||x - a||^2 / d) is a product over coordinates of 1-D Gaussians, whose
    integrals over [0, 1] are erf differences; for E f^2 the product of two
    Gaussians is one, by (x - a)^2 + (x - b)^2 = 2 (x - (a + b)/2)^2 + (a - b)^2 / 2.
    """
    d, u, c = f.dim, f.centers, f.coefficients
    one = math.sqrt(math.pi * d) / 2 * (erf((1 - u) / math.sqrt(d)) + erf(u / math.sqrt(d)))
    pair = np.ones((c.size, c.size))
    for a in u.T:
        mid, gap = (a[:, None] + a) / 2, a[:, None] - a
        pair *= np.exp(-gap**2 / (2 * d)) * math.sqrt(math.pi * d / 2) / 2 * (
            erf((1 - mid) * math.sqrt(2 / d)) + erf(mid * math.sqrt(2 / d)))
    return float(c @ one.prod(axis=1)) / c.size, float(c @ pair @ c) / c.size**2


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
        x = rng.random((synthetic._POINT_CHUNK + 50, 2))
        out = f(x)
        assert_allclose(out[:100], f(x[:100]), rtol=0, atol=0)
        assert_allclose(out[-100:], f(x[-100:]), rtol=0, atol=0)

    @pytest.mark.parametrize("block_entries", [64, 10**12], ids=["pooled", "inline"])
    def test_reused_chunk_buffer_keeps_fresh_matrix_bits(self, monkeypatch, block_entries):
        # Each chunk is one fresh kernel matrix times the coefficients, then scaled.
        spec = KernelSpec.laplace(3)
        f = make_test_function(spec, n_centers=60, seed=15)
        x = np.random.default_rng(16).random((10_050, 3))
        with kernels._one_blas_thread:  # as the surface's evaluation holds it
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

    @pytest.mark.parametrize("n, m, budget", [(40, 5, 35), (9, 1000, 2500)])
    def test_noise_blocks_keep_the_one_block_bits(self, monkeypatch, n, m, budget):
        # Row-major draws and per-row means do not depend on how many rows a block holds.
        f = make_test_function(KernelSpec.laplace(2), n_centers=5, seed=24)
        x = simulate_outer(n, 2, seed=25)
        whole = simulate_inner(f, x, m, 0.7, seed=26).ybar
        monkeypatch.setattr(synthetic, "_CHUNK_ENTRIES", budget)
        assert -(-n * m // budget) > 2  # several noise blocks
        assert np.array_equal(simulate_inner(f, x, m, 0.7, seed=26).ybar, whole)

    def test_m_validation(self):
        spec = KernelSpec.laplace(2)
        f = make_test_function(spec, n_centers=5, seed=27)
        with pytest.raises(ValueError):
            simulate_inner(f, simulate_outer(5, 2, seed=28), 0, 1.0, seed=29)


class TestTrueTheta:
    @pytest.mark.parametrize("eval_points", [1000, 25_000])
    def test_square_is_mean_of_squares(self, eval_points):
        # The reference draws its points from the seed chunk by chunk: the
        # points of one block.
        f = synthetic.TestFunction(KernelSpec.gaussian(4), np.full((1, 4), 0.5), [3.0])
        oracle = true_theta(f, FunctionalSpec.expectation("square"),
                            eval_points=eval_points, seed=30)
        pts = np.random.default_rng(30).random((eval_points, 4))
        assert oracle.value == np.mean(f(pts) ** 2)

    def test_point_chunks_keep_the_bits(self, monkeypatch):
        # Chunks of a multiple of 4 rows keep the surface's bits and the reference's
        # draws; the last point joins the chunk before it.
        f = make_test_function(KernelSpec.laplace(3), n_centers=50, seed=33)
        x = simulate_outer(10_001, 3, seed=35)
        func = FunctionalSpec.expectation("identity")
        whole = f(x), true_theta(f, func, eval_points=10_001, seed=34).value
        monkeypatch.setattr(synthetic, "_POINT_CHUNK", 1000)
        assert np.array_equal(f(x), whole[0])
        assert true_theta(f, func, eval_points=10_001, seed=34).value == whole[1]

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_holds_one_chunk_at_any_pool_size(self, kernel_pool, monkeypatch, threads):
        # A call holds its output, one chunk of points and its product, and one kernel
        # block per busy pool thread, plus about 2 kB per pool task of bookkeeping.
        # Blocks of 2^18 entries (2 MiB) keep even eight threads' blocks at half of
        # a 32 MiB buffer of kernel rows (4,192 rows of 1,000 centers).
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 2**18)
        kernel_pool(threads)
        f = make_test_function(KernelSpec.laplace(3), n_centers=1000, seed=31)
        func = FunctionalSpec.expectation("square")
        true_theta(f, func, eval_points=1_000, seed=32)  # warm-up: the block pool's first use
        tracemalloc.start()
        try:
            true_theta(f, func, eval_points=100_000, seed=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = synthetic._POINT_CHUNK * (3 + 1) * 8
        blocks = threads * kernels._BLOCK_ENTRIES * 8
        assert peak < chunk + blocks + 100_000 * 8 + 2**21, peak

    def test_median_of_uniform(self):
        # One Laplace center at 0 in d = 1: f(x) = exp(-x), decreasing, so the
        # median of f(U) is exp(-1/2).
        f = synthetic.TestFunction(KernelSpec.laplace(1), [[0.0]], [1.0])
        eval_points = 40_000
        oracle = true_theta(f, FunctionalSpec.value_at_risk(0.5),
                            eval_points=eval_points, seed=31)
        assert abs(oracle.value - math.exp(-0.5)) <= 2.0 / math.sqrt(eval_points)

    @pytest.mark.parametrize("stem", ["standard_rate_d1", "var_ordering_d10"])
    def test_matches_the_closed_form_on_gaussian_surfaces(self, stem):
        # An oracle independent of the kernel code: the exact moments lie within
        # 4 Monte Carlo standard errors, estimated on fresh points, of the reference.
        f = config_test_function(parse_config(CONFIGS / f"{stem}.ini"))
        eval_points = 200_000
        fresh = f(simulate_outer(20_000, f.dim, seed=36))
        for eta, exact in zip(["identity", "square"], gaussian_moments(f)):
            oracle = true_theta(f, FunctionalSpec.expectation(eta), eval_points, seed=35)
            se = resolve_eta(eta)(fresh).std(ddof=1) / math.sqrt(eval_points)
            assert abs(oracle.value - exact) <= 4.0 * se, (eta, oracle.value, exact, se)

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

    @pytest.mark.parametrize("name, load, shape", [
        ("test_function_matern", load_test_function, "5 rows of 4 columns"),
        ("dataset", load_dataset, "6 rows of 3 columns"),
    ])
    def test_committed_v1_file_without_its_last_row_does_not_load(self, name, load, shape,
                                                                  tmp_path):
        lines = (V1_FILES / f"{name}.txt").read_text().splitlines(keepends=True)
        path = tmp_path / "short.txt"
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=shape):
            load(path)

    @pytest.mark.parametrize("name, load", [("test_function_matern", load_test_function),
                                            ("dataset", load_dataset)])
    def test_byte_that_is_not_utf8_names_the_file_and_line(self, name, load, tmp_path):
        source = (V1_FILES / f"{name}.txt").read_bytes()
        path = tmp_path / "latin1.txt"
        path.write_bytes(source + b"0.5 \xff\n")
        line = source.count(b"\n") + 1
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "
                                             "'utf-8' codec can't decode byte 0xff"):
            load(path)

    @pytest.mark.parametrize("first", ["# sievesim nested dataset v10",
                                       "# sievesim nested dataset v1.5",
                                       "garbage sievesim nested dataset v1 trailing"])
    def test_first_line_must_be_the_exact_version_line(self, first, tmp_path):
        lines = (V1_FILES / "dataset.txt").read_text().splitlines(keepends=True)
        path = tmp_path / "other.txt"
        path.write_text("".join([first + "\n", *lines[1:]]))
        with pytest.raises(ValueError, match="not a sievesim nested dataset v1 file") as info:
            load_dataset(path)
        assert str(path) in str(info.value)

    def test_header_dim_must_match_the_columns(self, tmp_path):
        text = (V1_FILES / "dataset.txt").read_text()
        path = tmp_path / "wide.txt"
        path.write_text(text.replace("# dim=2 ", "# dim=1 ", 1))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(path) in str(info.value)
        assert "6 rows of 2 columns" in str(info.value)
        assert "6 rows of 3" in str(info.value)
