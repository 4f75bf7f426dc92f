import hashlib
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sievesim import kernels
from sievesim.estimators import (
    FitError,
    InducingKRREstimator,
    KernelExpansion,
    KRREstimator,
    ReluArchitecture,
    TrainConfig,
    TrainingDiverged,
    cross_validate_regularization,
    default_regularization,
    fit_krr,
    fit_krr_inducing,
    fit_relu_sieve,
    fit_sample_average,
    load_estimator,
    relu_architecture_from_rate,
    save_estimator,
    sparsity_budget,
    unit_count,
)
from sievesim.functionals import FunctionalSpec
from sievesim.kernels import (
    KernelSpec, farthest_point_sample, kernel_matrix, random_subsample, rkhs_norm_sq)
from sievesim.synthetic import (
    eval_f, make_test_function, simulate_inner, simulate_outer, true_theta)


V1_FILES = Path(__file__).parent / "data" / "v1"


def make_data(n=50, d=2, m=1, sigma=0.3, seed=0, family="laplace"):
    spec = (KernelSpec.gaussian(d) if family == "gaussian"
            else KernelSpec.laplace(d))
    f = make_test_function(spec, n_centers=30, seed=seed)
    x = simulate_outer(n, d, seed=seed + 1)
    return spec, f, simulate_inner(f, x, m, sigma, seed=seed + 2)


class TestSampleAverage:
    def test_predicts_ybar_at_scenarios(self):
        _, _, data = make_data(seed=1)
        est = fit_sample_average(data)
        assert_allclose(est.predict(data.scenarios), data.ybar, rtol=0, atol=0)

    def test_nearest_neighbor_off_grid(self):
        _, _, data = make_data(n=20, seed=2)
        est = fit_sample_average(data)
        x = data.scenarios[3] + 1e-6
        assert est.predict(x[None, :])[0] == data.ybar[3]

    def test_noiseless_matches_surface(self):
        _, f, data = make_data(sigma=0.0, seed=3)
        est = fit_sample_average(data)
        assert_allclose(est.predict(data.scenarios), f(data.scenarios),
                        rtol=0, atol=0)

    def test_zero_training_residual(self):
        _, _, data = make_data(seed=4)
        est = fit_sample_average(data)
        assert est.meta.residual_norm == 0.0


class TestKRR:
    def test_huge_lambda_shrinks_to_zero(self):
        spec, _, data = make_data(seed=5)
        est = fit_krr(data, spec, 1e12)
        test_x = simulate_outer(100, 2, seed=6)
        bound = 1e-6 * np.max(np.abs(data.ybar))
        assert np.max(np.abs(est.predict(test_x))) < bound

    def test_zero_lambda_interpolates(self):
        spec, _, data = make_data(seed=7)
        est = fit_krr(data, spec, 0.0, jitter=1e-10)
        assert np.max(np.abs(est.predict(data.scenarios) - data.ybar)) < 1e-6

    def test_alpha_matches_dense_solve_oracle(self):
        # Three fixed points in one dimension; the oracle builds the 3x3
        # system by hand and solves it with plain numpy.
        spec = KernelSpec.gaussian(1)
        x = np.array([[0.1], [0.5], [0.9]])
        ybar = np.array([1.0, -0.4, 0.3])
        from sievesim.synthetic import NestedDataset
        data = NestedDataset(scenarios=x, ybar=ybar, m=1, noise_sigma=0.0,
                             seed=None)
        lam = 0.1
        est = fit_krr(data, spec, lam, jitter=0.0)
        K = np.exp(-((x - x.T) ** 2) / 1.0)
        oracle = np.linalg.solve(K + 3 * lam * np.eye(3), ybar)
        assert_allclose(est.weights, oracle, rtol=1e-10)

    def test_span_recovery(self):
        # Targets built as a kernel expansion over the scenarios themselves
        # are recovered exactly by interpolation, on and off the grid.
        spec = KernelSpec.laplace(2)
        x = simulate_outer(40, 2, seed=8)
        rng = np.random.default_rng(9)
        a = rng.standard_normal(40) * 0.2
        K = kernel_matrix(spec, x, x)
        from sievesim.synthetic import NestedDataset
        data = NestedDataset(scenarios=x, ybar=K @ a, m=1, noise_sigma=0.0,
                             seed=None)
        est = fit_krr(data, spec, 0.0, jitter=0.0)
        fresh = simulate_outer(30, 2, seed=10)
        assert_allclose(est.predict(fresh), kernel_matrix(spec, fresh, x) @ a,
                        atol=1e-6)

    def test_default_regularization(self):
        # Finite smoothness uses n^(-2s/(2s+d)); the Gaussian kernel falls
        # back to 1/n.
        lap = default_regularization(KernelSpec.laplace(10), 1000)
        assert_allclose(lap, 1000.0 ** (-11.0 / 21.0), rtol=1e-14)
        gau = default_regularization(KernelSpec.gaussian(10), 1000)
        assert_allclose(gau, 1e-3, rtol=1e-14)

    def test_cross_validation_lands_in_grid(self):
        spec, _, data = make_data(n=60, seed=11)
        grid = np.logspace(-6, 0, 7)
        lam = cross_validate_regularization(data, spec, grid=grid, seed=12)
        assert lam in grid
        again = cross_validate_regularization(data, spec, grid=grid, seed=12)
        assert lam == again

    def test_singular_system_raises_fit_error(self):
        # Duplicated scenarios with no jitter and no ridge make the gram
        # matrix exactly singular.
        spec = KernelSpec.gaussian(2)
        x = np.tile(np.array([[0.3, 0.7]]), (4, 1))
        from sievesim.synthetic import NestedDataset
        data = NestedDataset(scenarios=x, ybar=np.arange(4.0), m=1,
                             noise_sigma=0.0, seed=None)
        with pytest.raises(FitError):
            fit_krr(data, spec, 0.0, jitter=0.0)

    def test_failure_diagnostic_reads_the_intact_system(self):
        # The all-ones 4x4 gram has eigenvalues {0, 0, 0, 4}; the factor that
        # LAPACK leaves behind after failing in place has others.
        spec = KernelSpec.gaussian(2)
        x = np.tile(np.array([[0.3, 0.7]]), (4, 1))
        from sievesim.synthetic import NestedDataset
        data = NestedDataset(scenarios=x, ybar=np.arange(4.0), m=1,
                             noise_sigma=0.0, seed=None)
        with pytest.raises(FitError, match=r"eigenvalue range \[.*, 4\.000e\+00\]"):
            fit_krr(data, spec, 0.0, jitter=0.0)


    @pytest.mark.parametrize("n", [500, 1001])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_in_place_solve_is_the_copy_based_solve(self, family, n):
        # n = 1001 spans four mirror bands and two factor tiles; n = 500 fits in one
        # tile, whose factor is one LAPACK call.
        spec, _, data = make_data(n=n, d=10, seed=86, family=family)
        lam, jitter = 1e-3, 1e-10
        est = fit_krr(data, spec, lam, jitter=jitter)
        with kernels._one_blas_thread:  # as the fit holds it
            K = kernel_matrix(spec, data.scenarios, data.scenarios)
            system = K.copy(order="F")
            system[np.diag_indices(n)] += jitter
            system[np.diag_indices(n)] += n * lam
            factor = (scipy.linalg.cho_factor(system, lower=True, check_finite=False)[0]
                      if n <= kernels._FACTOR_TILE else kernels._cholesky(system))
            weights = scipy.linalg.cho_solve((factor, True), data.ybar, check_finite=False)
            fitted = K @ weights
        assert np.array_equal(est.weights, weights)
        assert np.array_equal(est.fitted_values, fitted)
        assert np.array_equal(est.fitted_values, est.predict(data.scenarios))

    def test_holds_one_gram(self):
        spec, _, data = make_data(n=1500, d=10, seed=87, family="gaussian")
        fit_krr(make_data(n=600, d=10, seed=87)[2], spec, 1e-3)  # warm-up: the block pool
        tracemalloc.start()
        try:
            fit_krr(data, spec, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = 1500 * 1500 * 8
        assert peak < gram + 8 * 2**20, peak


class TestInducingKRR:
    def test_full_inducing_set_matches_interpolation(self):
        spec, _, data = make_data(n=30, seed=13)
        full = data.scenarios[random_subsample(data.scenarios, 30, seed=14)]
        est = fit_krr_inducing(data, spec, full, ridge=0.0)
        krr = fit_krr(data, spec, 0.0, jitter=1e-10)
        assert_allclose(est.predict(data.scenarios),
                        krr.predict(data.scenarios), atol=1e-6)

    def test_single_inducing_point_closed_form(self):
        spec, _, data = make_data(n=25, seed=15)
        one = data.scenarios[random_subsample(data.scenarios, 1, seed=16)]
        est = fit_krr_inducing(data, spec, one, ridge=0.0)
        k = kernel_matrix(spec, data.scenarios, one)[:, 0]
        assert_allclose(est.weights[0], (k @ data.ybar) / (k @ k), rtol=1e-12)

    def test_beta_matches_least_squares_oracle(self):
        # 50 scenarios, 5 inducing points; the oracle solves the rectangular
        # system directly by QR-based least squares.
        spec, _, data = make_data(n=50, seed=17)
        inducing = data.scenarios[random_subsample(data.scenarios, 5, seed=18)]
        est = fit_krr_inducing(data, spec, inducing, ridge=0.0)
        design = kernel_matrix(spec, data.scenarios, inducing)
        oracle, *_ = np.linalg.lstsq(design, data.ybar, rcond=None)
        assert_allclose(est.weights, oracle, rtol=1e-8)

    def test_default_ridge_scales_with_problem(self):
        spec, _, data = make_data(n=40, seed=19)
        inducing = data.scenarios[random_subsample(data.scenarios, 6, seed=20)]
        est = fit_krr_inducing(data, spec, inducing)
        assert est.regularization > 0.0

    def test_rank_deficient_raises(self):
        # The same inducing point twice makes the normal equations singular.
        spec, _, data = make_data(n=20, seed=21)
        dup = data.scenarios[[2, 2]]
        with pytest.raises(FitError, match="without ridge: rank 1 of 2$"):
            fit_krr_inducing(data, spec, dup, ridge=0.0)


class TestTiledFactor:
    """A system of more than ``kernels._FACTOR_TILE`` rows is factored in tiles on the
    kernel pool."""

    TILE = kernels._FACTOR_TILE

    @pytest.mark.parametrize("n", [1001, 2 * TILE + 1])
    def test_pool_size_keeps_the_bits(self, kernel_pool, n):
        spec, _, data = make_data(n=n, d=10, seed=94, family="gaussian")

        def fits():
            krr = fit_krr(data, spec, 1e-3)
            inducing = fit_krr_inducing(data, spec, data.scenarios[: self.TILE + 88])
            return krr.weights, krr.fitted_values, inducing.weights, inducing.fitted_values

        outputs = []
        for threads in (1, 2, 8):
            kernel_pool(threads)
            outputs.append(fits())
        for other in outputs[1:]:
            for got, want in zip(other, outputs[0]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_agrees_with_one_lapack_call_to_the_condition_number(self, family):
        n = 2 * self.TILE + 1
        spec, _, data = make_data(n=n, d=10, seed=95, family=family)
        lam = 1e-3
        est = fit_krr(data, spec, lam)
        with kernels._one_blas_thread:
            system = kernel_matrix(spec, data.scenarios, data.scenarios)
            system[np.diag_indices(n)] += kernels.DEFAULT_JITTER
            system[np.diag_indices(n)] += n * lam
            eigs = scipy.linalg.eigvalsh(system)
            weights = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(system, lower=True, check_finite=False), data.ybar,
                check_finite=False)
        # A backward-stable solve is accurate to about n * eps * cond, relative.
        tolerance = n * np.finfo(float).eps * eigs[-1] / eigs[0] * np.max(np.abs(weights))
        assert_allclose(est.weights, weights, rtol=0, atol=tolerance)

    def test_failure_past_the_first_tile_leaves_the_gram_whole(self, monkeypatch):
        # The first duplicate of an earlier scenario has a zero pivot, in the second tile.
        spec = KernelSpec.gaussian(10)
        x = simulate_outer(self.TILE + 88, 10, seed=96)
        x = np.vstack([x, x[:300]])
        from sievesim import estimators
        from sievesim.synthetic import NestedDataset
        data = NestedDataset(scenarios=x, ybar=np.arange(len(x), dtype=float), m=1,
                             noise_sigma=0.0, seed=None)
        grams = []

        def keep(*args):
            grams.append(kernel_matrix(*args))
            return grams[-1]

        monkeypatch.setattr(estimators, "kernel_matrix", keep)
        with pytest.raises(FitError, match=r"-th leading minor .*; eigenvalue range \[") as info:
            fit_krr(data, spec, 0.0, jitter=0.0)
        assert int(re.search(r"(\d+)-th leading minor", str(info.value))[1]) > self.TILE
        assert np.array_equal(grams[0], kernel_matrix(spec, x, x))

    @pytest.mark.parametrize("count", [64, TILE + 88])
    def test_inducing_system_is_exactly_symmetric(self, count):
        spec, _, data = make_data(n=1001, d=10, seed=97, family="gaussian")
        design = kernel_matrix(spec, data.scenarios, data.scenarios[:count])
        with kernels._one_blas_thread:  # as fit_krr_inducing holds it
            system = design.T @ design
        assert np.array_equal(system, system.T)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_restored_gram_is_the_kernel_matrix(self, kernel_pool, threads):
        from sievesim.estimators import _krr_system, _restore_gram
        kernel_pool(threads)
        spec, _, data = make_data(n=1001, d=10, seed=98, family="laplace")
        k = kernel_matrix(spec, data.scenarios, data.scenarios)
        diagonal = k.diagonal().copy()
        kernels._cholesky(_krr_system(k, 1e-10, 1.0))
        _restore_gram(k, diagonal)
        assert np.array_equal(k, kernel_matrix(spec, data.scenarios, data.scenarios))


def test_direct_calls_give_the_same_bits_at_one_and_three_blas_threads():
    # Each routine holds BLAS at one thread itself.  Unpinned, each of these results
    # changed its last bits between one and three threads at these sizes on a 2-core host.
    libraries = kernels._openblas_libraries()
    if not libraries:
        pytest.skip("no bundled OpenBLAS to pin")
    spec = KernelSpec.laplace(10)
    surface = make_test_function(spec, n_centers=4002, seed=90)
    points = simulate_outer(2500, 10, seed=91)

    def compute():
        data = simulate_inner(surface, points, 2, 0.5, seed=92)
        krr = fit_krr(data, spec, 1e-3)
        inducing = fit_krr_inducing(data, spec, points[:500])
        return {
            "simulate_inner": data.ybar,
            "fit_krr weights": krr.weights,
            "fit_krr fitted values": krr.fitted_values,
            "fit_krr_inducing weights": inducing.weights,
            "fit_krr_inducing fitted values": inducing.fitted_values,
            "predict": krr.predict(points[::-1]),
            "eval_f": eval_f(surface, points),
            "true_theta": true_theta(surface, FunctionalSpec("nested_expectation", eta="identity"),
                                     eval_points=2500, seed=93).value,
            "rkhs_norm_sq": rkhs_norm_sq(spec, surface.coefficients, surface.centers),
        }

    saved = [get() for get, _ in libraries]
    try:
        runs = []
        for count in (1, 3):
            for _, set_threads in libraries:
                set_threads(count)
            runs.append(compute())
    finally:
        for (_, set_threads), count in zip(libraries, saved):
            set_threads(count)
    assert [get() for get, _ in libraries] == saved
    assert [name for name in runs[0] if not np.array_equal(runs[0][name], runs[1][name])] == []


class TestReluSieve:
    def test_constant_targets_reachable(self):
        """Constant targets train to near-zero loss on the default schedule."""
        from sievesim.synthetic import NestedDataset
        rng = np.random.default_rng(22)
        x = rng.random((64, 2))
        data = NestedDataset(scenarios=x, ybar=np.full(64, 5.0), m=1,
                             noise_sigma=0.0, seed=None)
        est = fit_relu_sieve(data, ReluArchitecture(), TrainConfig(seed=23))
        assert est.meta.residual_norm ** 2 < 1e-4

    def test_overfits_small_smooth_sample(self):
        # 32 noiseless points from a smooth surface; the default network has
        # far more capacity than data, so training drives the loss tiny.
        spec, f, data = make_data(n=32, d=2, sigma=0.0, seed=24)
        est = fit_relu_sieve(data, ReluArchitecture(), TrainConfig(seed=25))
        assert est.meta.residual_norm ** 2 < 1e-3

    def test_divergence_detected(self):
        # An absurd learning rate with no magnitude bound overflows the
        # squared loss to inf within a couple of steps.
        _, _, data = make_data(n=40, seed=26)
        arch = ReluArchitecture(hidden_widths=(8, 8), sparsity=None,
                                max_param=np.inf)
        cfg = TrainConfig(epochs=200, learning_rate=1e80, seed=27)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                fit_relu_sieve(data, arch, cfg)
        assert info.value.iteration >= 1

    def test_fit_far_outside_the_data_range_is_divergence(self):
        # A finite but absurd learning rate keeps the loss finite while the
        # fitted values land orders of magnitude outside the ybar range.
        _, _, data = make_data(n=40, seed=26)
        cfg = TrainConfig(epochs=20, learning_rate=1e6, seed=27)
        with pytest.raises(TrainingDiverged, match="ybar range"):
            fit_relu_sieve(data, ReluArchitecture(hidden_widths=(8, 8)), cfg)

    def test_undertrained_net_on_a_tiny_sample_is_not_divergence(self):
        # n = 2: the ybar range is 0.0186 while a 3-epoch net, still near its
        # initialization, lands 0.237 from the mean.  The range floored at
        # |mean| (0.195) accepts that fit.
        spec = KernelSpec.laplace(1)
        f = make_test_function(spec, n_centers=5, seed=1)
        data = simulate_inner(f, simulate_outer(2, 1, seed=2), 2, 0.1, seed=3)
        est = fit_relu_sieve(data, ReluArchitecture(hidden_widths=(8, 4)),
                             TrainConfig(epochs=3, seed=1))
        assert 0.1 < np.max(np.abs(est.fitted_values - data.ybar.mean())) < 1.0

    def test_spread_is_floored_at_the_inner_noise_scale(self):
        # A centered ybar of range 0.01 from noisy inner averages (sigma 1,
        # m = 4): an untrained net is judged against sigma / sqrt(m) = 0.5.
        from sievesim.synthetic import NestedDataset
        noisy = NestedDataset(scenarios=simulate_outer(4, 2, seed=50),
                              ybar=np.array([-0.005, 0.005, 0.0, 0.001]), m=4, noise_sigma=1.0)
        est = fit_relu_sieve(noisy, ReluArchitecture(hidden_widths=(8, 4)),
                             TrainConfig(epochs=1, seed=51))
        assert np.max(np.abs(est.fitted_values - noisy.ybar.mean())) > 0.1

    def test_constant_zero_ybar_keeps_an_exact_fit(self):
        # sparsity 1 prunes the network to one weight, so it predicts
        # exactly 0: ybar of zeros, whose range and mean are both 0, must
        # accept that fit.
        from sievesim.synthetic import NestedDataset
        flat = NestedDataset(scenarios=simulate_outer(20, 2, seed=40), ybar=np.zeros(20),
                             m=1, noise_sigma=0.0)
        arch = ReluArchitecture(hidden_widths=(4,), sparsity=1, max_param=10.0)
        est = fit_relu_sieve(flat, arch, TrainConfig(epochs=5, seed=1))
        assert np.array_equal(est.fitted_values, flat.ybar)

    def test_parameter_clip_respected(self):
        _, _, data = make_data(n=30, seed=28)
        arch = ReluArchitecture(hidden_widths=(16,), sparsity=None,
                                max_param=0.05)
        est = fit_relu_sieve(data, arch, TrainConfig(epochs=50, seed=29))
        flat = est.network.param_vector()
        assert np.max(np.abs(flat)) <= 0.05 + 1e-12

    def test_sparsity_respected(self):
        _, _, data = make_data(n=30, seed=30)
        arch = ReluArchitecture(hidden_widths=(16, 8), sparsity=40,
                                max_param=100.0)
        est = fit_relu_sieve(data, arch, TrainConfig(epochs=30, seed=31))
        flat = est.network.param_vector()
        assert np.count_nonzero(flat) <= 40

    def test_minibatch_path_runs(self):
        _, _, data = make_data(n=100, seed=32)
        arch = ReluArchitecture(hidden_widths=(16,), sparsity=None,
                                max_param=100.0)
        cfg = TrainConfig(epochs=20, batch_size=32, seed=33)
        est = fit_relu_sieve(data, arch, cfg)
        assert np.isfinite(est.meta.residual_norm)

    def test_deterministic(self):
        _, _, data = make_data(n=40, seed=34)
        arch = ReluArchitecture(hidden_widths=(8,), sparsity=None,
                                max_param=10.0)
        a = fit_relu_sieve(data, arch, TrainConfig(epochs=40, seed=35))
        b = fit_relu_sieve(data, arch, TrainConfig(epochs=40, seed=35))
        assert_allclose(a.network.param_vector(), b.network.param_vector(),
                        rtol=0, atol=0)


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestReluBytes:
    """sha256 pins of two small fits' fitted values and parameters.

    In both, n is not a multiple of the batch, so each epoch runs two batch
    sizes.  The bytes do not depend on the BLAS thread count; CI reruns this
    class under ``OPENBLAS_NUM_THREADS=1``.
    """

    def test_unpruned_fit(self):
        # The default (256, 128) widths; batches of 512 and 188 rows.
        _, _, data = make_data(n=700, d=5, m=2, seed=60)
        est = fit_relu_sieve(data, ReluArchitecture(),
                             TrainConfig(epochs=4, batch_size=512, seed=61))
        assert est.meta.detail["steps"] == 8
        assert _sha256(est.fitted_values) == (
            "a5b0fe5a70dc65bed262fe5214efad9312ea4b80b8b64a49c34e1b70005bd18b")
        assert _sha256(est.network.vector) == (
            "f04eac557722743ce57432c6938e830ba09a3b23c7454f70fa707659c4956a7c")

    def test_pruned_fit(self):
        # sparsity 200 of 385 parameters takes the prune path every step;
        # batches of 64 and 22 rows.
        _, _, data = make_data(n=150, d=2, m=3, seed=62)
        arch = ReluArchitecture(hidden_widths=(24, 12), sparsity=200, max_param=2.0)
        est = fit_relu_sieve(data, arch, TrainConfig(epochs=20, batch_size=64, seed=63))
        assert np.count_nonzero(est.network.vector) == 200
        assert _sha256(est.fitted_values) == (
            "7966964e97b327b4d7e78ea0865a64e71b0a5a4b7c1fb9ce9e16ad583569db0a")
        assert _sha256(est.network.vector) == (
            "6f7eba89bc048caac6a9f50fa755fe356a8ae7bcdf68a108db5ce2a524aa0c45")


class TestReluArchitectureSchedule:
    def test_unit_count_tabulated(self):
        # delta=0.1, d=2, s=2: |delta ln delta|^(-d/s) = (0.1 ln 10)^(-1),
        # about 4.343, so 5 units.
        assert unit_count(0.1, 2, 2.0) == 5

    def test_sparsity_budget_formula(self):
        # H=3, W0=2, N=5: ((3-1)*4 + 1) * 5 = 45.
        assert sparsity_budget(3, 2, 5) == 45

    def test_bound_is_dim_root(self):
        arch = relu_architecture_from_rate(2, 2.0, 0.1)
        assert_allclose(arch.max_param, 5.0 ** 0.5, rtol=1e-14)

    def test_width_scales_with_units(self):
        arch = relu_architecture_from_rate(2, 2.0, 0.1, width_unit=4)
        assert all(w == 4 * 5 for w in arch.hidden_widths)
        assert arch.sparsity == sparsity_budget(arch.depth, 4, 5)

    def test_smaller_delta_costs_more(self):
        small = relu_architecture_from_rate(3, 1.5, 0.05)
        large = relu_architecture_from_rate(3, 1.5, 0.2)
        assert small.parameter_count(3) >= large.parameter_count(3)


# One tiny fit of each kind; relu trains 3 epochs so property tests stay fast.
FITS = {
    "sample_average": lambda data, spec, seed: fit_sample_average(data),
    "krr": lambda data, spec, seed: fit_krr(data, spec, 1e-2),
    "inducing_krr": lambda data, spec, seed: fit_krr_inducing(
        data, spec, data.scenarios[random_subsample(data.scenarios, min(6, data.n), seed=seed)]),
    "relu": lambda data, spec, seed: fit_relu_sieve(
        data, ReluArchitecture(hidden_widths=(8, 4)), TrainConfig(epochs=3, seed=seed)),
}


class TestPredictContract:
    @pytest.mark.parametrize("kind", sorted(FITS))
    def test_empty_input(self, kind):
        spec, _, data = make_data(n=10, seed=36)
        out = FITS[kind](data, spec, 36).predict(np.empty((0, 2)))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_batch_equals_loop(self):
        spec, _, data = make_data(n=25, seed=37)
        est = fit_krr(data, spec, 1e-2)
        x = simulate_outer(7, 2, seed=38)
        loop = np.array([est.predict(x[i][None, :])[0] for i in range(7)])
        assert_allclose(est.predict(x), loop, rtol=1e-13)


class TestKernelExpansionPredict:
    """Fitted kernel expansions predict through the surface's chunk loop."""

    @staticmethod
    def fitted(n=40, d=3):
        spec, _, data = make_data(n=n, d=d, seed=80, family="gaussian")
        return fit_krr(data, spec, 1e-2)

    @pytest.mark.parametrize("rows", [1, 777, 10_000])
    def test_one_chunk_is_the_one_matrix_product(self, rows):
        est = self.fitted()
        x = simulate_outer(rows, 3, seed=81)
        with kernels._one_blas_thread:  # as predict holds it
            want = kernel_matrix(est.kernel, x, est.points) @ est.weights
        assert np.array_equal(est.predict(x), want)

    @pytest.mark.parametrize("width", [40, 1000])
    def test_many_chunks_are_the_one_matrix_product(self, width):
        # Chunks are multiples of 4 rows, which keep the one-thread GEMV's bits.
        spec = KernelSpec.laplace(3)
        rng = np.random.default_rng(88)
        est = KRREstimator(spec, rng.random((width, 3)), rng.standard_normal(width), 0.0, None)
        x = simulate_outer(10_050, 3, seed=89)
        with kernels._one_blas_thread:  # as predict holds it
            want = kernel_matrix(spec, x, est.points) @ est.weights
        assert np.array_equal(est.predict(x), want)

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_pool_size_keeps_the_bits(self, kernel_pool, threads):
        # The pool splits each chunk into kernel blocks, one per thread at a time;
        # eval_f, true_theta and predict have the same bits at any pool size.
        f = make_test_function(KernelSpec.laplace(3), n_centers=1000, seed=90)
        est = KRREstimator(f.kernel, f.centers, f.coefficients, 0.0, None)
        x = simulate_outer(10_050, 3, seed=91)
        func = FunctionalSpec.expectation("square")

        def outputs():
            return (eval_f(f, x), true_theta(f, func, eval_points=10_050, seed=92).value,
                    est.predict(x))

        default = outputs()
        kernel_pool(threads)
        for got, want in zip(outputs(), default):
            assert np.array_equal(got, want)

    def test_many_chunks_are_the_chunk_predicts(self):
        est = self.fitted()
        x = simulate_outer(25_000, 3, seed=82)
        got = est.predict(x)
        chunks = [est.predict(x[i:i + 10_000]) for i in range(0, 25_000, 10_000)]
        assert np.array_equal(got, np.concatenate(chunks))
        assert_allclose(got, kernel_matrix(est.kernel, x, est.points) @ est.weights, rtol=1e-14)

    def test_holds_at_most_one_chunk_of_kernel_rows(self, kernel_pool):
        # 25,000 points are one chunk of ten 2,620-row blocks of 200 columns; the call
        # holds its output, the chunk's product and two blocks at a time.
        kernel_pool(2)
        est = self.fitted(n=200)
        x = simulate_outer(25_000, 3, seed=83)
        est.predict(x[:10])  # warm-up: the kernel block pool's first use
        tracemalloc.start()
        try:
            est.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * kernels._BLOCK_ENTRIES * 8 + 2 * 25_000 * 8 + 2**20, peak

    def test_surface_is_the_scaled_expansion_of_its_centers(self):
        spec = KernelSpec.laplace(2)
        f = make_test_function(spec, n_centers=30, seed=84)
        est = KRREstimator(spec, f.centers, f.coefficients, 0.0, None)
        x = simulate_outer(25_001, 2, seed=85)
        assert np.array_equal(est.predict(x) * (1.0 / 30), f(x))


class TestFittedValues:
    FITS = {
        "sample_average": lambda data, spec: fit_sample_average(data),
        "krr": lambda data, spec: fit_krr(data, spec, 1e-2),
        "inducing_random": lambda data, spec: fit_krr_inducing(
            data, spec, data.scenarios[random_subsample(data.scenarios, 6, seed=44)]),
        "inducing_farthest": lambda data, spec: fit_krr_inducing(
            data, spec, data.scenarios[farthest_point_sample(data.scenarios, 6, seed=44)]),
        "relu": lambda data, spec: fit_relu_sieve(
            data, ReluArchitecture(hidden_widths=(8, 4)), TrainConfig(epochs=3, seed=45)),
    }

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("kind", sorted(FITS))
    def test_bit_identical_to_predict_at_the_scenarios(self, kind, family):
        spec, _, data = make_data(n=40, seed=43, family=family)
        est = self.FITS[kind](data, spec)
        assert np.array_equal(est.fitted_values, est.predict(data.scenarios))

    def test_loaded_estimator_has_none(self, tmp_path):
        spec, _, data = make_data(n=10, seed=46)
        save_estimator(fit_krr(data, spec, 1e-2), tmp_path / "krr.txt")
        assert load_estimator(tmp_path / "krr.txt").fitted_values is None


class TestKernelFitMeta:
    @staticmethod
    def assert_meta(est, data, detail):
        assert (est.meta.n, est.meta.m) == (data.n, data.m)
        assert est.meta.residual_norm == float(
            np.sqrt(np.mean((est.fitted_values - data.ybar) ** 2)))
        assert est.meta.detail == detail

    def test_krr(self):
        spec, _, data = make_data(n=30, m=3, seed=47)
        est = fit_krr(data, spec, 0.05, jitter=1e-9)
        self.assert_meta(est, data, {"jitter": 1e-9})
        assert est.regularization == 0.05

    def test_inducing_default_ridge(self):
        spec, _, data = make_data(n=30, m=2, seed=48)
        points = data.scenarios[:6]
        est = fit_krr_inducing(data, spec, points)
        design = kernel_matrix(spec, data.scenarios, points)
        assert_allclose(est.regularization, 1e-8 * np.trace(design.T @ design) / 6, rtol=1e-12)
        self.assert_meta(est, data, {"inducing_count": 6, "ridge": est.regularization})

    def test_inducing_given_ridge(self):
        spec, _, data = make_data(n=30, seed=49)
        est = fit_krr_inducing(data, spec, data.scenarios[:5], ridge=1e-3)
        self.assert_meta(est, data, {"inducing_count": 5, "ridge": 1e-3})
        assert est.regularization == 1e-3


class TestSerialization:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(sorted(FITS)), n=st.integers(1, 30), d=st.integers(1, 3),
           family=st.sampled_from(["laplace", "gaussian", "matern"]),
           seed=st.integers(0, 2**16))
    def test_round_trips(self, kind, n, d, family, seed):
        # Reloaded estimators predict bit for bit as fitted, and a loaded
        # estimator re-saves to the same bytes.
        spec = KernelSpec.matern(d, 1.5) if family == "matern" else KernelSpec(family, d)
        f = make_test_function(spec, n_centers=5, seed=seed)
        data = simulate_inner(f, simulate_outer(n, d, seed=seed + 1), 2, 1.0, seed=seed + 2)
        est = FITS[kind](data, spec, seed)
        x = simulate_outer(7, d, seed=seed + 3)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "est.txt", Path(tmp) / "again.txt"
            save_estimator(est, path)
            back = load_estimator(path)
            assert back.kind == est.kind
            assert np.array_equal(back.predict(x), est.predict(x))
            save_estimator(back, again)
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", ["sample_average", "krr", "inducing_krr", "relu"])
    def test_committed_v1_file_resaves_byte_identically(self, kind, tmp_path):
        source = V1_FILES / f"{kind}.txt"
        est = load_estimator(source)
        assert est.kind == kind
        save_estimator(est, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("kind, shape", [
        ("sample_average", "6 rows of 3 columns"), ("krr", "6 rows of 3 columns"),
        ("inducing_krr", "3 rows of 3 columns"),
        ("relu", "dim=2 and hidden=4,3 give 31 parameters"),
    ])
    def test_committed_v1_file_without_its_last_row_does_not_load(self, kind, shape, tmp_path):
        lines = (V1_FILES / f"{kind}.txt").read_text().splitlines(keepends=True)
        path = tmp_path / "short.txt"
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{shape}"):
            load_estimator(path)

    @pytest.mark.parametrize("kind", ["sample_average", "krr", "inducing_krr", "relu"])
    def test_byte_that_is_not_utf8_names_the_file_and_line(self, kind, tmp_path):
        source = (V1_FILES / f"{kind}.txt").read_bytes()
        path = tmp_path / "latin1.txt"
        path.write_bytes(source + b"0.5 \xff\n")
        line = source.count(b"\n") + 1
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "
                                             "'utf-8' codec can't decode byte 0xff"):
            load_estimator(path)

    def test_unknown_kind_names_the_file(self, tmp_path):
        path = tmp_path / "spline.txt"
        path.write_text((V1_FILES / "krr.txt").read_text().replace("kind=krr ", "kind=spline ", 1))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: unknown estimator kind 'spline'"):
            load_estimator(path)

    @pytest.mark.parametrize("first", ["# sievesim estimator v10", "# sievesim estimator v1.5",
                                       "garbage sievesim estimator v1 trailing"])
    def test_first_line_must_be_the_exact_version_line(self, first, tmp_path):
        lines = (V1_FILES / "krr.txt").read_text().splitlines(keepends=True)
        path = tmp_path / "other.txt"
        path.write_text("".join([first + "\n", *lines[1:]]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a sievesim"):
            load_estimator(path)

    @pytest.mark.parametrize("field", ["kind=krr ", "family=laplace ", " lam=0.01"])
    def test_header_without_a_needed_field_names_the_file_and_key(self, field, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text((V1_FILES / "krr.txt").read_text().replace(field, "", 1))
        key = field.strip().split("=")[0]
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: the header has no {key}= field"):
            load_estimator(path)

    def test_header_without_rows_names_the_file_and_warns_of_nothing(self, tmp_path):
        path = tmp_path / "header_only.txt"
        path.write_text("".join((V1_FILES / "krr.txt").read_text().splitlines(True)[:3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(path))}: .*the body has 0 rows"):
                load_estimator(path)

    @pytest.mark.parametrize("kind, cls", [("krr", KRREstimator),
                                           ("inducing_krr", InducingKRREstimator)])
    def test_committed_v1_kernel_file_loads_as_its_class(self, kind, cls):
        assert type(load_estimator(V1_FILES / f"{kind}.txt")) is cls
        assert issubclass(cls, KernelExpansion)
