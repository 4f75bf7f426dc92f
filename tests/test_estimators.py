import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
from sievesim.kernels import (
    KernelSpec, farthest_point_sample, kernel_matrix, random_subsample)
from sievesim.synthetic import make_test_function, simulate_inner, simulate_outer


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

    @pytest.mark.parametrize("kind, cls", [("krr", KRREstimator),
                                           ("inducing_krr", InducingKRREstimator)])
    def test_committed_v1_kernel_file_loads_as_its_class(self, kind, cls):
        assert type(load_estimator(V1_FILES / f"{kind}.txt")) is cls
        assert issubclass(cls, KernelExpansion)
