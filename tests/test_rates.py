import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sievesim.rates import (
    RatePrediction,
    allocate,
    inducing_count_schedule,
    predict_gaussian_rkhs_rate,
    predict_relu_rate,
    predict_sobolev_rate,
    predict_var_rate,
)


class TestAllocate:
    def test_exact_cubes(self):
        a = allocate("standard", 1000)
        assert (a.n, a.m) == (100, 10)
        b = allocate("standard", 10 ** 6)
        assert (b.n, b.m) == (10 ** 4, 100)

    def test_non_cube_budget_stays_within_budget(self):
        # 2000^(1/3) rounds up to 13 but 159 * 13 > 2000, so m drops to 12.
        a = allocate("standard", 2000)
        assert (a.n, a.m) == (159, 12)

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(0)
        for budget in rng.integers(8, 10 ** 6, size=200):
            a = allocate("standard", int(budget))
            assert a.n * a.m <= budget
            assert a.n >= 1 and a.m >= 1

    @pytest.mark.parametrize("scheme", ["standard", "smooth"])
    @given(budgets=st.lists(st.integers(8, 200_000), min_size=2, max_size=2))
    def test_within_budget_and_monotone(self, scheme, budgets):
        low, high = (allocate(scheme, b) for b in sorted(budgets))
        for a in (low, high):
            assert a.n >= 1 and a.m >= 1
            assert a.n * a.m <= a.budget
        assert low.n <= high.n

    def test_smooth_scheme(self):
        a = allocate("smooth", 5000)
        assert (a.n, a.m) == (5000, 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            allocate("standard", 4)
        with pytest.raises(ValueError):
            allocate("cubic", 1000)


class TestSobolevRate:
    def test_s_equals_d(self):
        pred = predict_sobolev_rate(3.0, 3)
        assert_allclose(pred.critical_radius.exponent, -1.0 / 3.0, rtol=1e-15)

    def test_low_smoothness_hits_mc_floor(self):
        # s=1, d=1: the squared-radius rate -2/3 is beaten by the n^(-1/2)
        # Monte Carlo floor.
        pred = predict_sobolev_rate(1.0, 1)
        assert_allclose(pred.critical_radius.exponent, -1.0 / 3.0, rtol=1e-15)
        assert_allclose(pred.plugin_error.exponent, -0.5, rtol=1e-15)

    def test_plugin_below_floor_when_rough(self):
        pred = predict_sobolev_rate(0.5, 10)
        assert_allclose(pred.plugin_error.exponent, -2 * 0.5 / (2 * 0.5 + 10),
                        rtol=1e-15)

    def test_rejects_bad_smoothness(self):
        with pytest.raises(ValueError):
            predict_sobolev_rate(0.0, 2)


class TestGaussianRkhsRate:
    def test_parametric_exponent_with_log(self):
        pred = predict_gaussian_rkhs_rate(10)
        assert_allclose(pred.exponent, -0.5, rtol=1e-15)
        assert_allclose(pred.log_power, 5.5, rtol=1e-15)

    def test_evaluate(self):
        pred = predict_gaussian_rkhs_rate(1)
        n = 1000.0
        assert_allclose(pred.evaluate(n), n ** -0.5 * math.log(n), rtol=1e-14)


class TestReluRate:
    def test_tabulated(self):
        assert_allclose(predict_relu_rate(2.0, 2).exponent, -1.0 / 3.0, rtol=1e-15)
        assert_allclose(predict_relu_rate(1.0, 10).exponent, -1.0 / 12.0, rtol=1e-15)

    def test_smooth_limit(self):
        assert predict_relu_rate(1e9, 2).exponent == pytest.approx(-0.5, abs=1e-8)

    def test_requires_s_at_least_one(self):
        with pytest.raises(ValueError):
            predict_relu_rate(0.5, 2)


class TestVarRate:
    def test_identity_law(self):
        base = predict_sobolev_rate(2.0, 2).plugin_error
        out = predict_var_rate(base, 1.0, 1.0, 1.0)
        assert out.exponent == base.exponent
        assert out.log_power == base.log_power

    def test_kappa_scales_exponent(self):
        base = RatePrediction(sieve="x", exponent=-0.4, log_power=2.0,
                              description="")
        out = predict_var_rate(base, 0.5, 1.0, 1.0)
        # kappa = 0.5 * 1 / 1; scaled exponent -0.2 beats the -0.5 floor.
        assert_allclose(out.exponent, -0.2, rtol=1e-15)
        assert_allclose(out.log_power, 1.0, rtol=1e-15)

    def test_order_statistic_floor(self):
        # A very fast base rate is capped by the quantile's own n^(-1/(2*gamma))
        # fluctuation, which carries no log factor.
        base = RatePrediction(sieve="x", exponent=-0.8, log_power=1.0,
                              description="")
        out = predict_var_rate(base, 1.0, 1.0, 1.0)
        assert_allclose(out.exponent, -0.5, rtol=1e-15)
        assert out.log_power == 0.0

    def test_constraint_validation(self):
        base = predict_gaussian_rkhs_rate(2)
        for alpha, beta, gamma in ((0.0, 1.0, 1.0), (1.5, 1.0, 1.0),
                                   (1.0, 0.0, 1.0), (1.0, 1.2, 1.3),
                                   (1.0, 1.0, 0.9), (1.0, 0.8, 0.7)):
            with pytest.raises(ValueError):
                predict_var_rate(base, alpha, beta, gamma)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_raises(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            predict_var_rate(predict_gaussian_rkhs_rate(10), 0.5, 0.5, gamma)


class TestInducingSchedule:
    def test_experiment_gaussian_cube_of_log(self):
        n = int(round(math.e ** 2))
        # ln(round(e^2)) is a hair above 2; the integer-slack ceiling keeps 8.
        assert inducing_count_schedule("gaussian", 5, n, mode="experiment") == 8

    def test_experiment_laplace_sqrt(self):
        for n, want in ((500, 23), (1000, 32), (2000, 45), (4000, 64),
                        (4900, 70)):
            got = inducing_count_schedule("laplace", 10, n, mode="experiment")
            assert got == want

    def test_experiment_gaussian_acceptance_sizes(self):
        for n, want in ((1000, 330), (2000, 440), (4000, 571)):
            got = inducing_count_schedule("gaussian", 10, n, mode="experiment")
            assert got == want

    def test_theory_matern(self):
        # s = d (nu = d/2) makes the exponent d/(2s+d) = 1/3.
        assert inducing_count_schedule("matern", 4, 1000, s=4.0,
                                       mode="theory") == 10

    def test_theory_gaussian_log_power(self):
        # (ln n)^(d/2): near e^4 the d=4 count is (about 4)^2 = 16 and the
        # d=2 count is just above ln n.
        assert inducing_count_schedule("gaussian", 4, 54, mode="theory") == 16
        assert inducing_count_schedule("gaussian", 2, 1000, mode="theory") == 7

    def test_theory_needs_smoothness(self):
        with pytest.raises(ValueError):
            inducing_count_schedule("matern", 4, 1000, mode="theory")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            inducing_count_schedule("laplace", 2, 100, s=1.5, mode="table")


class TestRatePrediction:
    def test_rejects_positive_exponent(self):
        with pytest.raises(ValueError):
            RatePrediction(sieve="x", exponent=0.1, log_power=0.0, description="")

    def test_evaluate_power_law(self):
        pred = RatePrediction(sieve="x", exponent=-0.5, log_power=0.0,
                              description="")
        assert_allclose(pred.evaluate(10_000.0), 0.01, rtol=1e-14)
