import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sievesim.functionals import (
    FunctionalSpec,
    evaluate_functional,
    nested_expectation,
    resolve_eta,
    var_estimate,
)


class TestResolveEta:
    def test_named(self):
        assert resolve_eta("square")(3.0) == 9.0
        assert resolve_eta("identity")(3.0) == 3.0

    def test_callable_passthrough(self):
        f = lambda z: z + 1
        assert resolve_eta(f) is f

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="exp_clipped"):
            resolve_eta("cube")

    def test_exp_is_clipped(self):
        eta = resolve_eta("exp_clipped")
        assert np.isfinite(eta(np.array([1e6]))).all()
        assert_allclose(eta(np.array([0.0, 1.0])), [1.0, np.e])


class TestNestedExpectation:
    def test_constant_square(self):
        assert nested_expectation(np.array([2.0, 2.0, 2.0]), "square") == 4.0

    def test_identity_is_mean(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(100)
        assert_allclose(nested_expectation(v, "identity"), v.mean(), rtol=1e-15)

    def test_matches_two_pass_oracle(self):
        # Independent summation order: square first via fsum, then divide.
        rng = np.random.default_rng(1)
        v = rng.standard_normal(1000)
        oracle = math.fsum(float(x) * float(x) for x in v) / 1000.0
        assert_allclose(nested_expectation(v, "square"), oracle, rtol=1e-12)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            nested_expectation(np.array([]), "square")
        with pytest.raises(ValueError):
            nested_expectation(np.array([1.0, np.nan]), "square")


class TestVarEstimate:
    def test_small_example(self):
        # tau*n = 2 picks the 2nd smallest of (4, 1, 3, 2).
        assert var_estimate(np.array([4.0, 1.0, 3.0, 2.0]), 0.5) == 2.0

    def test_ceiling_index(self):
        # tau=0.99 with n=100 gives index ceil(99) = 99: second largest.
        v = np.arange(1.0, 101.0)
        assert var_estimate(v, 0.99) == 99.0

    def test_float_index_does_not_overshoot(self):
        # 0.95 * 10000 evaluates to 9500.000000000002 in floating point;
        # the index must still be 9500, not 9501.
        v = np.arange(1.0, 10_001.0)
        assert var_estimate(v, 0.95) == 9500.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(10_000)
        k = math.ceil(0.95 * len(v) - 1e-9)
        oracle = np.sort(v)[k - 1]
        assert var_estimate(v, 0.95) == oracle

    def test_extremes(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(50)
        assert var_estimate(v, 1.0 - 1e-12) == v.max()
        assert var_estimate(v, 1e-9) == v.min()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300),
           st.integers(1, 99))
    def test_any_values_match_a_full_sort(self, values, k):
        v = np.array(values)
        index = -(-k * v.size // 100) - 1  # ceil(k * n / 100) - 1 in integers
        assert var_estimate(v, k / 100) == np.sort(v)[index]

    @given(st.integers(1, 200_000), st.integers(1, 99))
    def test_index_is_the_integer_ceiling_at_any_n(self, n, k):
        v = np.random.default_rng(n).permutation(n).astype(float)
        assert var_estimate(v, k / 100) == -(-k * n // 100) - 1

    def test_tau_validation(self):
        v = np.ones(3)
        for tau in (0.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValueError):
                var_estimate(v, tau)


class TestFunctionalSpec:
    def test_expectation_kind(self):
        spec = FunctionalSpec.expectation("square")
        assert spec.kind == "nested_expectation"
        assert evaluate_functional(np.array([1.0, 3.0]), spec) == 5.0

    def test_var_kind(self):
        spec = FunctionalSpec.value_at_risk(0.5)
        assert evaluate_functional(np.array([4.0, 1.0, 3.0, 2.0]), spec) == 2.0

    def test_var_requires_valid_tau(self):
        with pytest.raises(ValueError):
            FunctionalSpec.value_at_risk(0.0)

    def test_constant_predictions_var_is_constant(self):
        spec = FunctionalSpec.value_at_risk(0.73)
        assert evaluate_functional(np.full(17, 5.0), spec) == 5.0

    def test_eta_defaults_to_square_on_expectation_only(self):
        assert FunctionalSpec("nested_expectation").eta == "square"
        assert FunctionalSpec.expectation() == FunctionalSpec.expectation("square")
        assert FunctionalSpec.value_at_risk(0.9).eta is None

    @pytest.mark.parametrize("kind, params, key", [
        ("var", {"tau": 0.9, "eta": "bogus"}, "eta"),
        ("var", {"tau": 0.9, "eta": "square"}, "eta"),
        ("nested_expectation", {"tau": 0.9}, "tau"),
        ("nested_expectation", {"eta": "identity", "tau": 0.5}, "tau"),
    ])
    def test_parameter_the_kind_does_not_read_is_rejected(self, kind, params, key):
        with pytest.raises(ValueError, match=f"reads no {key}"):
            FunctionalSpec(kind, **params)
