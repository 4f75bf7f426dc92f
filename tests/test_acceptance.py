"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (collected again in the terminal
summary) and asserts the criterion it covers:

1. sample-average sweep under the standard budget split reproduces the
   budget^(-1/3) error decay;
2. the sqrt-schedule inducing-point fit at m=1 reproduces the faster
   budget^(-1/2) decay and beats the standard split at a matched budget;
3. value-at-risk error ordering across estimators on a smooth surface;
4. estimator coefficients match independent linear-algebra oracles;
5. gradient, positive-semidefiniteness, and interpolation checks;
6. rate predictors match hand-evaluated formulas exactly;
7. repeat runs of the criterion-2 config emit byte-identical CSVs.

Criteria 1-3 rerun their shipped configs from configs/, so this module
takes several minutes. Everything is seeded. Each sweep fits its cells on one
worker (the default), while kernel matrices fill their row blocks on every
usable CPU; the bytes do not depend on either count.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import record_criterion

from sievesim import harness
from sievesim.estimators import fit_krr, fit_krr_inducing
from sievesim.functionals import var_estimate
from sievesim.harness import emit_results, parse_config, run_experiment
from sievesim.kernels import (
    KernelSpec,
    eval_kernel,
    farthest_point_sample,
    fill_distance,
    gram,
    kernel_matrix,
    random_subsample,
    rkhs_norm_sq,
)
from sievesim.network import ReluNetwork
from sievesim.rates import (
    RatePrediction,
    allocate,
    inducing_count_schedule,
    predict_gaussian_rkhs_rate,
    predict_relu_rate,
    predict_sobolev_rate,
    predict_var_rate,
)
from sievesim.synthetic import NestedDataset, make_test_function, simulate_inner, simulate_outer
from sievesim.estimators import relu_architecture_from_rate, sparsity_budget, unit_count

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def timed_run(name):
    config = parse_config(CONFIGS / name)
    start = time.perf_counter()
    result = run_experiment(config)
    return config, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def standard_rate_run():
    return timed_run("standard_rate_d1.ini")


@pytest.fixture(scope="module")
def inducing_rate_run():
    return timed_run("inducing_sqrt_rate_d10.ini")


@pytest.fixture(scope="module")
def matched_budget_reference_run():
    return timed_run("standard_rate_d10_reference.ini")


@pytest.fixture(scope="module")
def var_ordering_run():
    return timed_run("var_ordering_d10.ini")


@pytest.fixture(scope="module")
def var_relu_run():
    return timed_run("var_relu_network_d10.ini")


def test_criterion_1_standard_rate(standard_rate_run):
    _, result, elapsed = standard_rate_run
    slope = result.get_slope("sample_average").slope
    ok = -0.45 <= slope <= -0.22 and elapsed < 300.0
    record_criterion(
        1, ok,
        f"standard-split slope {slope:+.4f} (window [-0.45, -0.22]), "
        f"{elapsed:.0f}s of 300s")
    assert -0.45 <= slope <= -0.22
    assert elapsed < 300.0


def test_criterion_2_inducing_rate(inducing_rate_run, matched_budget_reference_run):
    _, sweep, sweep_s = inducing_rate_run
    _, reference, ref_s = matched_budget_reference_run
    slope = sweep.get_slope("inducing_krr").slope
    inducing_err = sweep.get_cell("inducing_krr", 4000).mean_abs_error
    sa_cell = reference.cells[0]
    elapsed = sweep_s + ref_s
    ok = slope <= -0.35 and inducing_err < sa_cell.mean_abs_error and elapsed < 900.0
    record_criterion(
        2, ok,
        f"inducing slope {slope:+.4f} (need <= -0.35); error at n=4000 "
        f"{inducing_err:.4f} vs standard-split {sa_cell.mean_abs_error:.4f} "
        f"at budget 4000; {elapsed:.0f}s of 900s")
    assert slope <= -0.35
    assert inducing_err < sa_cell.mean_abs_error
    assert elapsed < 900.0


def test_criterion_3_var_ordering(var_ordering_run, var_relu_run):
    _, kernel_fits, _ = var_ordering_run
    _, relu_fit, _ = var_relu_run
    ratios = {}
    for n in (1000, 2000, 4000):
        krr = kernel_fits.get_cell("krr", n).mean_abs_error
        ind = kernel_fits.get_cell("inducing_krr", n).mean_abs_error
        ratios[n] = ind / krr
    ordering_ok = all(r <= 1.1 for r in ratios.values())
    relu_err = relu_fit.get_cell("relu", 4000).mean_abs_error
    rivals = (kernel_fits.get_cell("krr", 4000).mean_abs_error,
              kernel_fits.get_cell("inducing_krr", 4000).mean_abs_error)
    relu_worst = relu_err > max(rivals)
    ratio_text = "/".join(f"{ratios[n]:.2f}" for n in (1000, 2000, 4000))
    record_criterion(
        3, ordering_ok and relu_worst,
        f"inducing/krr error ratios {ratio_text} (need <= 1.10 at every n); "
        f"relu worst at n=4000: {'yes' if relu_worst else 'no'} "
        f"({relu_err:.3f} vs best rival {min(rivals):.3f})")
    assert relu_worst
    # Known shortfall: with the documented defaults (lambda = 1/n for the
    # smooth-kernel fit, ridge-free inducing least squares) the full fit
    # smooths the inner noise far harder than the S_n-dimensional least
    # squares, and the 95% quantile amplifies that gap.  The measured
    # ratios sit near 2-3x, not within 1.1x.
    assert ordering_ok, f"inducing/krr ratios {ratio_text} exceed 1.1"


def test_criterion_4_oracle_equivalences():
    tol_notes = []

    # KRR coefficients against a dense solve.
    spec = KernelSpec.gaussian(1)
    x = np.array([[0.1], [0.5], [0.9]])
    ybar = np.array([1.0, -0.4, 0.3])
    data = NestedDataset(scenarios=x, ybar=ybar, m=1, noise_sigma=0.0, seed=None)
    est = fit_krr(data, spec, 0.1, jitter=0.0)
    K = np.exp(-((x - x.T) ** 2) / 1.0)
    alpha = np.linalg.solve(K + 3 * 0.1 * np.eye(3), ybar)
    krr_ok = np.allclose(est.weights, alpha, rtol=1e-10, atol=0)
    tol_notes.append(f"krr-vs-solve {'ok' if krr_ok else 'BAD'}")

    # Inducing-point coefficients against QR least squares.
    spec2 = KernelSpec.laplace(2)
    f = make_test_function(spec2, n_centers=30, seed=100)
    scen = simulate_outer(50, 2, seed=101)
    data2 = simulate_inner(f, scen, 1, 0.3, seed=102)
    inducing = scen[random_subsample(scen, 5, seed=103)]
    est2 = fit_krr_inducing(data2, spec2, inducing, ridge=0.0)
    design = kernel_matrix(spec2, scen, inducing)
    beta, *_ = np.linalg.lstsq(design, data2.ybar, rcond=None)
    ind_ok = np.allclose(est2.weights, beta, rtol=1e-8, atol=0)
    tol_notes.append(f"inducing-vs-lstsq {'ok' if ind_ok else 'BAD'}")

    # Value-at-risk against a full sort.
    rng = np.random.default_rng(104)
    v = rng.standard_normal(10_000)
    k = math.ceil(0.95 * len(v) - 1e-9)
    var_ok = var_estimate(v, 0.95) == np.sort(v)[k - 1]
    tol_notes.append(f"var-vs-sort {'ok' if var_ok else 'BAD'}")

    # Norm against an explicit double loop.
    U = rng.random((3, 4))
    c = rng.standard_normal(3)
    spec3 = KernelSpec.matern(4, nu=1.5)
    direct = sum(c[i] * c[j] * eval_kernel(spec3, U[i], U[j])
                 for i in range(3) for j in range(3)) / 9.0
    got = rkhs_norm_sq(spec3, c, U)
    norm_ok = abs(got - direct) <= 1e-12 * abs(direct)
    tol_notes.append(f"norm-vs-loop {'ok' if norm_ok else 'BAD'}")

    # Fill distance against brute force.
    cands = rng.random((100, 2))
    sel = cands[farthest_point_sample(cands, 10, seed=105)]
    brute = max(min(float(np.linalg.norm(p - s)) for s in sel) for p in cands)
    fill_ok = fill_distance(cands, sel) == brute
    tol_notes.append(f"fill-vs-brute {'ok' if fill_ok else 'BAD'}")

    ok = krr_ok and ind_ok and var_ok and norm_ok and fill_ok
    record_criterion(4, ok, "; ".join(tol_notes))
    assert ok


def test_criterion_5_numerical_checks():
    # Loss gradient against central finite differences on 20 coordinates.
    net = ReluNetwork([3, 16, 8, 1], seed=106)
    rng = np.random.default_rng(107)
    x = rng.random((40, 3))
    y = rng.standard_normal(40)
    _, flat = net.loss_and_grad(x, y)
    theta = net.param_vector()
    worst = 0.0
    for index in rng.choice(net.num_params, size=20, replace=False):
        bump = theta.copy()
        bump[index] += 1e-5
        net.set_param_vector(bump)
        up = net.loss(x, y)
        bump[index] -= 2e-5
        net.set_param_vector(bump)
        down = net.loss(x, y)
        net.set_param_vector(theta)
        fd = (up - down) / 2e-5
        worst = max(worst, abs(flat[index] - fd) / max(abs(fd), 1e-8))
    grad_ok = worst < 1e-4

    # Gram positive semidefiniteness at n <= 50.
    pts = rng.random((50, 3))
    min_eig = min(
        np.linalg.eigvalsh(gram(spec, pts, jitter=0.0)).min()
        for spec in (KernelSpec.laplace(3), KernelSpec.gaussian(3),
                     KernelSpec.matern(3, nu=2.5)))
    psd_ok = min_eig >= -1e-8

    # Interpolation at lambda = 0.
    spec = KernelSpec.laplace(2)
    f = make_test_function(spec, n_centers=20, seed=108)
    scen = simulate_outer(40, 2, seed=109)
    data = simulate_inner(f, scen, 1, 0.5, seed=110)
    est = fit_krr(data, spec, 0.0, jitter=1e-10)
    resid = np.max(np.abs(est.predict(scen) - data.ybar))
    interp_ok = resid < 1e-6

    ok = grad_ok and psd_ok and interp_ok
    record_criterion(
        5, ok,
        f"gradient-fd rel err {worst:.2e} (< 1e-4); min gram eig "
        f"{min_eig:+.2e} (>= -1e-8); interpolation resid {resid:.2e} (< 1e-6)")
    assert ok


def test_criterion_6_rate_formula_exactness():
    checks = []

    def exact(tag, got, want, tol=1e-12):
        checks.append((tag, abs(got - want) <= tol))

    a = allocate("standard", 1000)
    checks.append(("alloc-1e3", (a.n, a.m) == (100, 10)))
    b = allocate("standard", 10 ** 6)
    checks.append(("alloc-1e6", (b.n, b.m) == (10 ** 4, 100)))

    sob = predict_sobolev_rate(3.0, 3)
    exact("sobolev-radius", sob.critical_radius.exponent, -1.0 / 3.0)
    sob2 = predict_sobolev_rate(1.0, 1)
    exact("sobolev-theta", sob2.plugin_error.exponent, -0.5)

    gau = predict_gaussian_rkhs_rate(10)
    exact("gaussian-exp", gau.exponent, -0.5)
    exact("gaussian-log", gau.log_power, 5.5)

    exact("relu-2-2", predict_relu_rate(2.0, 2).exponent, -1.0 / 3.0)
    exact("relu-1-10", predict_relu_rate(1.0, 10).exponent, -1.0 / 12.0)

    identity = predict_var_rate(gau, 1.0, 1.0, 1.0)
    checks.append(("var-identity", identity.exponent == gau.exponent
                   and identity.log_power == gau.log_power))
    scaled = predict_var_rate(
        RatePrediction(sieve="x", exponent=-0.4, log_power=2.0, description=""),
        0.5, 1.0, 1.0)
    exact("var-kappa", scaled.exponent, -0.2)
    exact("var-kappa-log", scaled.log_power, 1.0)

    checks.append(("schedule-sqrt",
                   inducing_count_schedule("laplace", 10, 4900) == 70))
    checks.append(("schedule-logcube",
                   inducing_count_schedule("gaussian", 10, 1000) == 330))
    checks.append(("schedule-theory",
                   inducing_count_schedule("matern", 4, 1000, s=4.0,
                                           mode="theory") == 10))

    checks.append(("relu-units", unit_count(0.1, 2, 2.0) == 5))
    checks.append(("relu-sparsity", sparsity_budget(3, 2, 5) == 45))
    arch = relu_architecture_from_rate(2, 2.0, 0.1)
    exact("relu-bound", arch.max_param, 5.0 ** 0.5)

    failed = [tag for tag, ok in checks if not ok]
    record_criterion(
        6, not failed,
        f"{len(checks)} formula checks at 1e-12"
        + (f"; failed: {failed}" if failed else ""))
    assert not failed


def test_criterion_7_determinism(inducing_rate_run, tmp_path):
    config, first, _ = inducing_rate_run
    # The rerun builds the surface and computes the reference afresh too.
    harness._test_function.cache_clear()
    harness._theta.cache_clear()
    second = run_experiment(config)
    a = emit_results(first, fmt="csv", path=tmp_path / "a.csv")
    b = emit_results(second, fmt="csv", path=tmp_path / "b.csv")
    same_cells = a[0].read_bytes() == b[0].read_bytes()
    same_slopes = a[1].read_bytes() == b[1].read_bytes()
    ok = same_cells and same_slopes
    record_criterion(
        7, ok,
        "repeat run of the inducing-rate config emits byte-identical "
        f"CSVs: cells {'yes' if same_cells else 'NO'}, "
        f"slopes {'yes' if same_slopes else 'NO'}")
    assert ok
