"""Fit every regression sieve on one nested dataset and compare plug-ins.

Builds a 10-dimensional synthetic surface, simulates one outer/inner
dataset, fits the sample average, the full kernel ridge fit, the
inducing-point fit, and the ReLU network on the same data, and reports
how far each plug-in lands from a high-resolution reference value.
"""

import numpy as np

from sievesim import (
    FunctionalSpec,
    KernelSpec,
    ReluArchitecture,
    TrainConfig,
    evaluate_functional,
    fit_krr,
    fit_krr_inducing,
    fit_relu_sieve,
    fit_sample_average,
    inducing_count_schedule,
    make_test_function,
    random_subsample,
    rkhs_norm_sq,
    simulate_inner,
    simulate_outer,
    true_theta,
)


def main():
    kernel = KernelSpec.laplace(10)
    surface = make_test_function(kernel, n_centers=1000, seed=7)
    functional = FunctionalSpec.expectation("square")
    oracle = true_theta(surface, functional, eval_points=500_000, seed=8)
    norm_sq = rkhs_norm_sq(kernel, surface.coefficients, surface.centers)
    print(f"surface: {kernel.family} mixture in d={kernel.dim}, norm^2 = {norm_sq:.5f}")
    print(f"reference second moment: {oracle.value:.6f}\n")

    n = 2000
    scenarios = simulate_outer(n, kernel.dim, seed=9)
    data = simulate_inner(surface, scenarios, 1, 1.0, seed=10)

    count = inducing_count_schedule(kernel.family, kernel.dim, n)
    fits = {
        "sample average": fit_sample_average(data),
        "kernel ridge": fit_krr(data, kernel, 1e-2),
        f"inducing ({count} pts)": fit_krr_inducing(
            data, kernel, scenarios[random_subsample(scenarios, count, seed=11)]),
        "relu network": fit_relu_sieve(
            data, ReluArchitecture(), TrainConfig(epochs=300, batch_size=512, seed=12)),
    }

    truth = surface(scenarios)
    print(f"{'estimator':>20s} {'fit rmse':>10s} {'plug-in':>10s} {'|error|':>10s}")
    for name, est in fits.items():
        pred = est.predict(scenarios)
        rmse = np.sqrt(np.mean((pred - truth) ** 2))
        plug = evaluate_functional(pred, functional)
        print(f"{name:>20s} {rmse:10.4f} {plug:10.4f} "
              f"{abs(plug - oracle.value):10.4f}")

    print("\nThe sample average interpolates the noise (rmse near the noise")
    print("level), while the kernel fits share information across scenarios.")


if __name__ == "__main__":
    main()
