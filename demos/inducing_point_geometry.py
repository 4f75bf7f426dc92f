"""How inducing-point subsets cover the domain, and why coverage matters.

Compares random subsampling against greedy farthest-point selection by
fill distance (the worst gap any domain point sees to its nearest
inducing point), then shows the downstream effect on a small fit.
"""

import numpy as np

from sievesim import (
    KernelSpec,
    farthest_point_sample,
    fill_distance,
    fit_krr_inducing,
    inducing_count_schedule,
    make_test_function,
    random_subsample,
    simulate_inner,
    simulate_outer,
)


def coverage_table(points, sizes, seed):
    print(f"{'S':>5s} {'random fill':>12s} {'greedy fill':>12s}")
    for size in sizes:
        random_fill = fill_distance(points, points[random_subsample(points, size, seed=seed)])
        greedy_fill = fill_distance(points, points[farthest_point_sample(points, size, seed=seed)])
        print(f"{size:>5d} {random_fill:12.4f} {greedy_fill:12.4f}")


def main():
    rng_seed = 21
    points = simulate_outer(2000, 2, seed=rng_seed)
    print("fill distance of subsets of 2000 uniform points in the unit square")
    coverage_table(points, (5, 10, 25, 50, 100), seed=rng_seed)

    print("\nschedules for the subset size as the scenario count grows:")
    print(f"{'n':>7s} {'sqrt(n)':>9s} {'(ln n)^3':>9s}")
    for n in (500, 1000, 4000, 16000):
        sq = inducing_count_schedule("laplace", 2, n)
        lc = inducing_count_schedule("gaussian", 2, n)
        print(f"{n:>7d} {sq:>9d} {lc:>9d}")

    # The fit only sees the kernel sections at the chosen subset. Coverage
    # controls the worst-case approximation bound, but the least-squares
    # solve still regresses on every scenario, so with uniform data a
    # random subset is usually competitive despite its worse fill.
    kernel = KernelSpec.laplace(2)
    surface = make_test_function(kernel, n_centers=200, seed=22)
    data = simulate_inner(surface, points, 1, 0.5, seed=23)
    probe = simulate_outer(4000, 2, seed=24)
    truth = surface(probe)
    print("\nout-of-sample rmse of the inducing fit, 25 points each way:")
    for label, subset in (
        ("random", points[random_subsample(points, 25, seed=25)]),
        ("farthest-point", points[farthest_point_sample(points, 25, seed=25)]),
    ):
        fit = fit_krr_inducing(data, kernel, subset)
        rmse = np.sqrt(np.mean((fit.predict(probe) - truth) ** 2))
        print(f"  {label:>15s}: {rmse:.4f} (fill {fill_distance(points, subset):.4f})")

    print("\nGreedy selection halves the fill distance, yet the random")
    print("subset fits about as well: the regression runs over all the")
    print("scenarios either way, which is why random is the default.")


if __name__ == "__main__":
    main()
