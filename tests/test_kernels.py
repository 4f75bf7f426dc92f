import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

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


def brute_fill_distance(candidates, selected):
    """O(candidates x selected) double loop, no vectorization."""
    worst = 0.0
    for x in candidates:
        best = min(float(np.linalg.norm(x - s)) for s in selected)
        worst = max(worst, best)
    return worst


class TestKernelSpec:
    def test_families(self):
        assert KernelSpec.laplace(3).family == "laplace"
        assert KernelSpec.gaussian(3).family == "gaussian"
        assert KernelSpec.matern(3, nu=1.5).nu == 1.5

    def test_matern_needs_nu(self):
        with pytest.raises(ValueError):
            KernelSpec("matern", 3)
        with pytest.raises(ValueError):
            KernelSpec.matern(3, nu=2.0)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            KernelSpec.laplace(0)

    def test_smoothness(self):
        # s = nu + d/2, with the Laplace kernel at nu = 1/2 and no finite
        # value for the Gaussian.
        assert KernelSpec.laplace(10).smoothness == pytest.approx(5.5)
        assert KernelSpec.matern(4, nu=2.5).smoothness == pytest.approx(4.5)
        assert KernelSpec.gaussian(10).smoothness is None


class TestEvalKernel:
    def test_diagonal_is_one(self):
        x = np.full(10, 0.3)
        for spec in (KernelSpec.laplace(10), KernelSpec.gaussian(10),
                     KernelSpec.matern(10, nu=1.5)):
            assert eval_kernel(spec, x, x) == pytest.approx(1.0)

    def test_gaussian_unit_exponent(self):
        # squared distance 10 in dimension 10 gives exponent -1.
        x = np.zeros(10)
        y = np.zeros(10)
        y[0] = np.sqrt(10.0)
        assert_allclose(eval_kernel(KernelSpec.gaussian(10), x, y),
                        np.exp(-1.0), rtol=1e-15)

    def test_laplace_unit_distance(self):
        assert_allclose(
            eval_kernel(KernelSpec.laplace(2), np.zeros(2), np.array([0.6, 0.8])),
            np.exp(-0.5), rtol=1e-15)

    def test_matern_half_matches_exponential(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(4), rng.random(4)
        r = np.linalg.norm(a - b)
        spec = KernelSpec.matern(4, nu=0.5, lengthscale=1.0)
        assert_allclose(eval_kernel(spec, a, b), np.exp(-r), rtol=1e-14)

    def test_matern_closed_forms(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(3), rng.random(3)
        r = np.linalg.norm(a - b) / 0.7
        t3 = np.sqrt(3.0) * r
        t5 = np.sqrt(5.0) * r
        assert_allclose(eval_kernel(KernelSpec.matern(3, nu=1.5, lengthscale=0.7), a, b),
                        (1 + t3) * np.exp(-t3), rtol=1e-14)
        assert_allclose(eval_kernel(KernelSpec.matern(3, nu=2.5, lengthscale=0.7), a, b),
                        (1 + t5 + t5 ** 2 / 3.0) * np.exp(-t5), rtol=1e-14)


class TestGram:
    def test_single_point(self):
        g = gram(KernelSpec.gaussian(2), np.array([[0.2, 0.9]]), jitter=1e-10)
        assert_allclose(g, [[1.0 + 1e-10]], rtol=0, atol=1e-16)

    def test_psd(self):
        rng = np.random.default_rng(3)
        pts = rng.random((5, 4))
        g = gram(KernelSpec.gaussian(4), pts, jitter=0.0)
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_cross_matches_elementwise(self):
        rng = np.random.default_rng(4)
        a = rng.random((3, 5))
        b = rng.random((2, 5))
        for spec in (KernelSpec.laplace(5), KernelSpec.gaussian(5),
                     KernelSpec.matern(5, nu=2.5)):
            k = kernel_matrix(spec, a, b)
            assert k.shape == (3, 2)
            for i in range(3):
                for j in range(2):
                    assert_allclose(k[i, j], eval_kernel(spec, a[i], b[j]),
                                    rtol=1e-13)

    @pytest.mark.parametrize("family,metric", [("laplace", "euclidean"),
                                               ("gaussian", "sqeuclidean")])
    def test_in_place_kernels_keep_the_out_of_place_bits(self, family, metric):
        rng = np.random.default_rng(7)
        a = rng.random((37, 6))
        b = rng.random((23, 6))
        k = kernel_matrix(KernelSpec(family, 6), a, b)
        assert np.array_equal(k, np.exp(-cdist(a, b, metric) / 6))
        assert k.flags.c_contiguous and k.flags.owndata

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        pts = rng.random((20, 3))
        g = gram(KernelSpec.laplace(3), pts, jitter=0.0)
        assert_allclose(g, g.T, rtol=0, atol=0)

    @pytest.mark.parametrize("spec", [
        KernelSpec.laplace(4), KernelSpec.gaussian(4), KernelSpec.matern(4, nu=0.5),
        KernelSpec.matern(4, nu=1.5), KernelSpec.matern(4, nu=2.5),
    ], ids=lambda spec: f"{spec.family}-{spec.nu}")
    def test_self_kernel_matrix_is_symmetric_bit_for_bit(self, spec):
        # (a - b)**2 == (b - a)**2 exactly, so K(X, X) equals its transpose;
        # the KRR solve copies K.T in Fortran order, a straight memcpy, for K.
        pts = np.random.default_rng(8).random((61, 4))
        k = kernel_matrix(spec, pts, pts)
        assert np.array_equal(k, k.T)

    def test_jitter_on_diagonal_only(self):
        rng = np.random.default_rng(6)
        pts = rng.random((8, 2))
        spec = KernelSpec.gaussian(2)
        plain = gram(spec, pts, jitter=0.0)
        jittered = gram(spec, pts, jitter=1e-6)
        assert_allclose(jittered - plain, 1e-6 * np.eye(8), atol=1e-18)


class TestRkhsNorm:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(7)
        U = rng.random((4, 2))
        assert rkhs_norm_sq(KernelSpec.laplace(2), np.zeros(4), U) == 0.0

    def test_single_term(self):
        # ||(1/N) sum c_i k(., U_i)||^2 = c^T K c / N^2; one center with
        # c = 2 gives 4 * k(U, U) = 4.
        U = np.array([[0.5, 0.5]])
        out = rkhs_norm_sq(KernelSpec.gaussian(2), np.array([2.0]), U)
        assert_allclose(out, 4.0, rtol=1e-15)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        U = rng.random((3, 6))
        c = rng.standard_normal(3)
        spec = KernelSpec.matern(6, nu=1.5)
        direct = sum(
            c[i] * c[j] * eval_kernel(spec, U[i], U[j])
            for i in range(3) for j in range(3)
        ) / 9.0
        assert_allclose(rkhs_norm_sq(spec, c, U), direct, rtol=1e-12)


class TestFillDistance:
    def test_grid_against_midpoints(self):
        candidates = np.linspace(0.0, 1.0, 101)[:, None]
        selected = np.array([[0.25], [0.75]])
        assert fill_distance(candidates, selected) == pytest.approx(0.25)

    def test_zero_when_selected_everything(self):
        rng = np.random.default_rng(9)
        pts = rng.random((30, 2))
        assert fill_distance(pts, pts) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        candidates = rng.random((100, 2))
        selected = candidates[farthest_point_sample(candidates, 10, seed=11)]
        assert_allclose(fill_distance(candidates, selected),
                        brute_fill_distance(candidates, selected), rtol=1e-14)


class TestFarthestPointSample:
    def test_all_points(self):
        rng = np.random.default_rng(12)
        pts = rng.random((7, 3))
        sel = farthest_point_sample(pts, 7, seed=0)
        assert sorted(sel.tolist()) == list(range(7))

    def test_single_point_is_seeded_start(self):
        rng = np.random.default_rng(13)
        pts = rng.random((10, 2))
        a = farthest_point_sample(pts, 1, seed=99)
        b = farthest_point_sample(pts, 1, seed=99)
        assert a.tolist() == b.tolist()
        assert len(a) == 1

    def test_coverage_bound(self):
        """Greedy selection of 25 from 1000 uniform points covers the square.

        The 2.0 constant was calibrated once against brute-force fill
        distances on uniform samples and is kept as a regression bound.
        """
        rng = np.random.default_rng(14)
        candidates = rng.random((1000, 2))
        sel = farthest_point_sample(candidates, 25, seed=15)
        assert fill_distance(candidates, candidates[sel]) <= 2.0 * 25 ** -0.5

    def test_beats_random_coverage(self):
        rng = np.random.default_rng(16)
        candidates = rng.random((500, 2))
        greedy = farthest_point_sample(candidates, 20, seed=17)
        random = random_subsample(candidates, 20, seed=17)
        assert (fill_distance(candidates, candidates[greedy])
                <= fill_distance(candidates, candidates[random]))


class TestRandomSubsample:
    def test_full_size_is_permutation(self):
        rng = np.random.default_rng(18)
        pts = rng.random((9, 2))
        sel = random_subsample(pts, 9, seed=1)
        assert sorted(sel.tolist()) == list(range(9))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        pts = rng.random((40, 3))
        a = random_subsample(pts, 5, seed=123)
        b = random_subsample(pts, 5, seed=123)
        assert a.tolist() == b.tolist()

    def test_golden_indices(self):
        # Frozen from the reference draw: one no-replacement choice of 3
        # indices out of 10 with seed 7.
        rng = np.random.default_rng(20)
        pts = rng.random((10, 3))
        sel = random_subsample(pts, 3, seed=7)
        assert sel.tolist() == [7, 5, 6]

    def test_too_many_requested(self):
        rng = np.random.default_rng(21)
        pts = rng.random((4, 2))
        with pytest.raises(ValueError):
            random_subsample(pts, 5, seed=0)
