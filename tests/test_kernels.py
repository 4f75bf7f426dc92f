import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from sievesim import kernels
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

    @pytest.mark.parametrize("lengthscale", [1.0, 0.7])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_keeps_the_closed_form_bits(self, nu, lengthscale):
        # Each closed form in the order r = dist / lengthscale, t = sqrt(2 nu) r,
        # poly(t) * exp(-t).
        rng = np.random.default_rng(8)
        a = rng.random((37, 3))
        b = rng.random((23, 3))
        r = cdist(a, b) / lengthscale
        if nu == 0.5:
            want = np.exp(-r)
        else:
            t = r * math.sqrt(3.0 if nu == 1.5 else 5.0)
            poly = 1.0 + t if nu == 1.5 else 1.0 + t + t * t / 3.0
            want = poly * np.exp(-t)
        assert np.array_equal(kernel_matrix(KernelSpec.matern(3, nu, lengthscale), a, b), want)

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


BLOCK_SPECS = [
    KernelSpec.laplace(4), KernelSpec.gaussian(4), KernelSpec.matern(4, nu=0.5),
    KernelSpec.matern(4, nu=1.5, lengthscale=0.3), KernelSpec.matern(4, nu=2.5, lengthscale=2.0),
]


class TestBlockedKernelMatrix:
    # With blocks of 64 entries, 4 columns make blocks of 16 rows and 100
    # columns blocks of one row.
    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda spec: f"{spec.family}-{spec.nu}")
    @pytest.mark.parametrize("rows,cols", [(1, 100), (9, 100), (48, 4), (50, 4)],
                             ids=["one-row", "one-row-blocks", "exact-multiple", "ragged"])
    def test_pooled_blocks_equal_one_block(self, monkeypatch, spec, rows, cols):
        rng = np.random.default_rng(rows + cols)
        a, b = rng.random((rows, 4)), rng.random((cols, 4))
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows * cols)
        whole = kernel_matrix(spec, a, b)
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 64)
        pooled = kernel_matrix(spec, a, b)
        assert np.array_equal(pooled, whole)

    def test_default_blocks_equal_one_block(self, monkeypatch):
        # 1,100 rows of 1,000 columns are two full default blocks and a ragged one.
        rng = np.random.default_rng(20)
        a, b = rng.random((1100, 10)), rng.random((1000, 10))
        spec = KernelSpec.laplace(10)
        pooled = kernel_matrix(spec, a, b)
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", a.shape[0] * b.shape[0])
        assert np.array_equal(pooled, kernel_matrix(spec, a, b))

    @pytest.mark.parametrize("block_entries", [None, 8], ids=["inline", "pooled"])
    def test_blocks_run_under_the_callers_error_state(self, monkeypatch, block_entries):
        # Every distance over 5e-324 overflows; numpy's error state is per thread.
        if block_entries:
            monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
        spec = KernelSpec.matern(2, nu=1.5, lengthscale=5e-324)
        rng = np.random.default_rng(22)
        a, b = rng.random((20, 2)), rng.random((4, 2))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            kernel_matrix(spec, a, b)

    def test_failing_block_cancels_the_queued_ones(self, monkeypatch):
        # 800 rows of 2 columns in blocks of 8 entries are 200 blocks of 4 rows; the
        # first block raises, and each other takes 5 ms.
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 8)
        started, finished, lock = [], [], threading.Lock()

        def fill_or_fail(spec, pa, pb, out):
            with lock:
                started.append(None)
                first = len(started) == 1
            if first:
                raise ValueError("block failed")
            time.sleep(0.005)
            finished.append(None)

        monkeypatch.setattr(kernels, "_fill_rows", fill_or_fail)
        with pytest.raises(ValueError, match="block failed"):
            kernel_matrix(KernelSpec.laplace(2), np.zeros((800, 2)), np.ones((2, 2)))
        ran = len(started)
        assert ran < 100
        assert len(finished) == ran - 1  # every started block ended before the raise
        time.sleep(0.05)
        assert len(started) == ran

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12 warns on any fork of a process with threads; this test forks one on purpose.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_builds_blocks_on_a_pool_of_its_own(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 64)
        rng = np.random.default_rng(23)
        a, b = rng.random((40, 3)), rng.random((8, 3))
        spec = KernelSpec.laplace(3)
        expected = kernel_matrix(spec, a, b)
        assert kernels._pool is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(kernel_matrix(spec, a, b), expected) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on a multi-block kernel matrix")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


PRODUCT_SPECS = [
    KernelSpec.laplace(3), KernelSpec.gaussian(3), KernelSpec.matern(3, nu=1.5, lengthscale=0.3),
    KernelSpec.matern(3, nu=2.5, lengthscale=2.0),
]


class TestKernelProduct:
    """``kernel_matrix(spec, a, b, weights=w)`` is ``kernel_matrix(spec, a, b) @ w`` at one
    BLAS thread, bit for bit."""

    @staticmethod
    def pinned_product(spec, a, b, w):
        with kernels._one_blas_thread:
            return kernel_matrix(spec, a, b) @ w

    # A block is _BLOCK_ENTRIES // width rows rounded down to a multiple of 4: 524 rows
    # at 1,000 columns, 4 at 2^18 + 1.  "2 blocks + 3" is 524 * 2 + 3 rows at 1,000
    # columns; in "2 blocks + 1" the last row joins the block before it.
    @pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=lambda spec: f"{spec.family}-{spec.nu}")
    @pytest.mark.parametrize("width", [1, 3, 571, 1000, 2**18 + 1])
    @pytest.mark.parametrize("rows", [0, 1, 3, 5, (2, 3), (2, 1)],
                             ids=["0", "1", "3", "5", "2-blocks-and-3", "2-blocks-and-1"])
    def test_is_the_one_matrix_product_at_any_pool_size(self, kernel_pool, spec, width, rows):
        if isinstance(rows, tuple):
            blocks, extra = rows
            rows = blocks * max(4, kernels._BLOCK_ENTRIES // width // 4 * 4) + extra
        rng = np.random.default_rng(width + rows)
        a, b, w = rng.random((rows, 3)), rng.random((width, 3)), rng.standard_normal(width)
        want = self.pinned_product(spec, a, b, w)
        for threads in (1, 2, 8):
            kernel_pool(threads)
            assert np.array_equal(kernel_matrix(spec, a, b, weights=w), want)

    def test_a_direct_call_at_three_blas_threads_has_the_pinned_bits(self):
        libraries = kernels._openblas_libraries()
        if not libraries:
            pytest.skip("no bundled OpenBLAS to pin")
        spec = KernelSpec.laplace(10)
        rng = np.random.default_rng(24)
        a, b, w = rng.random((2003, 10)), rng.random((1000, 10)), rng.standard_normal(1000)
        want = self.pinned_product(spec, a, b, w)
        saved = [get() for get, _ in libraries]
        try:
            for _, set_threads in libraries:
                set_threads(3)
            got = kernel_matrix(spec, a, b, weights=w)
            assert [get() for get, _ in libraries] == [3] * len(libraries)
        finally:
            for (_, set_threads), count in zip(libraries, saved):
                set_threads(count)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), ()])
    def test_weights_of_the_wrong_shape_raise(self, shape):
        with pytest.raises(ValueError, match=r"weights must have shape \(4,\)"):
            kernel_matrix(KernelSpec.gaussian(2), np.zeros((3, 2)), np.ones((4, 2)),
                          weights=np.ones(shape))


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


def test_run_all_returns_results_in_task_order():
    # Each task sleeps 30 ms less than the one before it, so later tasks finish first.
    done, lock = [], threading.Lock()

    def square(i, delay):
        time.sleep(delay)
        with lock:
            done.append(i)
        return i * i

    with ThreadPoolExecutor(4) as pool:
        results = kernels._run_all(pool, square, [(i, 0.03 * (4 - i)) for i in range(4)])
    assert done == [3, 2, 1, 0]
    assert results == [0, 1, 4, 9]


def test_run_all_runs_a_lone_task_on_the_caller():
    with ThreadPoolExecutor(1) as pool:
        assert kernels._run_all(pool, threading.get_ident, [()]) == [threading.get_ident()]


def test_blas_pin_holds_until_the_last_holder_exits():
    # Eight threads enter and leave one pin with a short switch interval: a lost
    # update to its depth would show a count other than 1 inside or 4 after.
    count, wrong = [4], []
    pin = kernels._BlasPin([(lambda: count[0], lambda n: count.__setitem__(0, n))])

    def hold(_):
        for _ in range(300):
            with pin:
                with pin:
                    pass
                if count[0] != 1:
                    wrong.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(hold, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [] and count == [4]


class TestTiledCholesky:
    TILE = kernels._FACTOR_TILE

    @staticmethod
    def spd(n, seed):
        x = np.random.default_rng(seed).standard_normal((n, n + 10))
        return np.asfortranarray(x @ x.T / n + np.eye(n))

    @pytest.mark.parametrize("n", [TILE, TILE + 1, 2 * TILE + 1])
    def test_factors_the_lower_triangle_only(self, n):
        a = self.spd(n, 23)
        work = a.copy(order="F")
        factor = kernels._cholesky(work)
        assert factor is work
        assert_allclose(np.tril(factor), np.linalg.cholesky(a), rtol=0, atol=1e-12)
        assert np.array_equal(np.triu(work, 1), np.triu(a, 1))

    @pytest.mark.parametrize("n", [1, 2, 100, TILE])
    def test_one_tile_is_one_lapack_call(self, n):
        a = self.spd(n, 25)
        with kernels._one_blas_thread:  # as _cholesky holds it
            want = scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
        assert np.array_equal(kernels._cholesky(a), want)

    def test_failure_names_the_minor_in_the_first_tile(self):
        a = np.asfortranarray(np.eye(self.TILE))
        a[188, 188] = -1.0
        with pytest.raises(np.linalg.LinAlgError,
                           match="^189-th leading minor of the array is not"):
            kernels._cholesky(a)

    def test_failure_names_the_minor_past_the_first_tile(self):
        a = np.asfortranarray(np.eye(2 * self.TILE + 1))
        a[self.TILE + 188, self.TILE + 188] = -1.0
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"^{self.TILE + 189}-th leading minor of the array is not"):
            kernels._cholesky(a)

    @pytest.mark.parametrize("n", [2, TILE, TILE + 1])
    def test_takes_only_a_fortran_ordered_float64_square(self, n):
        with pytest.raises(ValueError, match="Fortran-ordered float64 square"):
            kernels._cholesky(np.ascontiguousarray(self.spd(n, 24)))
