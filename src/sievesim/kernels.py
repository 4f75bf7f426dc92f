"""Kernels, Gram matrices, and point-set geometry for inducing-point sieves.

The two workhorse kernels use a dimension-scaled convention on the unit cube:

* Laplace:   ``k(x, y) = exp(-||x - y|| / d)``
* Gaussian:  ``k(x, y) = exp(-||x - y||^2 / d)``

Matern kernels (``nu`` in {1/2, 3/2, 5/2}) use the standard closed forms with
a unit lengthscale unless overridden.  All kernels satisfy ``k(x, x) = 1``.
Laplace is Matern 1/2 at lengthscale ``d``, so it, Gaussian (squared distance
over ``d``) and Matern 1/2 share one formula, ``exp(-r / s)``.

A kernel matrix is filled in row blocks of about ``_BLOCK_ENTRIES`` entries, the
one budget of every transient buffer of an evaluation (see its comment).  A matrix
of more than one block spreads them over one per-process pool of threads, one per
usable CPU, with the same bits at any pool size.  The pool is built at import,
starts its threads on first use, and is rebuilt in a forked child.  Its tasks and
the harness's sweep jobs run through ``_run_all``: a lone task runs on the caller;
otherwise each runs under the caller's numpy error state, and the first error
cancels the queued tasks and is raised after the running ones end.

``kernel_matrix(spec, a, b, weights=w)`` is the product ``K(a, b) @ w``
without ``K``: each task allocates a block of at most ``_BLOCK_ENTRIES``
entries, a multiple of 4 rows (at least 4), fills it and writes its GEMV into
its own slice of the vector, so a call holds one block per busy pool thread.
It runs at one BLAS thread, whose GEMV gives each row the same bits in any
split at a multiple of 4 rows, so the vector is the one-matrix product at one
BLAS thread, bit for bit, at any pool size.

A kernel fit's SPD system is given as its lower tiles of ``_FACTOR_TILE`` rows,
arrays of their own (``_gram_tiles``) or views of one array (``_tile_views``).
``_cholesky`` factors them in place: each diagonal tile on the caller, the solves
and trailing updates as tasks on the same pool; ``_cho_solve`` solves by tiles on
the caller.  They call the LAPACK and BLAS that scipy's own solvers call, on any
scipy build, through the function pointers that ``scipy.linalg.cython_lapack`` and
``cython_blas`` export, bound by ``ctypes`` (which releases the GIL), each
addressing a tile by its own leading dimension.  A system of one tile has the bits
of ``cho_factor`` and ``cho_solve``.  The bits depend only on the system and its
size, never on how its tiles are stored, the pool size or the CPU count.

``_one_blas_thread`` holds every OpenBLAS bundled with numpy and scipy, found at
import, at one thread while it is entered, so BLAS's bits do not depend on its
thread count and no idle BLAS thread spins on a core that these pools need; on
the last exit it restores the counts found on the first entry.  It decorates
each routine in the package whose bits depend on that count.  Where it finds no
bundled OpenBLAS it holds nothing, and the factor's tile tasks call a threaded BLAS.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
from scipy.linalg import cython_blas, cython_lapack
from scipy.spatial.distance import cdist

__all__ = [
    "DEFAULT_JITTER", "KernelSpec", "eval_kernel", "farthest_point_sample", "fill_distance",
    "gram", "kernel_matrix", "random_subsample", "rkhs_norm_sq",
]


DEFAULT_JITTER = 1e-10

_FAMILIES = ("laplace", "gaussian", "matern")
_MATERN_NU = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class KernelSpec:
    """Positive-definite kernel identified by family, dimension, and shape.

    Parameters
    ----------
    family : str
        One of ``"laplace"``, ``"gaussian"``, ``"matern"``.
    dim : int
        Input dimension; points are rows of shape ``(dim,)``.
    nu : float, optional
        Matern smoothness, required (and only allowed) for ``"matern"``.
        Supported values are 0.5, 1.5, and 2.5.
    lengthscale : float
        Lengthscale for Matern kernels.  Laplace and Gaussian kernels use the
        fixed dimension-scaled convention and ignore this field.
    """

    family: str
    dim: int
    nu: float | None = None
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}")
        if self.dim < 1:
            raise ValueError(f"kernel dimension must be >= 1, got {self.dim}")
        if self.family == "matern":
            if self.nu not in _MATERN_NU:
                raise ValueError(f"matern nu must be one of {_MATERN_NU}, got {self.nu}")
            if not self.lengthscale > 0:
                raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        elif self.nu is not None:
            raise ValueError(f"nu is only meaningful for matern kernels, got family {self.family!r}")

    @classmethod
    def laplace(cls, dim: int) -> "KernelSpec":
        return cls("laplace", dim)

    @classmethod
    def gaussian(cls, dim: int) -> "KernelSpec":
        return cls("gaussian", dim)

    @classmethod
    def matern(cls, dim: int, nu: float, lengthscale: float = 1.0) -> "KernelSpec":
        return cls("matern", dim, nu=nu, lengthscale=lengthscale)

    @property
    def smoothness(self) -> float | None:
        """Sobolev-scale smoothness ``nu + d/2`` for the Matern family.

        The Laplace kernel is the ``nu = 1/2`` member of the family, so it
        gets a finite value; the Gaussian kernel has none.
        """
        if self.family == "laplace":
            return 0.5 + self.dim / 2.0
        if self.family == "matern":
            return self.nu + self.dim / 2.0
        return None


def as_points(obj) -> np.ndarray:
    """Coerce an array-like into a float (n, d) array."""
    pts = np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-D array of points, got shape {pts.shape}")
    return pts


def _check_dim(spec: KernelSpec, pts: np.ndarray, label: str) -> None:
    if pts.shape[1] != spec.dim:
        raise ValueError(
            f"{label} has dimension {pts.shape[1]} but the kernel expects {spec.dim}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{label} contains non-finite coordinates")


# Entries (1 MiB of float64) of each kernel block, point chunk and noise block,
# read at call time: small enough to stay in L2 and to leave little resident per
# pool thread, large enough that handing a block to a thread costs little.
_BLOCK_ENTRIES = 2**17


def _usable_cpus() -> int:
    """CPUs this process may run on, or the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas_libraries() -> list[tuple]:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS in the numpy and scipy
    wheels' ``<package>.libs`` directories; empty where none is found.  numpy's build
    has 64-bit integers and suffixes its symbols with ``64_``."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path))  # the copy already loaded, not a second one
            except OSError:
                continue
            for suffix in ("64_", ""):
                try:
                    get, set_ = (lib[f"scipy_openblas_{op}_num_threads{suffix}"]
                                 for op in ("get", "set"))
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


def _factor_routines() -> dict:
    """scipy's ``dpotrf``, ``dtrsm``, ``dsyrk`` and ``dgemm``: the C function pointers
    that ``scipy.linalg.cython_lapack`` and ``cython_blas`` export, which scipy's own
    solvers call, bound by ``ctypes`` (whose calls release the GIL).  In the Fortran
    calling convention every argument is a pointer."""
    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    routines = {}
    for module, name, arguments in ((cython_lapack, "dpotrf", 5), (cython_blas, "dtrsm", 11),
                                    (cython_blas, "dsyrk", 10), (cython_blas, "dgemm", 13)):
        capsule = module.__pyx_capi__[name]
        prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * arguments)
        routines[name] = prototype(pointer_of(capsule, name_of(capsule)))
    return routines


class _BlasPin(contextlib.ContextDecorator):
    """Context manager, and function decorator, that holds BLAS ``libraries`` at one thread.

    It may be entered nested or from several threads: a depth count under a
    lock keeps the pin until the last holder exits.
    """

    def __init__(self, libraries: list[tuple]):
        self.libraries = libraries
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_, get()) for get, set_ in self.libraries]
                for _, set_ in self.libraries:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


_one_blas_thread = _BlasPin(_openblas_libraries())
_FACTOR = _factor_routines()


def _new_pool() -> None:
    # A forked child has none of its parent's threads; it builds a pool of its own.
    global _pool
    _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="sievesim-kernel")


_new_pool()  # no thread starts before the first task
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _run_all(pool: ThreadPoolExecutor, fn, tasks) -> list:
    """``[fn(*task) for task in tasks]``, run on ``pool`` by the rule in the module
    docstring; a lone task runs on the caller."""
    if len(tasks) == 1:
        return [fn(*tasks[0])]
    errstate = np.geterr()  # numpy's error state is per thread

    def run(task):
        with np.errstate(**errstate):
            return fn(*task)

    futures = [pool.submit(run, task) for task in tasks]
    try:
        wait(futures, return_when=FIRST_EXCEPTION)  # one wake-up, not one per task
        return [future.result() for future in futures]
    finally:
        # No task outlives the call: the queued ones are cancelled, the running ones awaited.
        for future in futures:
            future.cancel()
        wait(futures)


# Side of a factor tile.  Each tile's sequence of operations depends only on n
# and this side, never on the pool, so neither do the factor's bits.
_FACTOR_TILE = 512


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _ref(tile: np.ndarray) -> tuple:
    """The address and leading dimension by which LAPACK and BLAS read ``tile``."""
    return tile.ctypes.data, _int(tile.strides[1] // tile.itemsize)


def _tile_views(a: np.ndarray) -> list[list[np.ndarray]]:
    """The lower tiles of the square, Fortran-ordered ``a``, as views: row ``r`` holds
    the tiles of rows ``r * _FACTOR_TILE`` on, in columns of tiles ``0..r``.  This is
    the tile set that :func:`_cholesky` and :func:`_cho_solve` take."""
    starts = range(0, a.shape[0], _FACTOR_TILE)
    return [[a[i : i + _FACTOR_TILE, j : j + _FACTOR_TILE] for j in starts[: r + 1]]
            for r, i in enumerate(starts)]


def _tile_shapes(n: int) -> list[list[tuple[int, int]]]:
    """The shapes of the lower tiles of an n x n system, laid out as in :func:`_tile_views`."""
    sides = [min(n - k, _FACTOR_TILE) for k in range(0, n, _FACTOR_TILE)]
    return [[(rows, cols) for cols in sides[: r + 1]] for r, rows in enumerate(sides)]


def _gram_tiles(spec: KernelSpec, points) -> list[list[np.ndarray]]:
    """The lower tiles of ``K(points, points)``, laid out as in :func:`_tile_views`, each
    a Fortran-ordered array of its own filled by one :func:`_fill_rows` task on the
    pool: the tile at rows ``i``, columns ``j`` is ``K(x_j, x_i)`` written through its
    C-ordered transpose, so its entries have ``kernel_matrix``'s bits."""
    pts = as_points(points)
    _check_dim(spec, pts, "points")
    rows = [pts[k : k + _FACTOR_TILE] for k in range(0, pts.shape[0], _FACTOR_TILE)]
    tiles = [[np.empty(shape, order="F") for shape in row] for row in _tile_shapes(len(pts))]
    _run_all(_pool, _fill_rows, [(spec, rows[j], rows[i], tile.T)
                                 for i, row in enumerate(tiles) for j, tile in enumerate(row)])
    return tiles


def _factor_step(tiles: list, i: int, j: int, k: int) -> None:
    """One pooled step of :func:`_cholesky` on tile ``(i, j)`` of ``tiles`` after the
    diagonal tile ``k`` is factored: with ``j == k``, solve it against that tile's
    factor; otherwise subtract from it the product of the solved tiles ``(i, k)`` and
    ``(j, k)``."""
    target, left = tiles[i][j], tiles[i][k]
    rows, inner = _int(target.shape[0]), _int(left.shape[1])
    one, minus_one = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(-1.0))
    if j == k:
        _FACTOR["dtrsm"](b"R", b"L", b"T", b"N", rows, inner, one, *_ref(tiles[k][k]),
                         *_ref(target))
    elif i == j:
        _FACTOR["dsyrk"](b"L", b"N", rows, inner, minus_one, *_ref(left), one, *_ref(target))
    else:
        _FACTOR["dgemm"](b"N", b"T", rows, _int(target.shape[1]), inner, minus_one,
                         *_ref(left), *_ref(tiles[j][k]), one, *_ref(target))


@_one_blas_thread
def _cholesky(tiles: list) -> list:
    """The lower Cholesky factor of the symmetric positive-definite system whose lower
    tiles are ``tiles`` (laid out as in :func:`_tile_views`, each Fortran-strided),
    written over them and returned; the strict upper triangle of each diagonal tile is
    never written.  A failure raises ``scipy.linalg.LinAlgError``.

    The factor is right-looking: LAPACK factors each diagonal tile on the caller, then
    the pool solves each tile below it, then updates each lower tile of the trailing
    matrix (the rule of :func:`_run_all`).  So a system of one tile is one LAPACK call.
    """
    if ([[tile.shape for tile in row] for row in tiles]
            != _tile_shapes(sum(row[-1].shape[1] for row in tiles))
            or any(tile.dtype != np.float64 or tile.strides[0] != tile.itemsize
                   or tile.strides[1] < tile.shape[0] * tile.itemsize or not tile.flags.writeable
                   for row in tiles for tile in row)):
        raise ValueError("expected the lower tiles of a square system, each a writeable "
                         "Fortran-strided float64 array")
    for k in range(len(tiles)):
        diagonal, info = tiles[k][k], ctypes.c_int()
        _FACTOR["dpotrf"](b"L", _int(diagonal.shape[0]), *_ref(diagonal), ctypes.byref(info))
        if info.value:
            raise scipy.linalg.LinAlgError(
                f"{k * _FACTOR_TILE + info.value}-th leading minor of the array is not "
                "positive definite" if info.value > 0
                else f"dpotrf: argument {-info.value} had an illegal value")
        below = range(k + 1, len(tiles))
        _run_all(_pool, _factor_step, [(tiles, i, k, k) for i in below])
        _run_all(_pool, _factor_step, [(tiles, i, j, k) for j in below for i in below if i >= j])
    return tiles


@_one_blas_thread
def _cho_solve(tiles: list, rhs) -> np.ndarray:
    """The solution of ``L L^T x = rhs``, ``L`` the factor that :func:`_cholesky` wrote
    over ``tiles``: forward by a ``dtrsm`` on each diagonal tile and a GEMV for each
    tile below it, then back by the transposes.  On one tile these are the two
    ``dtrsm`` calls of LAPACK's ``dpotrs``, so the bits are ``cho_solve``'s."""
    x = np.array(rhs, dtype=np.float64)
    pieces = [x[k : k + _FACTOR_TILE] for k in range(0, x.shape[0], _FACTOR_TILE)]

    def solve(k: int, transpose: bytes) -> None:
        size = _int(pieces[k].shape[0])
        _FACTOR["dtrsm"](b"L", b"L", transpose, b"N", size, _int(1),
                         ctypes.byref(ctypes.c_double(1.0)), *_ref(tiles[k][k]),
                         pieces[k].ctypes.data, size)

    for k in range(len(pieces)):
        solve(k, b"N")
        for i in range(k + 1, len(pieces)):
            pieces[i] -= tiles[i][k] @ pieces[k]
    for k in reversed(range(len(pieces))):
        for i in range(k + 1, len(pieces)):
            pieces[k] -= tiles[i][k].T @ pieces[i]
        solve(k, b"T")
    return x


def _fill_rows(spec: KernelSpec, pa: np.ndarray, pb: np.ndarray, out: np.ndarray,
               weights: np.ndarray | None = None, entries: int = 0) -> None:
    """Write ``k(pa_i, pb_j)`` into ``out`` in place or, given ``weights``, into a block
    of its own, allocated with at least ``entries`` entries, and then
    ``block @ weights`` into ``out``; one task of a pooled kernel matrix or product."""
    # Each block of a product takes the allocation of a full one, so malloc reuses the
    # same memory block after block; blocks of varying sizes fragment its heap, whose
    # resident size then grows call after call.
    n = pa.shape[0] * pb.shape[0]
    block = (out if weights is None
             else np.empty(max(n, entries))[:n].reshape(pa.shape[0], pb.shape[0]))
    cdist(pa, pb, "sqeuclidean" if spec.family == "gaussian" else "euclidean", out=block)
    # x / -s rounds to exactly -(x / s), and negation is exact, so each entry has
    # the bits of the closed form written with a positive r / s.
    np.divide(block, -(spec.lengthscale if spec.family == "matern" else spec.dim), out=block)
    if spec.family != "matern" or spec.nu == 0.5:
        np.exp(block, out=block)
    else:
        block *= math.sqrt(3.0) if spec.nu == 1.5 else math.sqrt(5.0)  # -t, t = sqrt(2 nu) r
        decay = np.exp(block)
        poly = 1.0 - block if spec.nu == 1.5 else 1.0 - block + block * block / 3.0
        np.multiply(poly, decay, out=block)
    if weights is not None:
        np.matmul(block, weights, out=out)


def _row_splits(count: int, rows: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of the pieces of ``count`` rows cut every ``rows`` rows.  A last
    piece of one row joins the one before: numpy multiplies a lone row as a dot product,
    whose bits are not the GEMV's."""
    starts = [*range(0, max(count - 1, 1), rows), count]
    return list(zip(starts, starts[1:]))


@_one_blas_thread
def kernel_matrix(spec: KernelSpec, a, b, weights=None) -> np.ndarray:
    """Cross-kernel matrix ``K[i, j] = k(a_i, b_j)`` without jitter or, given
    ``weights`` (one per row of ``b``), the vector ``K @ weights`` by the rule in the
    module docstring."""
    pa, pb = as_points(a), as_points(b)
    _check_dim(spec, pa, "first point set")
    _check_dim(spec, pb, "second point set")
    rows = _BLOCK_ENTRIES // max(1, pb.shape[0])
    if weights is None:
        out, rows, extra = np.empty((pa.shape[0], pb.shape[0])), max(1, rows), ()
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (pb.shape[0],):
            raise ValueError(f"weights must have shape ({pb.shape[0]},), got {w.shape}")
        rows = max(4, rows // 4 * 4)
        out, extra = np.empty(pa.shape[0]), (w, min(rows, pa.shape[0]) * pb.shape[0])
    _run_all(_pool, _fill_rows, [(spec, pa[i:j], pb, out[i:j], *extra)
                                 for i, j in _row_splits(pa.shape[0], rows)])
    return out


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate ``k(x, y)`` for a single pair of points."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.shape != yv.shape:
        raise ValueError(f"point shapes differ: {xv.shape} vs {yv.shape}")
    return float(kernel_matrix(spec, xv[None, :], yv[None, :])[0, 0])


def gram(spec: KernelSpec, points, jitter: float = DEFAULT_JITTER) -> np.ndarray:
    """Self-gram of one point set with ``jitter`` added to its diagonal.

    The self-gram is what downstream solvers factor, and exact positive
    definiteness is not guaranteed in floating point.  For the plain cross
    matrix of two sets use :func:`kernel_matrix`.
    """
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    entries = kernel_matrix(spec, points, points)
    if jitter:
        entries[np.diag_indices_from(entries)] += jitter
    return entries


@_one_blas_thread
def rkhs_norm_sq(spec: KernelSpec, coefficients, centers) -> float:
    """Squared RKHS norm of the mixture ``(1/N) sum_i c_i k(., U_i)``.

    Equals ``(1/N^2) c^T K c`` with ``K`` the unjittered self-gram of the
    centers, computed as ``c`` times the pooled product ``K c`` without ``K``.
    The result is nonnegative up to roundoff.
    """
    c = np.asarray(coefficients, dtype=float).reshape(-1)
    pts = as_points(centers)
    if len(c) != pts.shape[0]:
        raise ValueError(f"{len(c)} coefficients for {pts.shape[0]} centers")
    if len(c) == 0:
        raise ValueError("need at least one center")
    return float(c @ kernel_matrix(spec, pts, pts, weights=c)) / len(c) ** 2


def fill_distance(candidates, selected) -> float:
    """Largest distance from any candidate to its nearest selected point."""
    cand = as_points(candidates)
    sel = as_points(selected)
    if cand.shape[0] == 0 or sel.shape[0] == 0:
        raise ValueError("fill_distance needs nonempty candidate and selected sets")
    if cand.shape[1] != sel.shape[1]:
        raise ValueError("candidate and selected dimensions differ")
    return float(cdist(cand, sel).min(axis=1).max())


def farthest_point_sample(candidates, count: int, seed=0) -> np.ndarray:
    """Indices of a greedy max-min subsample: each pick maximizes distance to
    those chosen.

    The first point is drawn uniformly from the candidates using ``seed``;
    every later pick is the candidate farthest from the current selection
    (first index wins ties).  Fill distance is non-increasing in ``count``.
    """
    cand = as_points(candidates)
    n = cand.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(count, dtype=int)
    chosen[0] = rng.integers(n)
    min_dist = cdist(cand, cand[chosen[0]][None, :]).ravel()
    for i in range(1, count):
        chosen[i] = int(np.argmax(min_dist))
        np.minimum(min_dist, cdist(cand, cand[chosen[i]][None, :]).ravel(), out=min_dist)
    return chosen


def random_subsample(candidates, count: int, seed=0) -> np.ndarray:
    """Indices of a uniform subsample without replacement; ``count == n``
    gives a permutation."""
    cand = as_points(candidates)
    n = cand.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=count, replace=False)
