"""Kernels, Gram matrices, and point-set geometry for inducing-point sieves.

The two workhorse kernels use a dimension-scaled convention on the unit cube:

* Laplace:   ``k(x, y) = exp(-||x - y|| / d)``
* Gaussian:  ``k(x, y) = exp(-||x - y||^2 / d)``

Matern kernels (``nu`` in {1/2, 3/2, 5/2}) use the standard closed forms with
a unit lengthscale unless overridden.  All kernels satisfy ``k(x, x) = 1``.

A kernel matrix is filled in row blocks of about ``_BLOCK_ENTRIES`` entries.
A matrix of more than one block spreads its blocks over one per-process pool
of threads, one per usable CPU, created on first use; every entry goes
through the same operations either way, so the bits do not depend on the
pool size.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
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


# Entries per row block (4 MB of float64): small enough to stay near the
# cache, large enough that handing a block to a thread costs little.
_BLOCK_ENTRIES = 2**19

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on, or the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="sievesim-kernel")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of its parent's threads; it builds a pool of its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _fill_rows(spec: KernelSpec, pa: np.ndarray, pb: np.ndarray, out: np.ndarray) -> None:
    """Write ``k(pa_i, pb_j)`` into ``out`` in place; pool threads call only this."""
    if spec.family in ("laplace", "gaussian"):
        # x / -d rounds to exactly -(x / d), so the bits equal exp(-dist / d).
        cdist(pa, pb, "euclidean" if spec.family == "laplace" else "sqeuclidean", out=out)
        np.divide(out, -spec.dim, out=out)
        np.exp(out, out=out)
        return
    cdist(pa, pb, out=out)
    out /= spec.lengthscale  # r
    if spec.nu == 0.5:
        np.exp(np.negative(out, out=out), out=out)
        return
    out *= math.sqrt(3.0) if spec.nu == 1.5 else math.sqrt(5.0)  # t = sqrt(2 nu) r
    decay = np.exp(-out)
    poly = 1.0 + out if spec.nu == 1.5 else 1.0 + out + out * out / 3.0
    np.multiply(poly, decay, out=out)


def _fill_block(spec, pa, pb, out, errstate) -> None:
    # numpy's error state is per thread, so each block runs under the caller's.
    with np.errstate(**errstate):
        _fill_rows(spec, pa, pb, out)


def kernel_matrix(spec: KernelSpec, a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Cross-kernel matrix ``K[i, j] = k(a_i, b_j)`` without jitter.

    ``out``, if given, is a C-contiguous float64 array of shape
    ``(len(a), len(b))`` that receives the matrix and is returned.
    """
    pa, pb = as_points(a), as_points(b)
    _check_dim(spec, pa, "first point set")
    _check_dim(spec, pb, "second point set")
    shape = (pa.shape[0], pb.shape[0])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    rows = max(1, _BLOCK_ENTRIES // max(1, shape[1]))
    if shape[0] <= rows:
        _fill_rows(spec, pa, pb, out)
        return out
    pool, errstate = _block_pool(), np.geterr()
    blocks = [pool.submit(_fill_block, spec, pa[i : i + rows], pb, out[i : i + rows], errstate)
              for i in range(0, shape[0], rows)]
    # Every block ends before any error is raised, so none writes to out afterwards.
    wait(blocks)
    for block in blocks:
        block.result()
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


def rkhs_norm_sq(spec: KernelSpec, coefficients, centers) -> float:
    """Squared RKHS norm of the mixture ``(1/N) sum_i c_i k(., U_i)``.

    Equals ``(1/N^2) c^T K c`` with ``K`` the unjittered self-gram of the
    centers.  The result is nonnegative up to roundoff.
    """
    c = np.asarray(coefficients, dtype=float).reshape(-1)
    pts = as_points(centers)
    if len(c) != pts.shape[0]:
        raise ValueError(f"{len(c)} coefficients for {pts.shape[0]} centers")
    if len(c) == 0:
        raise ValueError("need at least one center")
    k = kernel_matrix(spec, pts, pts)
    return float(c @ k @ c) / len(c) ** 2


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
