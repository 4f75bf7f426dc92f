"""Kernels, Gram matrices, and point-set geometry for inducing-point sieves.

The two workhorse kernels use a dimension-scaled convention on the unit cube:

* Laplace:   ``k(x, y) = exp(-||x - y|| / d)``
* Gaussian:  ``k(x, y) = exp(-||x - y||^2 / d)``

Matern kernels (``nu`` in {1/2, 3/2, 5/2}) use the standard closed forms with
a unit lengthscale unless overridden.  All kernels satisfy ``k(x, x) = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ._random import as_generator

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


@dataclass(frozen=True)
class PointSet:
    """Rows of points, optionally remembering indices into a parent set."""

    points: np.ndarray
    parent_indices: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if self.parent_indices is not None:
            idx = np.asarray(self.parent_indices, dtype=int)
            if idx.shape != (pts.shape[0],):
                raise ValueError("parent_indices must have one entry per point")
            object.__setattr__(self, "parent_indices", idx)

    def __len__(self) -> int:
        return self.points.shape[0]


def as_points(obj) -> np.ndarray:
    """Coerce a PointSet or array-like into a float (n, d) array."""
    if isinstance(obj, PointSet):
        return obj.points
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


def kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """Cross-kernel matrix ``K[i, j] = k(a_i, b_j)`` without jitter."""
    pa, pb = as_points(a), as_points(b)
    _check_dim(spec, pa, "first point set")
    _check_dim(spec, pb, "second point set")
    if spec.family == "laplace":
        return np.exp(-cdist(pa, pb) / spec.dim)
    if spec.family == "gaussian":
        return np.exp(-cdist(pa, pb, "sqeuclidean") / spec.dim)
    r = cdist(pa, pb) / spec.lengthscale
    if spec.nu == 0.5:
        return np.exp(-r)
    if spec.nu == 1.5:
        t = math.sqrt(3.0) * r
        return (1.0 + t) * np.exp(-t)
    t = math.sqrt(5.0) * r
    return (1.0 + t + t * t / 3.0) * np.exp(-t)


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


def farthest_point_sample(candidates, count: int, seed=0) -> PointSet:
    """Greedy max-min subsample: each pick maximizes distance to those chosen.

    The first point is drawn uniformly from the candidates using ``seed``;
    every later pick is the candidate farthest from the current selection
    (first index wins ties).  Fill distance is non-increasing in ``count``.
    """
    cand = as_points(candidates)
    n = cand.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    rng = as_generator(seed)
    chosen = np.empty(count, dtype=int)
    chosen[0] = rng.integers(n)
    min_dist = cdist(cand, cand[chosen[0]][None, :]).ravel()
    for i in range(1, count):
        chosen[i] = int(np.argmax(min_dist))
        np.minimum(min_dist, cdist(cand, cand[chosen[i]][None, :]).ravel(), out=min_dist)
    return PointSet(points=cand[chosen], parent_indices=chosen)


def random_subsample(candidates, count: int, seed=0) -> PointSet:
    """Uniform subsample without replacement; ``count == n`` is a permutation."""
    cand = as_points(candidates)
    n = cand.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    rng = as_generator(seed)
    chosen = rng.choice(n, size=count, replace=False)
    return PointSet(points=cand[chosen], parent_indices=chosen)
