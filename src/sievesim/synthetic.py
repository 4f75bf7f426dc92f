"""Synthetic ground truth and the two-level simulation of noisy observations.

The test function is a seeded kernel mixture

    f(x) = (1/N) * sum_i c_i k(x, U_i),

with ``c_i`` standard normal and ``U_i`` uniform on the unit cube, frozen at
construction.  It is the only form of surface: one path evaluates it, and
one simulates noisy observations of it.  Its squared RKHS norm has a closed
form (:func:`~sievesim.kernels.rkhs_norm_sq`); it is computed when the
surface is saved, not when it is built.

Simulation is two-level: outer scenarios are uniform on ``[0,1]^d``; each
scenario gets ``m`` noisy inner samples ``f(x_i) + eps`` whose average is
retained (raw inner samples are discarded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._textio import kernel_fields, kernel_from_fields, read_table, write_table
from .functionals import FunctionalSpec, evaluate_functional
from .kernels import KernelSpec, as_points, kernel_matrix, rkhs_norm_sq

__all__ = [
    "NestedDataset", "TestFunction", "ThetaOracle", "load_dataset", "load_test_function",
    "make_test_function", "save_dataset", "save_test_function", "simulate_inner", "simulate_outer",
    "true_theta",
]

_EVAL_CHUNK = 10_000
_INNER_CHUNK_BUDGET = 50_000_000


@dataclass(frozen=True)
class TestFunction:
    """A frozen kernel mixture with exact evaluation.

    ``norm_sq`` is the squared RKHS norm recorded in a loaded file, or None
    on a built surface; :func:`save_test_function` computes it then.
    """

    kernel: KernelSpec
    centers: np.ndarray
    coefficients: np.ndarray
    seed: int | None = None
    norm_sq: float | None = None

    def __post_init__(self):
        ctr = np.asarray(self.centers, dtype=float)
        coef = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if ctr.shape != (coef.size, self.dim):
            raise ValueError(
                f"centers shape {ctr.shape} incompatible with "
                f"{coef.size} coefficients in dimension {self.dim}"
            )
        ctr.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "centers", ctr)
        object.__setattr__(self, "coefficients", coef)

    @property
    def dim(self) -> int:
        return self.kernel.dim

    def __call__(self, x) -> np.ndarray:
        return eval_f(self, x)


@dataclass(frozen=True)
class NestedDataset:
    """Outer scenarios with inner-averaged responses."""

    scenarios: np.ndarray
    ybar: np.ndarray
    m: int
    noise_sigma: float
    seed: int | None = None

    def __post_init__(self):
        sc = np.asarray(self.scenarios, dtype=float)
        yb = np.asarray(self.ybar, dtype=float).reshape(-1)
        if sc.ndim != 2 or sc.shape[0] != yb.size:
            raise ValueError(f"scenarios {sc.shape} do not match {yb.size} responses")
        object.__setattr__(self, "scenarios", sc)
        object.__setattr__(self, "ybar", yb)

    @property
    def n(self) -> int:
        return self.scenarios.shape[0]

    @property
    def dim(self) -> int:
        return self.scenarios.shape[1]


@dataclass(frozen=True)
class ThetaOracle:
    """High-resolution Monte Carlo reference for the target functional."""

    functional: FunctionalSpec
    value: float
    eval_points: int
    seed: int | None


def make_test_function(kernel: KernelSpec, n_centers: int = 1000, seed=0) -> TestFunction:
    """Draw and freeze a kernel-mixture test function.

    Centers are drawn first (uniform rows), then coefficients (standard
    normal), from a single generator, so the surface is reproducible from
    ``seed`` alone.  Its ``norm_sq`` is left None.
    """
    if n_centers < 1:
        raise ValueError(f"n_centers must be >= 1, got {n_centers}")
    rng = np.random.default_rng(seed)
    centers = rng.random((n_centers, kernel.dim))
    coefficients = rng.standard_normal(n_centers)
    return TestFunction(kernel, centers, coefficients,
                        seed=seed if isinstance(seed, int) else None)


def eval_f(f: TestFunction, x) -> np.ndarray:
    """Evaluate the surface at rows of ``x``; chunked so large grids fit in memory.

    Points of the wrong dimension raise ``ValueError`` (from ``kernel_matrix``).
    """
    pts = as_points(x)
    out = np.empty(pts.shape[0])
    buffer = _chunk_buffer(f, pts.shape[0])
    for start in range(0, pts.shape[0], _EVAL_CHUNK):
        _eval_chunk(f, pts[start : start + _EVAL_CHUNK], buffer, out[start : start + _EVAL_CHUNK])
    return out


def _chunk_buffer(f: TestFunction, rows: int) -> np.ndarray:
    # One kernel buffer per evaluating call, so concurrent calls share none.
    return np.empty((min(rows, _EVAL_CHUNK), f.coefficients.size))


def _eval_chunk(f: TestFunction, block: np.ndarray, buffer: np.ndarray, out: np.ndarray) -> None:
    """Write the surface at the rows of ``block`` (at most one chunk) into ``out``.

    The kernel matrix goes into ``buffer``; the product stays one GEMV per
    chunk, because a different split of the rows can change its bits.
    """
    out[:] = kernel_matrix(f.kernel, block, f.centers, out=buffer[: block.shape[0]]) @ f.coefficients
    out *= 1.0 / f.coefficients.size


def simulate_outer(count: int, dim: int, seed=0) -> np.ndarray:
    """Draw ``count`` outer scenarios uniformly from the unit cube."""
    if count < 1 or dim < 1:
        raise ValueError(f"need count >= 1 and dim >= 1, got {count}, {dim}")
    rng = np.random.default_rng(seed)
    return rng.random((count, dim))


def simulate_inner(f: TestFunction, scenarios, m: int, sigma: float, seed=0) -> NestedDataset:
    """Average ``m`` noisy inner samples per scenario.

    Observations are ``f(x_i) + eps`` with ``eps ~ Normal(0, sigma^2)``
    i.i.d.; only the per-scenario average is kept.  With ``sigma = 0`` the
    noise term is a signed zero, so ``ybar`` equals the surface bit for bit.
    """
    pts = as_points(scenarios)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    values = eval_f(f, pts)
    n = pts.shape[0]
    ybar = np.empty(n)
    rows = max(1, _INNER_CHUNK_BUDGET // m)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        noise = rng.standard_normal((stop - start, m))
        ybar[start:stop] = values[start:stop] + sigma * noise.mean(axis=1)
    return NestedDataset(
        scenarios=pts,
        ybar=ybar,
        m=m,
        noise_sigma=float(sigma),
        seed=seed if isinstance(seed, int) else None,
    )


def true_theta(
    f: TestFunction,
    functional: FunctionalSpec,
    eval_points: int = 10_000,
    seed=0,
) -> ThetaOracle:
    """Monte Carlo reference value of the functional on the noise-free surface."""
    if eval_points < 1:
        raise ValueError(f"eval_points must be >= 1, got {eval_points}")
    rng = np.random.default_rng(seed)
    values = np.empty(eval_points)
    buffer = _chunk_buffer(f, eval_points)
    for start in range(0, eval_points, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, eval_points)
        _eval_chunk(f, rng.random((stop - start, f.dim)), buffer, values[start:stop])
    return ThetaOracle(
        functional=functional,
        value=evaluate_functional(values, functional),
        eval_points=eval_points,
        seed=seed if isinstance(seed, int) else None,
    )


# ---------------------------------------------------------------------------
# Columnar text serialization (format in :mod:`sievesim._textio`)
# ---------------------------------------------------------------------------

def save_test_function(f: TestFunction, path) -> None:
    """Write a surface as columnar text (centers then coefficient).

    The header's ``norm_sq`` is the recorded value when there is one, so a
    loaded file re-saves byte for byte, and otherwise is computed here.
    """
    norm_sq = f.norm_sq
    if norm_sq is None:
        norm_sq = rkhs_norm_sq(f.kernel, f.coefficients, f.centers)
    fields = {**kernel_fields(f.kernel), "n_centers": f.coefficients.size,
              "seed": f.seed, "norm_sq": norm_sq}
    write_table(path, "test function", fields, "center_1..center_d coefficient",
                np.column_stack((f.centers, f.coefficients)))


def load_test_function(path) -> TestFunction:
    fields, data = read_table(path, "test function")
    kernel = kernel_from_fields(fields)
    n = int(fields["n_centers"])
    if data.shape != (n, kernel.dim + 1):
        raise ValueError(f"expected {n} rows of {kernel.dim + 1} columns, got {data.shape}")
    return TestFunction(
        kernel=kernel,
        centers=data[:, :-1],
        coefficients=data[:, -1],
        seed=None if fields["seed"] == "-" else int(fields["seed"]),
        norm_sq=float(fields["norm_sq"]),
    )


def save_dataset(data: NestedDataset, path) -> None:
    """Write scenarios and inner averages as columnar text."""
    fields = {"dim": data.dim, "n": data.n, "m": data.m, "sigma": data.noise_sigma,
              "seed": data.seed}
    write_table(path, "nested dataset", fields, "x_1..x_d ybar",
                np.column_stack((data.scenarios, data.ybar)))


def load_dataset(path) -> NestedDataset:
    fields, data = read_table(path, "nested dataset")
    dim, n = int(fields["dim"]), int(fields["n"])
    if data.shape != (n, dim + 1):
        raise ValueError(f"expected {n} rows of {dim + 1} columns, got {data.shape}")
    return NestedDataset(
        scenarios=data[:, :-1],
        ybar=data[:, -1],
        m=int(fields["m"]),
        noise_sigma=float(fields["sigma"]),
        seed=None if fields["seed"] == "-" else int(fields["seed"]),
    )
