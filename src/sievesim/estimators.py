"""Least-squares surface estimators over interchangeable sieves.

All four estimators consume a :class:`~sievesim.synthetic.NestedDataset`
(outer scenarios with inner-averaged responses) and expose ``predict``:

* sample average: the inner averages themselves, extended off-sample by
  nearest neighbor;
* kernel ridge regression on the full scenario set;
* least squares on the span of kernel sections at a few inducing points;
  both are a :class:`KernelExpansion` over their own points;
* a sparse, bounded ReLU network trained by an adaptive first-order method.

A fit also keeps ``fitted_values``, its predictions at the training
scenarios, bit-identical to ``predict(data.scenarios)`` and computed as part
of the fit; an estimator read back by :func:`load_estimator` has ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

from .kernels import DEFAULT_JITTER, KernelSpec, as_points, kernel_matrix
from .network import ReluNetwork
from .synthetic import NestedDataset
from ._textio import kernel_fields, kernel_from_fields, read_table, write_table

__all__ = [
    "FitError", "InducingKRREstimator", "KernelExpansion", "KRREstimator", "ReluArchitecture",
    "ReluSieveEstimator", "SampleAverageEstimator", "TrainConfig", "TrainingDiverged",
    "cross_validate_regularization", "default_regularization", "fit_krr", "fit_krr_inducing",
    "fit_relu_sieve", "fit_sample_average", "load_estimator", "relu_architecture_from_rate",
    "save_estimator",
]


class FitError(RuntimeError):
    """An estimator fit failed; the message carries diagnostics."""


class TrainingDiverged(FitError):
    """Network training produced a non-finite loss, or a fit that blew up
    far outside the range of its data."""

    def __init__(self, iteration: int, loss: float, message: str | None = None):
        super().__init__(message or f"non-finite training loss ({loss}) at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainingMeta:
    """Fit diagnostics: sample sizes plus the empirical residual norm."""

    n: int
    m: int
    residual_norm: float
    detail: dict = field(default_factory=dict)


def _residual_norm(predictions: np.ndarray, ybar: np.ndarray) -> float:
    return float(np.sqrt(np.mean((predictions - ybar) ** 2)))


# ---------------------------------------------------------------------------
# Sample average
# ---------------------------------------------------------------------------

class SampleAverageEstimator:
    """Inner averages at the scenarios, nearest-neighbor elsewhere."""

    kind = "sample_average"

    def __init__(self, scenarios: np.ndarray, ybar: np.ndarray, meta: TrainingMeta,
                 fitted_values=None):
        self.scenarios = scenarios
        self.ybar = ybar
        self.meta = meta
        self.fitted_values = fitted_values
        self._tree = None

    def predict(self, x) -> np.ndarray:
        if self._tree is None:
            self._tree = cKDTree(self.scenarios)
        _, idx = self._tree.query(as_points(x))
        return self.ybar[idx]


def fit_sample_average(data: NestedDataset) -> SampleAverageEstimator:
    """Memorize the inner averages; exact at every training scenario."""
    return SampleAverageEstimator(
        scenarios=data.scenarios,
        ybar=data.ybar,
        meta=TrainingMeta(n=data.n, m=data.m, residual_norm=0.0),
        fitted_values=data.ybar,
    )


# ---------------------------------------------------------------------------
# Kernel expansions: full KRR and least squares on an inducing-point span
# ---------------------------------------------------------------------------

class KernelExpansion:
    """Least-squares fit on the span of kernel sections at ``points``:
    ``f(x) = sum_j weights_j k(x, points_j)``.

    Full KRR spans all scenarios and stores its ``lam``; the inducing-point
    fit spans a few of them and stores its ridge.  Either is
    ``regularization``.
    """

    def __init__(self, kernel: KernelSpec, points, weights, regularization: float,
                 meta: TrainingMeta, fitted_values=None):
        self.kernel = kernel
        self.points = as_points(points)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.regularization = regularization
        self.meta = meta
        self.fitted_values = fitted_values

    def predict(self, x) -> np.ndarray:
        return kernel_matrix(self.kernel, x, self.points) @ self.weights


# Each kind binds predict in its own dict: perfbench/spans.py wraps it there by class name.
class KRREstimator(KernelExpansion):
    """Kernel expansion over all scenarios; saved with header key ``lam``."""

    kind, regularization_field, weights_column = "krr", "lam", "alpha"
    predict = KernelExpansion.predict


class InducingKRREstimator(KernelExpansion):
    """Kernel expansion over inducing points; saved with header key ``ridge``."""

    kind, regularization_field, weights_column = "inducing_krr", "ridge", "beta"
    predict = KernelExpansion.predict


_KERNEL_KINDS = {cls.kind: cls for cls in (KRREstimator, InducingKRREstimator)}


def _solve_expansion(cls, data: NestedDataset, spec: KernelSpec, points, basis, system, rhs,
                     regularization: float, detail: dict, diagnose):
    """Factor the SPD ``system`` in place and solve it for the weights.

    ``basis`` maps the weights to the fitted values at the scenarios.  A
    failed factorization raises :class:`FitError` with ``diagnose(exc)`` as
    its message.
    """
    try:
        cho = scipy.linalg.cho_factor(system, lower=True, overwrite_a=True, check_finite=False)
        weights = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FitError(diagnose(exc)) from exc
    fitted = basis @ weights
    meta = TrainingMeta(n=data.n, m=data.m, residual_norm=_residual_norm(fitted, data.ybar),
                        detail=detail)
    return cls(kernel=spec, points=points, weights=weights, regularization=regularization,
               meta=meta, fitted_values=fitted)


def default_regularization(spec: KernelSpec, n: int) -> float:
    """Regularization weight matched to the kernel's smoothness.

    Matern-family fits (Laplace included) use ``n**(-2s/(2s+d))`` with
    ``s = nu + d/2``; Gaussian fits use ``1/n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = spec.smoothness
    if s is None:
        return 1.0 / n
    return float(n ** (-2.0 * s / (2.0 * s + spec.dim)))


def _krr_system(k: np.ndarray, jitter: float, shift: float) -> np.ndarray:
    """``K + jitter I + shift I`` as a Fortran-ordered copy, which LAPACK can
    factor without copying again; the two diagonal adds keep that order."""
    system = k.copy(order="F")
    diag = np.diag_indices_from(system)
    system[diag] += jitter
    system[diag] += shift
    return system


def fit_krr(
    data: NestedDataset,
    spec: KernelSpec,
    lam: float,
    jitter: float = DEFAULT_JITTER,
) -> KRREstimator:
    """Solve ``(K + n lam I) weights = ybar`` on the jittered scenario gram.

    ``lam = 0`` is allowed (interpolation up to jitter).  A failed Cholesky
    factorization raises :class:`FitError` with a conditioning diagnostic.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    n = data.n
    k = kernel_matrix(spec, data.scenarios, data.scenarios)

    def diagnose(exc):
        # The system is factored in place, so the diagnostic rebuilds it from K.
        eigs = scipy.linalg.eigvalsh(_krr_system(k, jitter, n * lam))
        return (f"KRR solve failed at n={n}, lam={lam}: {exc}; "
                f"eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]")

    return _solve_expansion(KRREstimator, data, spec, data.scenarios, k,
                            _krr_system(k, jitter, n * lam), data.ybar, lam,
                            {"jitter": jitter}, diagnose)


def cross_validate_regularization(
    data: NestedDataset,
    spec: KernelSpec,
    grid=None,
    folds: int = 5,
    seed=0,
    jitter: float = DEFAULT_JITTER,
) -> float:
    """Pick the regularization weight by k-fold cross-validated squared error."""
    if grid is None:
        grid = np.logspace(-8, 2, 11)
    grid = [float(g) for g in grid]
    if not grid or any(g < 0 for g in grid):
        raise ValueError("grid must be nonempty with nonnegative entries")
    n = data.n
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_ids = np.array_split(order, folds)
    scores = np.zeros(len(grid))
    for held_out in fold_ids:
        train = np.setdiff1d(order, held_out)
        sub = NestedDataset(
            scenarios=data.scenarios[train],
            ybar=data.ybar[train],
            m=data.m,
            noise_sigma=data.noise_sigma,
        )
        target = data.ybar[held_out]
        held_pts = data.scenarios[held_out]
        for gi, lam in enumerate(grid):
            est = fit_krr(sub, spec, lam, jitter=jitter)
            scores[gi] += float(np.sum((est.predict(held_pts) - target) ** 2))
    return grid[int(np.argmin(scores))]


def fit_krr_inducing(
    data: NestedDataset,
    spec: KernelSpec,
    inducing,
    ridge: float | None = None,
) -> InducingKRREstimator:
    """Least squares on the span of kernel sections at the inducing points.

    Solves the normal equations ``(K_sn K_ns + ridge I) weights = K_sn ybar``.
    ``ridge=None`` applies the stability default ``1e-8 * trace / S``;
    ``ridge=0`` solves the bare normal equations and raises on rank
    deficiency, reporting the numerical rank.
    """
    ind = as_points(inducing)
    s_count = ind.shape[0]
    design = kernel_matrix(spec, data.scenarios, ind)
    system = design.T @ design
    rhs = design.T @ data.ybar
    if ridge is None:
        ridge = 1e-8 * float(np.trace(system)) / s_count
    elif ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    if ridge:
        system[np.diag_indices_from(system)] += ridge

    def diagnose(exc):
        # The system is factored in place, so the rank is read from a fresh K_sn K_ns.
        rank = int(np.linalg.matrix_rank(design.T @ design))
        return (f"inducing-point normal equations are rank deficient without ridge: "
                f"rank {rank} of {s_count}")

    return _solve_expansion(InducingKRREstimator, data, spec, ind, design, system, rhs, ridge,
                            {"inducing_count": s_count, "ridge": ridge}, diagnose)


# ---------------------------------------------------------------------------
# Sparse bounded ReLU network sieve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReluArchitecture:
    """Network shape plus the sieve's sparsity and magnitude budgets.

    ``hidden_widths`` lists the hidden layer sizes; ``depth`` counts affine
    maps.  ``sparsity=None`` means "as many nonzeros as there are
    parameters", i.e. no pruning.  ``max_param`` bounds every weight and
    bias in absolute value.  The defaults are a desk-scale, unpruned net.
    """

    hidden_widths: tuple[int, ...] = (256, 128)
    sparsity: int | None = None
    max_param: float = 1000.0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.hidden_widths)
        if not widths or any(w < 1 for w in widths):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_widths}")
        object.__setattr__(self, "hidden_widths", widths)
        if self.sparsity is not None and self.sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.sparsity}")
        if not self.max_param > 0:
            raise ValueError(f"max_param must be positive, got {self.max_param}")

    @property
    def depth(self) -> int:
        return len(self.hidden_widths) + 1

    def layer_dims(self, input_dim: int) -> list[int]:
        return [input_dim, *self.hidden_widths, 1]

    def parameter_count(self, input_dim: int) -> int:
        dims = self.layer_dims(input_dim)
        return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


# Adam's moment decay rates and denominator floor (Kingma & Ba 2015 defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# A trained network whose fitted values stray further than this many ybar ranges
# (floored at |mean| and noise_sigma / sqrt(m)) from the ybar mean has blown up.
# Working fits stay within half a range of it.
BLOWUP_RANGES = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """First-order training schedule for the network sieve.

    ``batch_size=None`` trains full-batch up to 4096 scenarios and falls back
    to shuffled minibatches of 1024 beyond that.
    """

    epochs: int = 2000
    batch_size: int | None = None
    learning_rate: float = 1e-3
    seed: object = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    def resolve_batch(self, n: int) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, n)
        return n if n <= 4096 else 1024


def unit_count(delta: float, d: int, s: float) -> int:
    """Number of approximation units needed to reach accuracy ``delta``:
    ``ceil(|delta log delta|**(-d/s))``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if d < 1 or s <= 0:
        raise ValueError(f"need d >= 1 and s > 0, got d={d}, s={s}")
    return int(math.ceil(abs(delta * math.log(delta)) ** (-d / s) - 1e-12))


def sparsity_budget(depth: int, width_unit: int, units: int) -> int:
    """Nonzero-parameter budget ``((depth - 1) * width_unit**2 + 1) * units``."""
    if depth < 2 or width_unit < 1 or units < 1:
        raise ValueError("need depth >= 2, width_unit >= 1, units >= 1")
    return ((depth - 1) * width_unit**2 + 1) * units


def relu_architecture_from_rate(
    d: int,
    s: float,
    delta: float,
    width_unit: int = 16,
    depth_constant: float = 1.0,
) -> ReluArchitecture:
    """Architecture schedule that realizes approximation accuracy ``delta``.

    With ``N = unit_count(delta, d, s)`` the schedule uses depth
    ``3 + 2 ceil(log2(3**(d v floor(s+2)) / (delta C)) + 5) ceil(log2(d v floor(s+2)))``,
    uniform width ``width_unit * N``, sparsity ``((depth-1) width_unit^2 + 1) N``,
    and magnitude bound ``N**(1/d)``.  ``width_unit`` and the depth constant
    ``C`` are free constants of the construction; the defaults are a
    practical choice.
    """
    if width_unit < 1:
        raise ValueError(f"width_unit must be >= 1, got {width_unit}")
    if not depth_constant > 0:
        raise ValueError(f"depth_constant must be positive, got {depth_constant}")
    n_units = unit_count(delta, d, s)
    base = max(d, int(math.floor(s + 2.0)))
    depth = 3 + 2 * math.ceil(math.log2(3.0**base / (delta * depth_constant)) + 5.0) * math.ceil(
        math.log2(base)
    )
    width = width_unit * n_units
    return ReluArchitecture(
        hidden_widths=(width,) * (depth - 1),
        sparsity=sparsity_budget(depth, width_unit, n_units),
        max_param=n_units ** (1.0 / d),
    )


class ReluSieveEstimator:
    """Trained sparse bounded network."""

    kind = "relu"

    def __init__(self, network: ReluNetwork, architecture: ReluArchitecture, meta: TrainingMeta,
                 fitted_values=None):
        self.network = network
        self.architecture = architecture
        self.meta = meta
        self.fitted_values = fitted_values

    def predict(self, x) -> np.ndarray:
        return self.network.forward(as_points(x))


def _project(vector: np.ndarray, bound: float, sparsity: int | None) -> None:
    """Clip the parameter vector into [-bound, bound] in place and prune its
    smallest-magnitude nonzeros down to the sparsity budget (earliest index
    wins ties)."""
    np.clip(vector, -bound, bound, out=vector)
    if sparsity is None or sparsity >= vector.size:
        return
    nonzero = np.flatnonzero(vector)
    excess = nonzero.size - sparsity
    if excess > 0:
        order = np.argsort(np.abs(vector[nonzero]), kind="stable")
        vector[nonzero[order[:excess]]] = 0.0


def fit_relu_sieve(
    data: NestedDataset,
    architecture: ReluArchitecture | None = None,
    train: TrainConfig | None = None,
) -> ReluSieveEstimator:
    """Train the network sieve on the inner averages.

    Minimizes the empirical squared loss with Adam-style updates (momentum
    plus per-parameter scaling), projecting after every step onto the sieve's
    magnitude and sparsity constraints.  Raises :class:`TrainingDiverged` if
    the loss turns non-finite or a fitted value lies more than
    :data:`BLOWUP_RANGES` times the range of ``ybar`` from its mean, the range
    floored at ``|mean|`` and at ``noise_sigma / sqrt(m)``.
    """
    arch = architecture if architecture is not None else ReluArchitecture()
    cfg = train if train is not None else TrainConfig()
    net = ReluNetwork(arch.layer_dims(data.dim), seed=cfg.seed)
    params = net.vector
    moment = np.zeros_like(params)
    scale = np.zeros_like(params)
    rng = np.random.default_rng(cfg.seed)
    batch = cfg.resolve_batch(data.n)
    n = data.n
    step = 0
    for _ in range(cfg.epochs):
        if batch >= n:
            slices = [slice(None)]
        else:
            order = rng.permutation(n)
            slices = [order[at : at + batch] for at in range(0, n, batch)]
        for sel in slices:
            loss, grad = net.loss_and_grad(data.scenarios[sel], data.ybar[sel])
            if not math.isfinite(loss):
                raise TrainingDiverged(iteration=step, loss=loss)
            step += 1
            moment *= ADAM_BETA1
            moment += (1.0 - ADAM_BETA1) * grad
            scale *= ADAM_BETA2
            scale += (1.0 - ADAM_BETA2) * grad * grad
            params -= (cfg.learning_rate * (moment / (1.0 - ADAM_BETA1**step))
                       / (np.sqrt(scale / (1.0 - ADAM_BETA2**step)) + ADAM_EPS))
            _project(params, arch.max_param, arch.sparsity)

    fitted = net.forward(data.scenarios)
    final_loss = float(np.mean((fitted - data.ybar) ** 2))
    if not math.isfinite(final_loss):
        raise TrainingDiverged(iteration=step, loss=final_loss)
    center = float(np.mean(data.ybar))
    spread = max(float(np.ptp(data.ybar)), abs(center), data.noise_sigma / math.sqrt(data.m))
    worst = float(np.max(np.abs(fitted - center)))
    if worst > BLOWUP_RANGES * spread:
        raise TrainingDiverged(
            iteration=step, loss=final_loss,
            message=f"fitted values reach {worst:.3g} from the ybar mean after {step} "
                    f"steps, beyond {BLOWUP_RANGES:g} x the ybar range {spread:.3g}")
    return ReluSieveEstimator(
        network=net,
        architecture=arch,
        meta=TrainingMeta(
            n=n,
            m=data.m,
            residual_norm=math.sqrt(final_loss),
            detail={"steps": step, "epochs": cfg.epochs, "batch": batch},
        ),
        fitted_values=fitted,
    )


# ---------------------------------------------------------------------------
# Columnar text serialization of fitted estimators (format in sievesim._textio)
# ---------------------------------------------------------------------------

def save_estimator(est, path) -> None:
    """Write a fitted estimator's kind and parameters as columnar text."""
    if est.kind == "sample_average":
        fields = {"n": len(est.ybar), "dim": est.scenarios.shape[1]}
        columns, table = "x_1..x_d ybar", np.column_stack((est.scenarios, est.ybar))
    elif isinstance(est, KernelExpansion):
        fields = {**kernel_fields(est.kernel), "n": len(est.weights),
                  est.regularization_field: float(est.regularization)}
        columns = f"x_1..x_d {est.weights_column}"
        table = np.column_stack((est.points, est.weights))
    elif est.kind == "relu":
        arch = est.architecture
        fields = {"dim": est.network.layer_dims[0],
                  "hidden": ",".join(str(w) for w in arch.hidden_widths),
                  "sparsity": arch.sparsity, "max_param": float(arch.max_param)}
        columns = "parameter (flattened W1,b1,W2,b2,...)"
        table = est.network.param_vector()[:, None]
    else:
        raise ValueError(f"cannot serialize estimator kind {est.kind!r}")
    write_table(path, "estimator", {"kind": est.kind, **fields}, columns, table)


def load_estimator(path):
    fields, data = read_table(path, "estimator")
    kind = fields["kind"]
    points, values = data[:, :-1], data[:, -1]
    meta = TrainingMeta(n=0, m=0, residual_norm=float("nan"), detail={"loaded": True})
    if kind == "sample_average":
        return SampleAverageEstimator(scenarios=points, ybar=values, meta=meta)
    if kind in _KERNEL_KINDS:
        cls = _KERNEL_KINDS[kind]
        return cls(kernel=kernel_from_fields(fields), points=points, weights=values,
                   regularization=float(fields[cls.regularization_field]), meta=meta)
    if kind == "relu":
        widths = tuple(int(w) for w in fields["hidden"].split(","))
        sparsity = None if fields["sparsity"] == "-" else int(fields["sparsity"])
        arch = ReluArchitecture(hidden_widths=widths, sparsity=sparsity,
                                max_param=float(fields["max_param"]))
        net = ReluNetwork(arch.layer_dims(int(fields["dim"])), seed=0)
        net.set_param_vector(data.ravel())
        return ReluSieveEstimator(network=net, architecture=arch, meta=meta)
    raise ValueError(f"unknown estimator kind {kind!r} in file")
