"""Config-driven convergence experiments with deterministic seed streams.

A run sweeps scenario counts (or total budgets under an allocation scheme),
replicates each cell with fresh data, fits every configured estimator on the
same data, and records the absolute error of the plug-in functional against
a high-resolution Monte Carlo reference.  ``emit_results`` writes the tables
to exactly the files that ``output_paths`` lists.

Seed layout: all randomness derives from ``master_seed`` through
``numpy.random.SeedSequence`` with fixed integer tags, so any cell can be
reproduced in isolation and replications may run concurrently:

* test function: ``(master, 0)``
* reference value: ``(master, 1)``
* data for size index ``si``, replication ``r``: scenarios ``(master, 2, si, r, 0)``,
  inner noise ``(master, 2, si, r, 1)``
* estimator ``ei`` auxiliary draws (initialization, batching, inducing-point
  selection): ``(master, 3, si, r, ei)``
* fresh evaluation points (optional mode): ``(master, 4, si, r)``
* ``lambda = cv`` folds: seed 0 in every cell, not the estimator stream above

Every sweep fits its (size, replication) jobs on a pool of ``SIEVESIM_THREADS`` threads
(default 1), with the same output at any count, through ``kernels._run_all``: each job
runs under the caller's numpy error state, and the first error that aborts the run
cancels the queued jobs and is raised after the running ones end.

Each routine whose bits depend on BLAS's thread count holds BLAS at one thread itself
(``kernels._one_blas_thread``), so the output bytes do not depend on it; on several
workers, which share the cores, the whole sweep holds it too.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimators as est_mod
from ._textio import csv_text, json_text, read_csv
from .estimators import FitError, ReluArchitecture, TrainConfig
from .functionals import FunctionalSpec, evaluate_functional
from .kernels import (DEFAULT_JITTER, KernelSpec, _one_blas_thread, _run_all, _usable_cpus,
                      farthest_point_sample, random_subsample)
from .rates import (
    allocate,
    inducing_count_schedule,
    predict_gaussian_rkhs_rate,
    predict_relu_rate,
    predict_sobolev_rate,
)
from .synthetic import ThetaOracle, make_test_function, simulate_inner, simulate_outer, true_theta

__all__ = [
    "CellStats", "ConfigError", "EstimatorSetting", "ExperimentConfig", "ExperimentResult",
    "FitRecord", "SlopeFit", "emit_results", "fit_loglog_slope", "parse_config",
    "parse_results_csv", "run_experiment", "slopes_from_cells",
]

_TESTFN_TAG = 0
_THETA_TAG = 1
_DATA_TAG = 2
_FIT_TAG = 3
_EVAL_TAG = 4


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


# ---------------------------------------------------------------------------
# Config value rules.  Every estimator option and [experiment] key has one
# Option, which reads its text and checks a value built in Python.  A bad value
# is a ConfigError when the config is read or an EstimatorSetting or
# ExperimentConfig is built, not a failed fit.
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    """A config value's rule: its accepted values, the reader and range rule of its
    text, the keywords it takes with their values, and either an estimator option's
    default text or the mode that reads an ``[experiment]`` key (one of
    :meth:`ExperimentConfig.modes`)."""

    accepts: str
    cast: Callable[[str], object] = str
    ok: Callable[[object], bool] = lambda value: False
    words: dict = {}
    default: str = ""
    mode: str = ""

    def parse(self, raw: str):
        """The value of config text: a keyword's value, else the text read by ``cast``
        if that :meth:`holds`; ValueError if the text is unreadable or out of range."""
        if raw in self.words:
            return self.words[raw]
        value = self.cast(raw)
        if not self.holds(value):
            raise ValueError(raw)
        return value

    def holds(self, value) -> bool:
        """Whether a value is one this rule accepts."""
        return value in self.words.values() or self.ok(value)


def _parse(section: str, key: str, raw: str, rule: Option):
    try:
        return rule.parse(raw)
    except ValueError:
        raise ConfigError(f"section [{section}]: bad value {key} = {raw!r}; "
                          f"expected {rule.accepts}") from None


def _integer(value, least: int = 1) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _integers(value, least: int = 1) -> bool:
    """Whether ``value`` is a nonempty tuple or list of integers of at least ``least``."""
    return (isinstance(value, (tuple, list)) and len(value) > 0
            and all(_integer(v, least) for v in value))


def _number(value) -> bool:
    """Whether ``value`` is a real number (not a bool)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _counts(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.replace(",", " ").split())


def _nonnegative(value) -> bool:
    return _number(value) and math.isfinite(value) and value >= 0.0


def _positive(value) -> bool:
    return _number(value) and value > 0.0


_COUNT = Option("an integer >= 1", int, _integer)
_COUNTS = Option("integers >= 1, separated by spaces or commas", _counts, _integers)
_AUTO_OR_COUNT = Option("auto or an integer >= 1", int, _integer, {"auto": None})
_PROBABILITY = Option("a number in (0, 1]", float, lambda v: _number(v) and 0.0 < v <= 1.0)


def _key(default, rule: Option):
    """An ``[experiment]`` key's field: its default, with its rule as ``rule`` metadata."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class EstimatorSetting:
    """One estimator of the config: a name, a kind of :data:`ESTIMATOR_KINDS` and its parsed
    options; an omitted option gets the kind's default here, for files and Python alike."""

    name: str
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if "," in self.name:
            raise ConfigError(f"estimator name {self.name!r} contains ',', "
                              f"which the results CSV cannot hold")
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"estimator {self.name!r}: unknown kind {self.kind!r}")
        table = ESTIMATOR_KINDS[self.kind].options
        unknown = sorted(set(self.options) - set(table))
        if unknown:
            raise ConfigError(f"estimator {self.name!r} ({self.kind}): unknown options {unknown}")
        for key, value in self.options.items():
            if not table[key].holds(value):
                raise ConfigError(f"estimator {self.name!r} ({self.kind}): {key} must be "
                                  f"{table[key].accepts}, got {value!r}")
        defaults = {key: option.parse(option.default) for key, option in table.items()}
        object.__setattr__(self, "options", defaults | self.options)


@dataclass(frozen=True)
class ExperimentConfig:
    functional: FunctionalSpec
    kernel: KernelSpec
    estimators: tuple[EstimatorSetting, ...]
    sizes: tuple[int, ...] | None = _key(None, _COUNTS)
    m: int = _key(1, _COUNT._replace(mode="sizes"))
    budgets: tuple[int, ...] | None = _key(None, Option(
        "integers >= 8, separated by spaces or commas", _counts, lambda v: _integers(v, 8)))
    allocation: str = _key("standard", Option(
        "standard or smooth", words={"standard": "standard", "smooth": "smooth"}, mode="budgets"))
    centers: int = _key(1000, _COUNT)
    sigma: float = _key(1.0, Option("a finite number >= 0", float, _nonnegative))
    replications: int = _key(50, _COUNT)
    master_seed: int = _key(0, Option("an integer >= 0", int, lambda v: _integer(v, 0)))
    theta_eval_points: int = _key(1_000_000, _COUNT)
    record_timing: bool = _key(True, Option(
        "a bool (in a file: true, false, yes, no, on, off, 1 or 0)",
        lambda raw: configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower()),
        lambda v: isinstance(v, bool)))
    evaluation: str = _key("train", Option(
        "train or fresh", words={"train": "train", "fresh": "fresh"}))
    smoothness: float | None = _key(None, Option(
        "a finite number > 0", float, lambda v: _positive(v) and v < math.inf))
    alpha: float | None = _key(None, _PROBABILITY._replace(mode="var"))
    beta: float = _key(1.0, _PROBABILITY._replace(mode="alpha"))
    gamma: float = _key(1.0, Option("a finite number >= 1", float,
                                    lambda v: _number(v) and 1.0 <= v < math.inf, mode="alpha"))

    def __post_init__(self):
        if (self.sizes is None) == (self.budgets is None):
            raise ConfigError("exactly one of sizes/budgets must be set")
        if not self.estimators:
            raise ConfigError("at least one estimator is required")
        modes = self.modes()
        for key, rule in EXPERIMENT_FIELDS.items():
            value, default = getattr(self, key), self.__dataclass_fields__[key].default
            # None means "unset" only for a field whose default is None.
            if (value is not None or default is not None) and not rule.holds(value):
                raise ConfigError(f"{key} must be {rule.accepts}, got {value!r}")
            if rule.mode not in modes and value != default:
                raise _unread(key, rule.mode)
        names = [e.name for e in self.estimators]
        if len(set(names)) < len(names):
            raise ConfigError(f"duplicate estimator names in {names}")
        cells = self.cells()
        for setting in self.estimators:
            need = ESTIMATOR_KINDS[setting.kind].min_n(setting.options)
            if any(n < need for n, _ in cells):
                raise ConfigError(f"{'sizes' if self.sizes is not None else 'budgets'}: "
                                  f"estimator {setting.name!r} ({setting.kind}) needs n >= {need} "
                                  f"at every size, got {[n for n, _ in cells]}")

    def modes(self) -> set[str]:
        """The modes whose keys this config reads: ``""`` (every config), ``sizes`` or
        ``budgets``, the functional's kind, and ``alpha`` once alpha is set."""
        return {"", "sizes" if self.sizes is not None else "budgets", self.functional.kind,
                *(("alpha",) if self.alpha is not None else ())}

    def cells(self) -> list[tuple[int, int]]:
        """Resolved (n, m) pairs in sweep order."""
        if self.sizes is not None:
            return [(int(n), self.m) for n in self.sizes]
        out = []
        for budget in self.budgets:
            alloc = allocate(self.allocation, int(budget))
            out.append((alloc.n, alloc.m))
        return out


# Every [experiment] key but the spec keys, named as its ExperimentConfig field; an
# omitted key keeps its field default.
EXPERIMENT_FIELDS: dict[str, Option] = {f.name: f.metadata["rule"] for f in
                                        dataclasses.fields(ExperimentConfig) if f.metadata}


@dataclass(frozen=True)
class CellStats:
    estimator: str
    n: int
    m: int
    replications: int
    mean_abs_error: float
    std_abs_error: float
    wall_time_s: float


@dataclass(frozen=True)
class SlopeFit:
    estimator: str
    slope: float
    intercept: float
    slope_stderr: float


class FitRecord(NamedTuple):
    """One estimator's fit of the dataset at one (size, replication) cell: its absolute
    error and wall time, or an error of None with the FitError text in ``failure``."""

    size_index: int
    replication: int
    estimator: str
    error: float | None
    seconds: float
    failure: str | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """A run's output.  ``records`` holds every :class:`FitRecord` in job order (size,
    replication, estimator); the cells, slopes and warnings are folded from them."""

    cells: tuple[CellStats, ...]
    slopes: tuple[SlopeFit, ...]
    theta: ThetaOracle
    warnings: tuple[str, ...] = ()
    records: tuple[FitRecord, ...] = ()

    def get_cell(self, estimator: str, n: int) -> CellStats:
        for cell in self.cells:
            if cell.estimator == estimator and cell.n == n:
                return cell
        raise KeyError(f"no cell for estimator {estimator!r} at n={n}")

    def get_slope(self, estimator: str) -> SlopeFit:
        for s in self.slopes:
            if s.estimator == estimator:
                return s
        raise KeyError(f"no slope for estimator {estimator!r}")


def fit_loglog_slope(points) -> tuple[float, float, float]:
    """Least-squares line through ``(log x, log error)``.

    Returns ``(slope, intercept, slope_stderr)``; the standard error is zero
    for a two-point fit (no residual degrees of freedom).
    """
    pts = [(float(x), float(e)) for x, e in points]
    if len(pts) < 2:
        raise ValueError(f"need at least two points, got {len(pts)}")
    if any(x <= 0 or e <= 0 for x, e in pts):
        raise ValueError("log-log fit needs positive sizes and errors")
    lx = np.log([x for x, _ in pts])
    le = np.log([e for _, e in pts])
    k = len(pts)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("all sizes coincide; slope is undefined")
    slope = float(np.sum((lx - lx.mean()) * (le - le.mean())) / sxx)
    intercept = float(le.mean() - slope * lx.mean())
    if k == 2:
        return slope, intercept, 0.0
    rss = float(np.sum((le - intercept - slope * lx) ** 2))
    return slope, intercept, math.sqrt(rss / (k - 2) / sxx)


# Each sieve the harness runs is one ESTIMATOR_KINDS entry: its options, its fit of one
# replication, and its predicted rate.  An EstimatorSetting fills in omitted options.
@dataclass(frozen=True)
class EstimatorKind:
    """One estimator kind as the harness runs it.

    ``fit(options, data, kernel, seed)`` fits one replication from the parsed
    options.  ``rate(s, d)`` is the predicted plug-in error rate for
    smoothness ``s`` (None for the Gaussian kernel) in dimension ``d``, or
    None when there is no prediction.  Every n of a sweep must be at least
    ``min_n(options)``.
    """

    fit: Callable
    rate: Callable
    options: dict[str, Option] = field(default_factory=dict)
    min_n: Callable = lambda options: 1


# The fits call est_mod.fit_* (and the subset samplers) by name at call time,
# so a function rebound on its module (by a tracer or a test) takes effect.
def _fit_krr(options, data, kernel, seed):
    lam = options["lambda"]
    if lam == "default":
        lam = est_mod.default_regularization(kernel, data.n)
    elif lam == "cv":
        lam = est_mod.cross_validate_regularization(data, kernel, jitter=options["jitter"])
    return est_mod.fit_krr(data, kernel, lam, jitter=options["jitter"])


def _fit_inducing(options, data, kernel, seed):
    count = options["schedule"]
    if isinstance(count, str):
        count = inducing_count_schedule(kernel.family, kernel.dim, data.n,
                                        s=kernel.smoothness, mode=count)
    count = max(1, min(count, data.n))
    select = random_subsample if options["selection"] == "random" else farthest_point_sample
    inducing = data.scenarios[select(data.scenarios, count, seed=seed)]
    return est_mod.fit_krr_inducing(data, kernel, inducing, ridge=options["ridge"])


def _fit_relu(options, data, kernel, seed):
    arch = ReluArchitecture(options["hidden_widths"], options["sparsity"], options["max_param"])
    train = TrainConfig(epochs=options["epochs"], batch_size=options["batch_size"],
                        learning_rate=options["learning_rate"], seed=seed)
    return est_mod.fit_relu_sieve(data, arch, train)


def _kernel_rate(s, d):
    return predict_gaussian_rkhs_rate(d) if s is None else predict_sobolev_rate(s, d).plugin_error


def _relu_rate(s, d):
    return None if s is None or s < 1 else predict_relu_rate(s, d)


def _text(default) -> str:
    """A default as option text: None as ``auto``, a tuple as its items, else its repr."""
    if default is None:
        return "auto"
    return " ".join(map(str, default)) if isinstance(default, tuple) else repr(default)


ESTIMATOR_KINDS: dict[str, EstimatorKind] = {
    "sample_average": EstimatorKind(
        fit=lambda options, data, kernel, seed: est_mod.fit_sample_average(data),
        rate=lambda s, d: None),
    "krr": EstimatorKind(fit=_fit_krr, rate=_kernel_rate, options={
        "lambda": Option("default, cv or a number >= 0", float, _nonnegative,
                         {"default": "default", "cv": "cv"}, "default"),
        "jitter": Option("a number >= 0", float, _nonnegative, default=repr(DEFAULT_JITTER)),
    }, min_n=lambda options: 5 if options["lambda"] == "cv" else 1),  # cv scores 5 folds
    "inducing_krr": EstimatorKind(fit=_fit_inducing, rate=_kernel_rate, options={
        "schedule": Option("experiment, theory or an integer >= 1", int, _integer,
                           {"experiment": "experiment", "theory": "theory"}, "experiment"),
        "selection": Option("random or farthest",
                            words={"random": "random", "farthest": "farthest"}, default="random"),
        "ridge": Option("default or a number >= 0", float, _nonnegative, {"default": None},
                        "default"),
    }, min_n=lambda options: 2),
    "relu": EstimatorKind(fit=_fit_relu, rate=_relu_rate, options={
        "hidden_widths": _COUNTS._replace(default=_text(ReluArchitecture.hidden_widths)),
        "epochs": _COUNT._replace(default=_text(TrainConfig.epochs)),
        "batch_size": _AUTO_OR_COUNT._replace(default=_text(TrainConfig.batch_size)),
        "learning_rate": Option("a number > 0", float, _positive,
                                default=_text(TrainConfig.learning_rate)),
        "sparsity": _AUTO_OR_COUNT._replace(default=_text(ReluArchitecture.sparsity)),
        "max_param": Option("a number > 0 (inf allowed)", float, _positive,
                            default=_text(ReluArchitecture.max_param)),
    }),
}


# ---------------------------------------------------------------------------
# Config file parsing (INI-style: one [experiment] section plus one
# [estimator NAME] section per estimator; values are flat key = value lines).
# ---------------------------------------------------------------------------

# The spec keys, read into the FunctionalSpec and KernelSpec, which apply their own rules.
SPEC_KEYS = ("functional", "eta", "tau", "kernel", "nu", "d")


def _unread(key: str, mode: str) -> ConfigError:
    return ConfigError(f"experiment key {key!r} is only read with {mode}")


def parse_config(path) -> ExperimentConfig:
    """Read an experiment description from an INI-style text file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no config file at {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    unknown = set(exp) - set(SPEC_KEYS) - set(EXPERIMENT_FIELDS)
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")

    def value(key, rule):
        return None if key not in exp else _parse("experiment", key, exp[key], rule)

    number = Option("a number", float, _number)
    try:
        functional = FunctionalSpec(exp.get("functional", "nested_expectation"),
                                    eta=exp.get("eta"), tau=value("tau", number))

        family = exp.get("kernel", "laplace")
        d = value("d", _COUNT)
        if d is None:
            raise ConfigError("experiment key 'd' is required")
        kernel = KernelSpec(family, d, nu=value("nu", number))

        settings = []
        for section in parser.sections():
            if section == "experiment":
                continue
            if not section.startswith("estimator"):
                raise ConfigError(f"unexpected section [{section}]")
            name = section[len("estimator"):].strip() or "estimator"
            body = dict(parser[section])
            est_kind = body.pop("kind", name)
            # Read the options set here; EstimatorSetting rejects unknown ones, fills defaults.
            table = ESTIMATOR_KINDS[est_kind].options if est_kind in ESTIMATOR_KINDS else {}
            options = {key: _parse(section, key, raw, table[key]) if key in table else raw
                       for key, raw in body.items()}
            settings.append(EstimatorSetting(name=name, kind=est_kind, options=options))

        fields = {key: value(key, rule) for key, rule in EXPERIMENT_FIELDS.items() if key in exp}
        config = ExperimentConfig(functional=functional, kernel=kernel,
                                  estimators=tuple(settings), **fields)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        # The message itself: a KeyError's str() is its message's repr, in quotes.
        raise ConfigError(f"bad config value: {exc.args[0] if exc.args else exc}") from exc
    # A key that the config's mode never reads is an error even at its default.
    modes = config.modes()
    for key in exp:
        if key in EXPERIMENT_FIELDS and EXPERIMENT_FIELDS[key].mode not in modes:
            raise _unread(key, EXPERIMENT_FIELDS[key].mode)
    return config


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _seed(master: int, *tags: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([master, *tags])


# Surfaces and references are memoized per process by the config fields that
# determine them, so configs that share a surface build it, and compute its
# reference, once.  A TestFunction is immutable, so sharing one is safe.
def config_test_function(config: ExperimentConfig):
    return _test_function(config.kernel, config.centers, config.master_seed)


def config_theta(config: ExperimentConfig) -> ThetaOracle:
    return _theta(config.kernel, config.centers, config.master_seed,
                  config.theta_eval_points, config.functional)


@functools.lru_cache(maxsize=16)
def _test_function(kernel: KernelSpec, centers: int, master: int):
    return make_test_function(kernel, n_centers=centers, seed=_seed(master, _TESTFN_TAG))


@functools.lru_cache(maxsize=16)
def _theta(kernel: KernelSpec, centers: int, master: int, eval_points: int,
           functional: FunctionalSpec) -> ThetaOracle:
    return true_theta(_test_function(kernel, centers, master), functional,
                      eval_points=eval_points, seed=_seed(master, _THETA_TAG))


def simulate_cell(config: ExperimentConfig, surface, size_index: int, replication: int):
    """Reproduce the dataset used at one (size, replication) cell."""
    n, m = config.cells()[size_index]
    scenarios = simulate_outer(
        n, config.kernel.dim,
        seed=_seed(config.master_seed, _DATA_TAG, size_index, replication, 0))
    return simulate_inner(surface, scenarios, m, config.sigma,
                          seed=_seed(config.master_seed, _DATA_TAG, size_index, replication, 1))


def _worker_count() -> int:
    """Worker threads from ``SIEVESIM_THREADS`` (default 1), capped at the usable CPUs."""
    raw = os.environ.get("SIEVESIM_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"SIEVESIM_THREADS must be a positive integer, got {raw!r}")
    return min(int(raw), _usable_cpus())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep and fold its fit records into per-cell error statistics.

    Fit failures (:class:`~sievesim.estimators.FitError`) invalidate single
    replications and the run continues; any other exception aborts once the
    running cells finish, with the failing cell identified.  Slopes are fitted
    per estimator to ``log(mean_abs_error)`` against ``log(n * m)`` when at
    least three cells are valid; otherwise the slope is omitted.  A warning
    names each failed fit and each cell left out of a slope fit, and, in a
    sweep of three or more cells, each estimator left without a slope.  Where no
    OpenBLAS is found to hold at one thread (module docstring), the last warning says so.
    """
    workers = _worker_count()
    cells = config.cells()
    surface = config_test_function(config)
    theta = config_theta(config)

    def run_cell(si: int, r: int) -> list[FitRecord]:
        data = simulate_cell(config, surface, si, r)
        eval_points = None
        if config.evaluation == "fresh":
            eval_points = simulate_outer(
                data.n, config.kernel.dim,
                seed=_seed(config.master_seed, _EVAL_TAG, si, r))
        out = []
        for ei, setting in enumerate(config.estimators):
            kind = ESTIMATOR_KINDS[setting.kind]
            fit_seed = _seed(config.master_seed, _FIT_TAG, si, r, ei)
            start = time.perf_counter()
            err = failure = None
            try:
                fitted = kind.fit(setting.options, data, config.kernel, fit_seed)
                values = (fitted.fitted_values if eval_points is None
                          else fitted.predict(eval_points))
                estimate = evaluate_functional(values, config.functional)
                err = abs(estimate - theta.value)
            except FitError as exc:
                failure = f"{setting.name} at n={data.n}, replication {r}: {exc}"
            except Exception as exc:
                raise RuntimeError(
                    f"estimator {setting.name!r} failed at n={data.n}, replication {r}"
                ) from exc
            out.append(FitRecord(si, r, setting.name, err, time.perf_counter() - start, failure))
        return out

    jobs = [(si, r) for si in range(len(cells)) for r in range(config.replications)]
    pin = _one_blas_thread if workers > 1 else contextlib.nullcontext()
    with ThreadPoolExecutor(workers) as pool, pin:
        batches = _run_all(pool, run_cell, jobs)
    records = tuple(record for batch in batches for record in batch)

    warnings = [record.failure for record in records if record.failure]
    stats: list[CellStats] = []
    for setting in config.estimators:
        for si, (n, m) in enumerate(cells):
            cell_runs = [run for run in records
                         if run.estimator == setting.name and run.size_index == si]
            vals = [run.error for run in cell_runs if run.error is not None]
            if vals:
                mean = float(np.mean(vals))
                std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            else:
                mean, std = float("nan"), float("nan")
                warnings.append(f"{setting.name}: every replication failed at n={n}")
            stats.append(CellStats(
                estimator=setting.name, n=n, m=m, replications=len(vals),
                mean_abs_error=mean, std_abs_error=std,
                wall_time_s=sum(run.seconds for run in cell_runs) if config.record_timing else 0.0,
            ))
            if not enters_slope_fit(stats[-1]):
                warnings.append(f"{setting.name}: cell n={n} excluded from slope fit "
                                f"(mean error {mean})")
        if len(cells) >= 3 and sum(map(enters_slope_fit, stats[-len(cells):])) < 3:
            warnings.append(f"{setting.name}: too few valid cells for a slope fit")
    if not _one_blas_thread.libraries:
        warnings.append("BLAS ran at its default thread count: no bundled OpenBLAS was found")

    return ExperimentResult(
        cells=tuple(stats),
        slopes=tuple(slopes_from_cells(stats)),
        theta=theta,
        warnings=tuple(warnings),
        records=records,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def slope_sibling_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + "_slopes" + path.suffix)


def output_paths(fmt: str, path) -> list[Path]:
    """The files :func:`emit_results` writes: ``path`` and, for CSV, its slope sibling."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    path = Path(path)
    return [path, slope_sibling_path(path)] if fmt == "csv" else [path]


def emit_results(result: ExperimentResult, fmt: str = "csv", path="results.csv") -> list[Path]:
    """Write per-cell statistics (with a slope companion file for CSV).

    CSV columns are fixed; floats carry 17 significant digits so parsing the
    file back reproduces them bit for bit.  JSON mirrors the same fields in
    one document (:func:`~sievesim._textio.json_text`).  Writes, and returns,
    exactly ``output_paths(fmt, path)``.
    """
    paths = output_paths(fmt, path)
    texts = ([csv_text(CellStats, result.cells), csv_text(SlopeFit, result.slopes)]
             if fmt == "csv" else [json_text(cells=result.cells, slopes=result.slopes)])
    for written, text in zip(paths, texts, strict=True):
        written.write_text(text, encoding="utf-8", newline="\n")
    return paths


def parse_results_csv(path) -> list[CellStats]:
    """Read back a cell CSV written by :func:`emit_results`."""
    return read_csv(path, CellStats)


def enters_slope_fit(cell: CellStats) -> bool:
    """Whether a cell is a point of its estimator's log-log slope fit."""
    return math.isfinite(cell.mean_abs_error) and cell.mean_abs_error > 0.0


def slopes_from_cells(cells) -> list[SlopeFit]:
    """Refit per-estimator slopes from cell statistics (e.g. a parsed CSV)."""
    grouped: dict[str, list[tuple[float, float]]] = {}
    for c in cells:
        points = grouped.setdefault(c.estimator, [])
        if enters_slope_fit(c):
            points.append((c.n * c.m, c.mean_abs_error))
    return [SlopeFit(name, *fit_loglog_slope(points))
            for name, points in grouped.items() if len(points) >= 3]
