"""Config-driven convergence experiments with deterministic seed streams.

A run sweeps scenario counts (or total budgets under an allocation scheme),
replicates each cell with fresh data, fits every configured estimator on the
same data, and records the absolute error of the plug-in functional against
a high-resolution Monte Carlo reference.

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

Set the ``SIEVESIM_THREADS`` environment variable to run replications in a
thread pool; output is identical either way.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimators as est_mod
from ._textio import csv_text, read_csv
from .estimators import FitError, ReluArchitecture, TrainConfig
from .functionals import FunctionalSpec, evaluate_functional
from .kernels import DEFAULT_JITTER, KernelSpec, farthest_point_sample, random_subsample
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
    "SlopeFit", "emit_results", "fit_loglog_slope", "parse_config", "parse_results_csv",
    "run_experiment", "slopes_from_cells",
]

_TESTFN_TAG = 0
_THETA_TAG = 1
_DATA_TAG = 2
_FIT_TAG = 3
_EVAL_TAG = 4


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


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
        defaults = {key: option.parse(option.default) for key, option in table.items()}
        object.__setattr__(self, "options", defaults | self.options)


@dataclass(frozen=True)
class ExperimentConfig:
    functional: FunctionalSpec
    kernel: KernelSpec
    estimators: tuple[EstimatorSetting, ...]
    sizes: tuple[int, ...] | None = None
    m: int = 1
    budgets: tuple[int, ...] | None = None
    allocation: str = "standard"
    centers: int = 1000
    sigma: float = 1.0
    replications: int = 50
    master_seed: int = 0
    theta_eval_points: int = 1_000_000
    record_timing: bool = True
    evaluation: str = "train"
    smoothness: float | None = None
    alpha: float | None = None
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if (self.sizes is None) == (self.budgets is None):
            raise ConfigError("exactly one of sizes/budgets must be set")
        if not self.estimators:
            raise ConfigError("at least one estimator is required")
        modes = self.modes()
        for key, entry in EXPERIMENT_FIELDS.items():
            value = getattr(self, key)
            if value is not None and not entry.ok(value):
                raise ConfigError(f"{key} must be {entry.accepts}, got {value!r}")
            if entry.mode not in modes and value != self.__dataclass_fields__[key].default:
                raise _unread(key, entry.mode)
        names = [e.name for e in self.estimators]
        if len(set(names)) < len(names):
            raise ConfigError(f"duplicate estimator names in {names}")
        cells = self.cells()
        for setting in self.estimators:
            need = ESTIMATOR_KINDS[setting.kind].min_n
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


@dataclass(frozen=True)
class ExperimentResult:
    cells: tuple[CellStats, ...]
    slopes: tuple[SlopeFit, ...]
    theta: ThetaOracle
    warnings: tuple[str, ...] = ()

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


# ---------------------------------------------------------------------------
# Estimator kinds.  Each sieve the harness runs is one ESTIMATOR_KINDS entry:
# its options (default text, accepted values, parser), its fit of one
# replication, and its predicted rate.  A bad option value is a ConfigError
# when the config is read, not a failed fit; EstimatorSetting fills in defaults.
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    default: str
    accepts: str
    parse: Callable[[str], object]


@dataclass(frozen=True)
class EstimatorKind:
    """One estimator kind as the harness runs it.

    ``fit(options, data, kernel, seed)`` fits one replication from the parsed
    options.  ``rate(s, d)`` is the predicted plug-in error rate for
    smoothness ``s`` (None for the Gaussian kernel) in dimension ``d``, or
    None when there is no prediction.  Every n of a sweep must be at least
    ``min_n``.
    """

    fit: Callable
    rate: Callable
    options: dict[str, Option] = field(default_factory=dict)
    min_n: int = 1


def _parse(section: str, key: str, raw: str, parse, accepts: str = ""):
    try:
        return parse(raw)
    except ValueError:
        expected = f"; expected {accepts}" if accepts else ""
        raise ConfigError(f"section [{section}]: bad value {key} = {raw!r}{expected}") from None


def _checked(cast, ok):
    """A parser that reads a value with ``cast`` and rejects it unless ``ok(value)``."""
    def parse(raw: str):
        value = cast(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return parse


def _integer(value, least: int = 1) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _finite_nonnegative(value) -> bool:
    return math.isfinite(value) and value >= 0.0


def _keywords(words: dict, parse=None):
    """A parser mapping each keyword in ``words`` to its value, else ``parse``."""
    def parse_option(raw: str):
        if raw in words:
            return words[raw]
        if parse is None:
            raise ValueError(raw)
        return parse(raw)
    return parse_option


_count = _checked(int, _integer)
_positive = _checked(float, lambda v: v > 0.0)
_nonnegative = _checked(float, _finite_nonnegative)
_auto = _keywords({"auto": None}, _count)


def _counts(raw: str) -> tuple[int, ...]:
    values = tuple(_count(part) for part in raw.replace(",", " ").split())
    if not values:
        raise ValueError(raw)
    return values


# The fits call est_mod.fit_* (and the subset samplers) by name at call time,
# so a function rebound on its module (by a tracer or a test) takes effect.
def _fit_krr(options, data, kernel, seed):
    lam = options["lambda"]
    if lam == "default":
        lam = est_mod.default_regularization(kernel, data.n)
    elif lam == "cv":
        lam = est_mod.cross_validate_regularization(data, kernel)
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
        "lambda": Option("default", "default, cv or a number >= 0",
                         _keywords({"default": "default", "cv": "cv"}, _nonnegative)),
        "jitter": Option(repr(DEFAULT_JITTER), "a number >= 0", _nonnegative),
    }),
    "inducing_krr": EstimatorKind(fit=_fit_inducing, rate=_kernel_rate, min_n=2, options={
        "schedule": Option("experiment", "experiment, theory or an integer >= 1",
                           _keywords({"experiment": "experiment", "theory": "theory"}, _count)),
        "selection": Option("random", "random or farthest",
                            _keywords({"random": "random", "farthest": "farthest"})),
        "ridge": Option("default", "default or a number >= 0",
                        _keywords({"default": None}, _nonnegative)),
    }),
    "relu": EstimatorKind(fit=_fit_relu, rate=_relu_rate, options={
        "hidden_widths": Option(_text(ReluArchitecture.hidden_widths),
                                "integers >= 1, separated by spaces or commas", _counts),
        "epochs": Option(_text(TrainConfig.epochs), "an integer >= 1", _count),
        "batch_size": Option(_text(TrainConfig.batch_size), "auto or an integer >= 1", _auto),
        "learning_rate": Option(_text(TrainConfig.learning_rate), "a number > 0", _positive),
        "sparsity": Option(_text(ReluArchitecture.sparsity), "auto or an integer >= 1", _auto),
        "max_param": Option(_text(ReluArchitecture.max_param), "a number > 0 (inf allowed)",
                            _positive),
    }),
}


# ---------------------------------------------------------------------------
# Config file parsing (INI-style: one [experiment] section plus one
# [estimator NAME] section per estimator; values are flat key = value lines).
# ---------------------------------------------------------------------------

class ExperimentKey(NamedTuple):
    """An ``[experiment]`` key, named as its :class:`ExperimentConfig` field: its
    accepted values, reader, range rule (applied when parsed and by ``__post_init__``)
    and the mode that reads it (one of :meth:`ExperimentConfig.modes`)."""

    accepts: str
    cast: Callable[[str], object]
    ok: Callable[[object], bool] = lambda value: True
    mode: str = ""


def _probability(value) -> bool:
    return 0.0 < value <= 1.0


# Every [experiment] key but the spec keys; an omitted key keeps its field default.
EXPERIMENT_FIELDS: dict[str, ExperimentKey] = {
    "sizes": ExperimentKey("integers >= 1, separated by spaces or commas", _counts,
                           lambda v: all(map(_integer, v))),
    "m": ExperimentKey("an integer >= 1", int, _integer, "sizes"),
    "budgets": ExperimentKey("integers >= 8, separated by spaces or commas", _counts,
                             lambda v: all(_integer(b, 8) for b in v)),
    "allocation": ExperimentKey("standard or smooth", str,
                                lambda v: v in ("standard", "smooth"), "budgets"),
    "centers": ExperimentKey("an integer >= 1", int, _integer),
    "sigma": ExperimentKey("a finite number >= 0", float, _finite_nonnegative),
    "replications": ExperimentKey("an integer >= 1", int, _integer),
    "master_seed": ExperimentKey("an integer >= 0", int, lambda v: _integer(v, 0)),
    "theta_eval_points": ExperimentKey("an integer >= 1", int, _integer),
    "record_timing": ExperimentKey(
        "true, false, yes, no, on, off, 1 or 0",
        lambda raw: _keywords(configparser.ConfigParser.BOOLEAN_STATES)(raw.lower())),
    "evaluation": ExperimentKey("train or fresh", str, lambda v: v in ("train", "fresh")),
    "smoothness": ExperimentKey("a finite number > 0", float, lambda v: 0.0 < v < math.inf),
    "alpha": ExperimentKey("a number in (0, 1]", float, _probability, "var"),
    "beta": ExperimentKey("a number in (0, 1]", float, _probability, "alpha"),
    "gamma": ExperimentKey("a finite number >= 1", float, lambda v: 1.0 <= v < math.inf,
                           "alpha"),
}
# The spec keys, read into the FunctionalSpec and KernelSpec, which apply their own rules.
SPEC_KEYS = ("functional", "eta", "tau", "kernel", "nu", "d")


def _unread(key: str, mode: str) -> ConfigError:
    return ConfigError(f"experiment key {key!r} is only read with {mode}")


def parse_config(path) -> ExperimentConfig:
    """Read an experiment description from an INI-style text file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    unknown = set(exp) - set(SPEC_KEYS) - set(EXPERIMENT_FIELDS)
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")

    def value(key, parse, accepts=""):
        return None if key not in exp else _parse("experiment", key, exp[key], parse, accepts)

    try:
        functional = FunctionalSpec(exp.get("functional", "nested_expectation"),
                                    eta=exp.get("eta"), tau=value("tau", float))

        family = exp.get("kernel", "laplace")
        d = value("d", _count, "an integer >= 1")
        if d is None:
            raise ConfigError("experiment key 'd' is required")
        kernel = KernelSpec(family, d, nu=value("nu", float))

        settings = []
        for section in parser.sections():
            if section == "experiment":
                continue
            if not section.startswith("estimator"):
                raise ConfigError(f"unexpected section [{section}]")
            name = section[len("estimator"):].strip() or "estimator"
            body = dict(parser[section])
            est_kind = body.pop("kind", name)
            # Convert the options set here; EstimatorSetting checks the rest and fills defaults.
            table = ESTIMATOR_KINDS[est_kind].options if est_kind in ESTIMATOR_KINDS else {}
            options = {key: _parse(section, key, raw, table[key].parse, table[key].accepts)
                       if key in table else raw for key, raw in body.items()}
            settings.append(EstimatorSetting(name=name, kind=est_kind, options=options))

        fields = {key: value(key, _checked(entry.cast, entry.ok), entry.accepts)
                  for key, entry in EXPERIMENT_FIELDS.items() if key in exp}
        config = ExperimentConfig(functional=functional, kernel=kernel,
                                  estimators=tuple(settings), **fields)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
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
    return simulate_inner(
        surface, scenarios, m, config.sigma,
        seed=_seed(config.master_seed, _DATA_TAG, size_index, replication, 1))


def _worker_count() -> int:
    """Worker threads from ``SIEVESIM_THREADS`` (default 1), capped at the CPU count."""
    raw = os.environ.get("SIEVESIM_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"SIEVESIM_THREADS must be a positive integer, got {raw!r}")
    return min(int(raw), os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep and aggregate per-cell error statistics.

    Fit failures (:class:`~sievesim.estimators.FitError`) invalidate single
    replications and the run continues; any other exception aborts with the
    failing cell identified.  Slopes are fitted per estimator to
    ``log(mean_abs_error)`` against ``log(n * m)`` when at least three cells
    are valid; otherwise the slope is omitted and a warning recorded.
    """
    workers = _worker_count()
    cells = config.cells()
    surface = config_test_function(config)
    theta = config_theta(config)

    def run_cell(si: int, r: int):
        data = simulate_cell(config, surface, si, r)
        eval_points = None
        if config.evaluation == "fresh":
            eval_points = simulate_outer(
                data.n, config.kernel.dim,
                seed=_seed(config.master_seed, _EVAL_TAG, si, r))
        out = []
        for ei, setting in enumerate(config.estimators):
            fit_seed = _seed(config.master_seed, _FIT_TAG, si, r, ei)
            start = time.perf_counter()
            try:
                fitted = ESTIMATOR_KINDS[setting.kind].fit(
                    setting.options, data, config.kernel, fit_seed)
                values = (fitted.fitted_values if eval_points is None
                          else fitted.predict(eval_points))
                estimate = evaluate_functional(values, config.functional)
                err = abs(estimate - theta.value)
            except FitError as exc:
                out.append((None, time.perf_counter() - start,
                            f"{setting.name} at n={data.n}, replication {r}: {exc}"))
                continue
            except Exception as exc:
                raise RuntimeError(
                    f"estimator {setting.name!r} failed at n={data.n}, replication {r}"
                ) from exc
            out.append((err, time.perf_counter() - start, None))
        return out

    jobs = [(si, r) for si in range(len(cells)) for r in range(config.replications)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cell_outputs = list(pool.map(lambda sr: run_cell(*sr), jobs))
    else:
        cell_outputs = [run_cell(si, r) for si, r in jobs]

    # cell_outputs[si * replications + r][ei] is (error or None, seconds, warning).
    warnings = [warning for outputs in cell_outputs for *_, warning in outputs if warning]
    stats: list[CellStats] = []
    for ei, setting in enumerate(config.estimators):
        for si, (n, m) in enumerate(cells):
            runs = [outputs[ei] for outputs in
                    cell_outputs[si * config.replications:(si + 1) * config.replications]]
            vals = [err for err, _, _ in runs if err is not None]
            if vals:
                mean = float(np.mean(vals))
                std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            else:
                mean, std = float("nan"), float("nan")
                warnings.append(f"{setting.name}: every replication failed at n={n}")
            stats.append(CellStats(
                estimator=setting.name, n=n, m=m, replications=len(vals),
                mean_abs_error=mean, std_abs_error=std,
                wall_time_s=sum(t for _, t, _ in runs) if config.record_timing else 0.0,
            ))
            if not enters_slope_fit(stats[-1]):
                warnings.append(f"{setting.name}: cell n={n} excluded from slope fit "
                                f"(mean error {mean})")
        if len(cells) >= 3 and sum(map(enters_slope_fit, stats[-len(cells):])) < 3:
            warnings.append(f"{setting.name}: too few valid cells for a slope fit")

    return ExperimentResult(
        cells=tuple(stats),
        slopes=tuple(slopes_from_cells(stats)),
        theta=theta,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def slope_sibling_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + "_slopes" + path.suffix)


def emit_results(result: ExperimentResult, fmt: str = "csv", path="results.csv") -> list[Path]:
    """Write per-cell statistics (with a slope companion file for CSV).

    CSV columns are fixed; floats carry 17 significant digits so parsing the
    file back reproduces them bit for bit.  JSON mirrors the same fields in
    one document.  Returns the paths written.
    """
    path = Path(path)
    if fmt == "csv":
        slope_path = slope_sibling_path(path)
        path.write_text(csv_text(CellStats, result.cells), newline="\n")
        slope_path.write_text(csv_text(SlopeFit, result.slopes), newline="\n")
        return [path, slope_path]
    if fmt == "json":
        doc = {"cells": [dataclasses.asdict(c) for c in result.cells],
               "slopes": [dataclasses.asdict(s) for s in result.slopes]}
        path.write_text(json.dumps(doc, indent=2) + "\n", newline="\n")
        return [path]
    raise ValueError(f"unknown output format {fmt!r}")


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
