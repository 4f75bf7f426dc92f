"""Command line front end.

Subcommands:

* ``run``    execute a config-driven experiment and write result tables
* ``rates``  print the predicted convergence rates for a config
* ``gen``    write the synthetic test function (and one cell's dataset) to disk
* ``slope``  refit log-log slopes from a previously written results CSV

Exit status is 0 on success, 1 for configuration/usage errors, and 2 for
runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ._textio import csv_text
from .harness import (
    ESTIMATOR_KINDS,
    ConfigError,
    ExperimentConfig,
    SlopeFit,
    config_test_function,
    emit_results,
    parse_config,
    parse_results_csv,
    run_experiment,
    simulate_cell,
    slopes_from_cells,
)
from .rates import allocate, predict_var_rate
from .synthetic import save_dataset, save_test_function


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors surface as ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sievesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to an INI experiment config")
    run.add_argument("--out", default="results.csv", help="output path (default results.csv)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--replications", type=int, default=None,
                     help="override the replication count")

    rates = sub.add_parser("rates", help="print predicted rates for a config")
    rates.add_argument("config")

    gen = sub.add_parser("gen", help="write the synthetic problem to disk")
    gen.add_argument("config")
    gen.add_argument("--out", default=".", help="output directory (default .)")
    gen.add_argument("--cell", type=int, default=0, help="sweep cell index (default 0)")
    gen.add_argument("--replication", type=int, default=0)
    gen.add_argument("--seed", type=int, default=None, help="override master_seed")

    slope = sub.add_parser("slope", help="refit slopes from a results CSV")
    slope.add_argument("results", help="path to a results CSV written by run")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        updates["replications"] = args.replications
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_run(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    result = run_experiment(config)
    paths = emit_results(result, fmt=args.format, path=args.out)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"reference value: {result.theta.value:.12g}")
    for cell in result.cells:
        print(f"{cell.estimator:>16s}  n={cell.n:<7d} m={cell.m:<5d} "
              f"mean|err|={cell.mean_abs_error:.6g}  ({cell.replications} reps)")
    for s in result.slopes:
        print(f"{s.estimator:>16s}  slope={s.slope:+.4f} (stderr {s.slope_stderr:.4f})")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _predicted_rate(config: ExperimentConfig, kind: str):
    s = config.smoothness if config.smoothness is not None else config.kernel.smoothness
    base = ESTIMATOR_KINDS[kind].rate(s, config.kernel.dim)
    if base is None:
        return None
    if config.functional.kind == "var" and config.var_alpha is not None:
        return predict_var_rate(base, config.var_alpha, config.var_beta, config.var_gamma)
    return base


def _cmd_rates(args) -> int:
    config = parse_config(args.config)
    if config.budgets is not None:
        print("allocation:")
        for budget in config.budgets:
            a = allocate(config.allocation, budget)
            print(f"  budget={budget:<10d} n={a.n:<8d} m={a.m}")
    print("predicted plug-in error rates (as a power of the sample budget):")
    for setting in config.estimators:
        pred = _predicted_rate(config, setting.kind)
        if pred is None:
            print(f"  {setting.name:>16s}  no rate prediction for kind "
                  f"{setting.kind!r} with this kernel")
            continue
        log_note = f" * log^{pred.log_power:g}" if pred.log_power else ""
        print(f"  {setting.name:>16s}  exponent {pred.exponent:+.6f}{log_note}"
              f"  [{pred.description}]")
    return 0


def _cmd_gen(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    cells = config.cells()
    if not 0 <= args.cell < len(cells):
        raise ConfigError(f"cell index {args.cell} out of range "
                          f"(config has {len(cells)} cells)")
    if not 0 <= args.replication < config.replications:
        raise ConfigError(f"replication {args.replication} out of range "
                          f"(config has {config.replications})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    surface = config_test_function(config)
    fn_path = out_dir / "test_function.txt"
    save_test_function(surface, fn_path)
    print(f"wrote {fn_path}")
    data = simulate_cell(config, surface, args.cell, args.replication)
    data_path = out_dir / f"dataset_c{args.cell}_r{args.replication}.txt"
    save_dataset(data, data_path)
    print(f"wrote {data_path}")
    return 0


def _cmd_slope(args) -> int:
    path = Path(args.results)
    if not path.exists():
        raise ConfigError(f"results file not found: {path}")
    cells = parse_results_csv(path)
    slopes = slopes_from_cells(cells)
    if not slopes:
        print("no estimator has enough valid cells for a slope fit", file=sys.stderr)
        return 2
    print(csv_text(SlopeFit, slopes), end="")
    return 0


_COMMANDS = {"run": _cmd_run, "rates": _cmd_rates, "gen": _cmd_gen, "slope": _cmd_slope}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, do not traceback
        print(f"failed: {exc}", file=sys.stderr)
        if exc.__cause__ is not None:
            print(f"  cause: {exc.__cause__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
