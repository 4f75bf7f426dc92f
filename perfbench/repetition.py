"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/repetition.py --src SRC --out DIR [--trace | --setup-only] CONFIG.ini...

Imports ``sievesim`` from ``SRC``, parses the configs, runs each through
``run_experiment`` and ``emit_results`` into ``DIR``, then checks the output
and writes ``DIR/repetition.json``; with ``--setup-only`` it stops after
parsing and writes only ``setup_s``.  ``setup_s`` runs from just before
``import sievesim`` to the last parsed config; ``run_s`` from the first
``run_experiment`` call to the last CSV written.  With ``--trace`` the spans
of :mod:`spans` are recorded and written out with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

import spans as spans_mod

# run_experiment reports a FitError as "<estimator> at n=<n>, replication <r>: <message>".
_FIT_WARNING = re.compile(r"^(?P<name>.+) at n=(?P<n>\d+), replication \d+: ")


def machine() -> dict:
    """Interpreter, library and BLAS versions, read in this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def check(harness, config, result, csv_path: Path) -> list[str]:
    """Problems with one config's output; an empty list means it is correct."""
    problems = []
    parsed = harness.parse_results_csv(csv_path)
    if parsed != list(result.cells):
        problems.append(f"{csv_path.name}: parsed cells differ from the result")
    if harness.slopes_from_cells(parsed) != list(result.slopes):
        problems.append(f"{csv_path.name}: slopes refitted from the CSV differ")
    if not math.isfinite(result.theta.value):
        problems.append(f"{csv_path.name}: theta is {result.theta.value}")
    fit_errors: dict[tuple[str, int], int] = {}
    for warning in result.warnings:
        match = _FIT_WARNING.match(warning)
        if match:
            key = (match["name"], int(match["n"]))
            fit_errors[key] = fit_errors.get(key, 0) + 1
    for cell in result.cells:
        where = f"{csv_path.name}: {cell.estimator} n={cell.n}"
        if not (math.isfinite(cell.mean_abs_error) and math.isfinite(cell.std_abs_error)):
            problems.append(f"{where}: non-finite error")
        expected = config.replications - fit_errors.get((cell.estimator, cell.n), 0)
        if cell.replications != expected:
            problems.append(f"{where}: {cell.replications} replications, expected {expected}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("configs", type=Path, nargs="+")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    setup_start = time.perf_counter()
    sievesim = importlib.import_module("sievesim")
    harness = importlib.import_module("sievesim.harness")
    if not Path(sievesim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sievesim was imported from {sievesim.__file__}, not {src}")
    tracer = spans_mod.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    configs = [harness.parse_config(path) for path in args.configs]
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        (args.out / "repetition.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0

    run_start = time.perf_counter()
    results = []
    for config, path in zip(configs, args.configs):
        result = harness.run_experiment(config)
        harness.emit_results(result, "csv", args.out / f"{path.stem}.csv")
        results.append(result)
    run_s = time.perf_counter() - run_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems, report, digests = [], [], {}
    for config, path, result in zip(configs, args.configs, results):
        csv_path = args.out / f"{path.stem}.csv"
        problems += check(harness, config, result, csv_path)
        for written in (csv_path, harness.slope_sibling_path(csv_path)):
            digests[written.name] = hashlib.sha256(written.read_bytes()).hexdigest()
        fits = len(result.cells) * config.replications
        report.append({
            "config": path.stem,
            "master_seed": config.master_seed,
            "theta": result.theta.value,
            "fits_attempted": fits,
            "fits_failed": fits - sum(c.replications for c in result.cells),
            "mean_abs_errors": [c.mean_abs_error for c in result.cells],
        })
    doc = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "traced": bool(tracer),
        "machine": machine(),
        "configs": report,
        "csv_sha256": digests,
        "problems": problems,
    }
    if tracer:
        doc["spans"] = tracer.spans
    (args.out / "repetition.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
