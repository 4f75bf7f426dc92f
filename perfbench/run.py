"""The sievesim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's configs are rendered
from the seed (see :mod:`workloads`) and run by ``repetition.py``, each
repetition in a fresh interpreter that imports ``sievesim`` from ``src/``.
A warm-up repetition of the workload at test scale comes first, checked but
not timed, then a few set-up probes that only import ``sievesim`` and parse
the configs; then repetitions start while the next one is expected to end
within ``--seconds``.

With ``--trace 0`` every repetition is untraced and the result carries the
end-to-end metrics as medians.  With ``--trace 1`` untraced and traced
repetitions alternate; the result carries the per-layer metrics, medians
over the traced repetitions, plus the tracing overhead.

Every repetition's output is checked: the CSVs parse back, theta and every
cell error are finite, replication counts add up with the FitErrors, and all
repetitions write the same CSV bytes.  A repetition that fails a check, or
does not finish, counts as a failed operation.  The last line of standard
output is the result; the line before it is a report with the machine,
provenance, sample counts, accuracy and the sha256 of every CSV.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0
# Set-up-only runs per benchmark run, so setup_s is a median of several
# samples even when a single full repetition fills the run.
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SIEVESIM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fit_ok_frac": "ratio",
              "abs_err_mean": "1"}

# Per-layer metric -> (unit, better, the end-to-end metric and workload it should move).
LAYER_METRICS = {
    "synthetic.true_theta.s":
        ("s", "lower", "run_s on theta_pair_d10; small on the other three"),
    "synthetic.eval_f.calls":
        ("count", "lower", "run_s on theta_pair_d10 (few large chunks) and small_cells_d1 "
                           "(many small calls)"),
    "synthetic.eval_f.s":
        ("s", "lower", "run_s on theta_pair_d10 and small_cells_d1"),
    "synthetic.simulate_inner.s": ("s", "lower", "run_s on small_cells_d1"),
    "synthetic.simulate_outer.s": ("s", "lower", "run_s on small_cells_d1"),
    "synthetic.make_test_function.s": ("s", "lower", "run_s on all workloads; small"),
    "kernels.kernel_matrix.calls":
        ("count", "lower", "run_s on theta_pair_d10 (Laplace stream) and krr_var_d10 "
                           "(Gaussian n-by-n)"),
    "kernels.kernel_matrix.entries":
        ("count", "lower", "run_s on theta_pair_d10 and krr_var_d10; falls only when work "
                           "is removed, e.g. a theta memo or reusing K at the training points"),
    "kernels.kernel_matrix.self_s":
        ("s", "lower", "run_s on theta_pair_d10 and krr_var_d10"),
    "kernels.kernel_matrix.entries_per_s":
        ("1/s", "higher", "run_s on theta_pair_d10 and krr_var_d10"),
    "kernels.random_subsample.s": ("s", "lower", "run_s on krr_var_d10 and theta_pair_d10"),
    "estimators.fit_krr.s": ("s", "lower", "run_s and peak_rss_mb on krr_var_d10"),
    "estimators.fit_krr.self_s":
        ("s", "lower", "run_s and peak_rss_mb on krr_var_d10 (copy, Cholesky, K alpha)"),
    "estimators.fit_krr_inducing.s":
        ("s", "lower", "run_s on krr_var_d10, and abs_err_mean there if the "
                       "inducing solve changes"),
    "estimators.fit_krr_inducing.self_s": ("s", "lower", "run_s on krr_var_d10"),
    "estimators.fit_relu_sieve.s": ("s", "lower", "run_s on relu_var_d10"),
    "estimators.fit_relu_sieve.self_s":
        ("s", "lower", "run_s on relu_var_d10 (Adam, clip, prune)"),
    "estimators.fit_sample_average.s": ("s", "lower", "run_s on small_cells_d1"),
    "estimators.predict.calls":
        ("count", "lower", "run_s on krr_var_d10 (n-by-n rebuild) and small_cells_d1 (cKDTree)"),
    "estimators.predict.s":
        ("s", "lower", "run_s on krr_var_d10 and small_cells_d1"),
    "estimators.fit_errors": ("count", "lower", "fit_ok_frac on every workload"),
    "network.loss_and_grad.calls": ("count", "lower", "run_s on relu_var_d10"),
    "network.loss_and_grad.s": ("s", "lower", "run_s on relu_var_d10"),
    "network.forward.s": ("s", "lower", "run_s on relu_var_d10"),
    "functionals.evaluate_functional.calls":
        ("count", "lower", "negligible today; kept so a costlier VaR path shows"),
    "functionals.evaluate_functional.s":
        ("s", "lower", "negligible today; kept so a costlier VaR path shows"),
    "harness.run_experiment.s": ("s", "lower", "run_s on small_cells_d1"),
    "harness.run_experiment.self_s":
        ("s", "lower", "run_s on small_cells_d1 (replication loop, seeding, aggregation)"),
    "harness.parse_config.s": ("s", "lower", "setup_s on all workloads"),
    "harness.emit_results.s": ("s", "lower", "run_s on all workloads"),
    "trace_overhead_s": ("s", "lower", "traced run_s minus the untraced median"),
}

# Counts that must repeat exactly between traced repetitions.
EXACT_COUNTS = ("synthetic.eval_f.calls", "kernels.kernel_matrix.calls",
                "kernels.kernel_matrix.entries", "estimators.predict.calls",
                "estimators.fit_errors", "network.loss_and_grad.calls",
                "functionals.evaluate_functional.calls")


def layer_values(summary: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from :func:`spans.summarize`."""
    values = {}
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        row = summary.get(span, {})
        if field in ("calls", "s", "self_s"):
            values[name] = row.get(field, 0)
        elif field == "entries":
            values[name] = row.get("count", 0)
    kernel = summary.get("kernels.kernel_matrix", {})
    values["kernels.kernel_matrix.entries_per_s"] = (
        kernel["count"] / kernel["self_s"] if kernel.get("self_s") else 0.0)
    values["estimators.fit_errors"] = sum(row["fit_errors"] for row in summary.values())
    return values


def run_repetition(configs: list[Path], out: Path, traced: bool, timeout: float,
                   setup_only: bool = False) -> dict | None:
    """Run one repetition in a fresh interpreter; None if it did not finish."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "repetition.py"), "--src", str(ROOT / "src"),
           "--out", str(out), *(["--trace"] if traced else []),
           *(["--setup-only"] if setup_only else []), *map(str, configs)]
    env = {k: v for k, v in os.environ.items() if k != "SIEVESIM_THREADS"}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"repetition in {out.name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition in {out.name} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((out / "repetition.json").read_text())


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def write_configs(workload, seed: int, tiny: bool, workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True)
    configs = []
    for stem, text in workloads.render(workload, seed, tiny=tiny).items():
        path = workdir / f"{stem}.ini"
        path.write_text(text)
        configs.append(path)
    return configs


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple:
    """Run repetitions for ``seconds``.

    Returns the warm-up's doc, the set-up probes' docs (each None if it did
    not finish) and the ``(traced, doc or None)`` pairs of the timed
    repetitions.  The warm-up runs the workload at test scale, because the
    first run after a pause is often slower than the rest; it costs a
    fraction of a full repetition, which leaves the timed ones the run.
    """
    start = time.perf_counter()
    warmup = run_repetition(write_configs(workload, seed, True, workdir / "tiny"),
                            workdir / "warmup", False, HARD_LIMIT_S)
    configs = write_configs(workload, seed, False, workdir / "full")
    setups = [run_repetition(configs, workdir / f"setup{k}", False,
                             start + HARD_LIMIT_S - time.perf_counter(), setup_only=True)
              for k in range(SETUP_PROBES)]
    plan = itertools.cycle([False, True] if trace else [False])
    sides = (False, True) if trace else (False,)
    reps = []
    for k, traced in enumerate(plan):
        began = time.perf_counter()
        doc = run_repetition(configs, workdir / f"rep{k}", traced,
                             start + HARD_LIMIT_S - began)
        reps.append((traced, doc))
        now = time.perf_counter()
        print(f"{workload.name}: repetition {k} took {now - began:.2f} s", file=sys.stderr)
        if not all(any(t == side for t, _ in reps) for side in sides):
            continue
        if now + (now - began) > start + min(seconds, HARD_LIMIT_S):
            return warmup, setups, reps


def evaluate(reps: list) -> tuple[int, list[str]]:
    """Count failed repetitions and list their problems."""
    problems = []
    done = [doc for _, doc in reps if doc is not None]
    common = collections.Counter(json.dumps(d["csv_sha256"], sort_keys=True)
                                 for d in done).most_common(1)
    reference_counts = None
    failed = len(reps) - len(done)
    for k, (traced, doc) in enumerate(reps):
        if doc is None:
            problems.append(f"repetition {k}: did not finish")
            continue
        mine = list(doc["problems"])
        if json.dumps(doc["csv_sha256"], sort_keys=True) != common[0][0]:
            mine.append("CSV bytes differ from the other repetitions")
        if traced:
            values = layer_values(spans.summarize(doc["spans"]))
            counted = sum(c["fits_failed"] for c in doc["configs"])
            if values["estimators.fit_errors"] != counted:
                mine.append(f"traced FitErrors {values['estimators.fit_errors']} "
                            f"!= failed replications {counted}")
            counts = {name: values[name] for name in EXACT_COUNTS}
            reference_counts = reference_counts or counts
            if counts != reference_counts:
                mine.append(f"counts {counts} differ from {reference_counts}")
        problems += [f"repetition {k}: {p}" for p in mine]
        failed += bool(mine)
    return failed, problems


def summarize_samples(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "n": len(samples), "values": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one sievesim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, used as every config's master_seed "
                             "(default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "sievesim" / "__init__.py").is_file():
        print(f"error: no sievesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warmup, setups, reps = measure(workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    timed = [(traced, doc) for traced, doc in reps if doc is not None]
    plain = [doc for traced, doc in timed if not traced]
    traced_docs = [doc for traced, doc in timed if traced]
    if not plain or (args.trace and not traced_docs):
        print("error: no repetition finished", file=sys.stderr)
        return 1
    failed, problems = evaluate(reps)
    warmup_problems = ["did not finish"] if warmup is None else warmup["problems"]
    failed += bool(warmup_problems)
    problems += [f"warm-up: {p}" for p in warmup_problems]
    failed += sum(doc is None for doc in setups)
    problems += [f"set-up probe {k}: did not finish" for k, doc in enumerate(setups)
                 if doc is None]

    first = plain[0]
    attempted_fits = sum(c["fits_attempted"] for c in first["configs"])
    failed_fits = sum(c["fits_failed"] for c in first["configs"])
    abs_err = statistics.fmean(e for c in first["configs"] for e in c["mean_abs_errors"])
    samples = {name: summarize_samples([doc[name] for doc in plain])
               for name in ("run_s", "peak_rss_mb")}
    samples["setup_s"] = summarize_samples(
        [doc["setup_s"] for doc in setups if doc is not None] + [doc["setup_s"] for doc in plain])
    if args.trace:
        layers = [layer_values(spans.summarize(doc["spans"])) for doc in traced_docs]
        samples["traced_run_s"] = summarize_samples([doc["run_s"] for doc in traced_docs])
        values = {name: layers[0][name] if name in EXACT_COUNTS
                  else statistics.median(v[name] for v in layers) for name in layers[0]}
        values["trace_overhead_s"] = (samples["traced_run_s"]["median"]
                                      - samples["run_s"]["median"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in LAYER_METRICS.items()}
    else:
        values = {name: samples[name]["median"] for name in ("run_s", "setup_s", "peak_rss_mb")}
        values["fit_ok_frac"] = 1.0 - failed_fits / attempted_fits
        values["abs_err_mean"] = abs_err
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one harness worker (SIEVESIM_THREADS unset)",
        "machine": first["machine"],
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
        "configs": first["configs"],
        "fits_attempted": attempted_fits,
        "fits_failed": failed_fits,
        "fit_fail_frac": failed_fits / attempted_fits,
        "abs_err_mean": abs_err,
        "csv_sha256": first["csv_sha256"],
        "samples": samples,
        "problems": problems,
    }
    print(json.dumps({"report": report}))
    attempted = len(reps) + len(setups) + 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
