"""The benchmark's workloads and the experiment configs generated for them.

Every workload is closed loop: one caller runs one experiment at a time, with
one harness worker (``SIEVESIM_THREADS`` unset) and BLAS threads at their
default.  A workload is a list of INI configs rendered from a workload seed,
which becomes the ``master_seed`` of every config, so the two configs of
``theta_pair_d10`` share one surface.  Every config sets
``record_timing = false`` so the CSV bytes are deterministic.

Replication counts are set by ``abs_err_mean``: it is fixed for a seed, but
from seed to seed it moves like the mean of the configured replications'
errors, so every workload runs enough of them to keep that spread
well inside the metric's bound.

The templates live here rather than being read from ``configs/`` so that an
edit to a shipped config cannot change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

_LAPLACE_D10 = {
    "functional": "nested_expectation", "eta": "square", "kernel": "laplace",
    "d": "10", "centers": "1000", "sigma": "1.0",
}
_VAR_GAUSSIAN_D10 = {
    "functional": "var", "tau": "0.95", "kernel": "gaussian",
    "d": "10", "centers": "1000", "sigma": "1.0",
}


@dataclass(frozen=True)
class Workload:
    """A named set of experiment configs, and why the benchmark runs it.

    ``configs`` maps a file stem to its sections; each section maps keys to
    values.  ``tiny`` holds per-config overrides of the ``[experiment]``
    section (and of estimator sections, keyed by section name) that shrink
    the workload to test scale.
    """

    name: str
    why: str
    default_seed: int
    configs: dict
    tiny: dict


WORKLOADS = {w.name: w for w in (
    Workload(
        name="theta_pair_d10",
        why="Two configs on one Laplace d=10 surface, so the reference theta "
            "(the eval_f chunk stream) dominates; a theta memo or parallel "
            "chunk loop shows here and almost nowhere else.",
        default_seed=20240802,
        configs={
            "inducing_sqrt_rate_d10": {
                "experiment": {**_LAPLACE_D10, "sizes": "500 1000 2000 4000", "m": "1",
                               "replications": "6", "theta_eval_points": "100000"},
                "estimator inducing_krr": {"schedule": "experiment", "selection": "random"},
            },
            "standard_rate_d10_reference": {
                "experiment": {**_LAPLACE_D10, "budgets": "4000", "allocation": "standard",
                               "replications": "30", "theta_eval_points": "100000"},
                "estimator sample_average": {},
            },
        },
        tiny={
            "inducing_sqrt_rate_d10": {"experiment": {"replications": "1",
                                                      "theta_eval_points": "2000"}},
            "standard_rate_d10_reference": {"experiment": {"replications": "1",
                                                           "theta_eval_points": "2000"}},
        },
    ),
    Workload(
        name="krr_var_d10",
        why="Gaussian d=10 VaR with full KRR and inducing fits at n up to 4000: "
            "dense n-by-n grams and Cholesky dominate time and set peak memory.",
        default_seed=20240803,
        configs={
            "var_ordering_d10": {
                "experiment": {**_VAR_GAUSSIAN_D10, "sizes": "1000 2000 4000", "m": "1",
                               "replications": "4", "theta_eval_points": "25000"},
                "estimator krr": {"lambda": "default"},
                "estimator inducing_krr": {"schedule": "experiment", "selection": "random"},
            },
        },
        tiny={
            "var_ordering_d10": {"experiment": {"replications": "1",
                                                "theta_eval_points": "2000"}},
        },
    ),
    Workload(
        name="relu_var_d10",
        why="ReLU network sieve at n=4000: loss_and_grad and the Adam, clip and "
            "prune loop take nearly all the time, with no kernel solve.",
        default_seed=20240803,
        configs={
            "var_relu_network_d10": {
                "experiment": {**_VAR_GAUSSIAN_D10, "sizes": "4000", "m": "1",
                               "replications": "14", "theta_eval_points": "25000"},
                "estimator relu": {"epochs": "60", "batch_size": "512"},
            },
        },
        tiny={
            "var_relu_network_d10": {"experiment": {"replications": "1",
                                                    "theta_eval_points": "2000"},
                                     "estimator relu": {"epochs": "3"}},
        },
    ),
    Workload(
        name="small_cells_d1",
        why="Gaussian d=1 sample-average sweep of many small replications: "
            "per-call overhead of simulate_inner, eval_f and the harness loop "
            "shows here, not the big theta stream.",
        default_seed=20240801,
        configs={
            "standard_rate_d1": {
                "experiment": {"functional": "nested_expectation", "eta": "square",
                               "kernel": "gaussian", "d": "1", "centers": "1000",
                               "budgets": "1000 3000 10000 30000 100000",
                               "allocation": "standard", "sigma": "1.0",
                               "replications": "70", "theta_eval_points": "20000"},
                "estimator sample_average": {},
            },
        },
        tiny={
            "standard_rate_d1": {"experiment": {"replications": "1",
                                                "theta_eval_points": "2000"}},
        },
    ),
)}


def render(workload: Workload, seed: int, tiny: bool = False) -> dict[str, str]:
    """INI text for each config of ``workload``, keyed by file stem."""
    out = {}
    for stem, sections in workload.configs.items():
        overrides = workload.tiny.get(stem, {}) if tiny else {}
        lines = []
        for section, body in sections.items():
            body = {**body, **overrides.get(section, {})}
            if section == "experiment":
                body = {**body, "master_seed": str(seed), "record_timing": "false"}
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in body.items())
            lines.append("")
        out[stem] = "\n".join(lines)
    return out
