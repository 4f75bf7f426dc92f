"""Budget allocation and closed-form convergence-rate predictions.

Rates are expressed as a power of a scale variable with an optional
polylog factor: ``scale**exponent * log(scale)**log_power`` (natural log).
For the kernel sieves the scale of the fit-error ("critical radius")
prediction is the total sample count ``n * m``; plug-in error predictions
are powers of the simulation budget with one inner sample per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BudgetAllocation", "NestedRatePrediction", "RatePrediction", "allocate",
    "inducing_count_schedule", "predict_gaussian_rkhs_rate", "predict_relu_rate",
    "predict_sobolev_rate", "predict_var_rate",
]

_SCHEDULE_SLACK = 1e-9  # guards ceil against float products overshooting integers


def _iceil(x: float) -> int:
    return int(math.ceil(x - _SCHEDULE_SLACK))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class BudgetAllocation:
    """Split of a simulation budget into scenarios times inner samples."""

    scheme: str
    budget: int
    n: int
    m: int


@dataclass(frozen=True)
class RatePrediction:
    """A predicted error scale ``x**exponent * ln(x)**log_power``."""

    sieve: str
    exponent: float
    log_power: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.exponent > 0:
            raise ValueError(f"error exponents are nonpositive, got {self.exponent}")

    def evaluate(self, scale: float) -> float:
        """Evaluate the predicted scale at ``scale > 1``."""
        if scale <= 1.0:
            raise ValueError(f"scale must exceed 1, got {scale}")
        return scale**self.exponent * math.log(scale) ** self.log_power


@dataclass(frozen=True)
class NestedRatePrediction:
    """Fit-error radius together with the plug-in error it implies."""

    critical_radius: RatePrediction
    plugin_error: RatePrediction


def allocate(scheme: str, budget: int) -> BudgetAllocation:
    """Split a budget into ``(n, m)`` under the named allocation scheme.

    ``"standard"`` balances inner noise against outer sampling error with
    ``n ~ budget^(2/3)`` scenarios and ``m ~ budget^(1/3)`` inner samples
    (half-up rounding; ``m`` is then walked down so ``n * m <= budget``).
    ``"smooth"`` spends the entire budget on scenarios: ``n = budget, m = 1``,
    the right choice when the surface is fit by a regression sieve.
    """
    if budget < 8:
        raise ValueError(f"budget must be at least 8, got {budget}")
    if scheme == "smooth":
        return BudgetAllocation(scheme=scheme, budget=budget, n=int(budget), m=1)
    if scheme != "standard":
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    n = max(1, _round_half_up(budget ** (2.0 / 3.0)))
    m = max(1, _round_half_up(budget ** (1.0 / 3.0)))
    while n * m > budget and m > 1:
        m -= 1
    return BudgetAllocation(scheme=scheme, budget=budget, n=n, m=m)


def predict_sobolev_rate(s: float, d: int) -> NestedRatePrediction:
    """Rates for kernel sieves of Sobolev-type smoothness ``s`` in dimension ``d``.

    The fit-error radius decays like ``(n m)**(-s/(2s+d))``.  Feeding the fit
    into a smooth nested expectation with all budget on scenarios gives a
    plug-in exponent of ``max(-1/2, -2s/(2s+d))``; above ``s = d/2`` the
    central-limit term dominates and the plug-in error is root-budget.
    """
    if s <= 0:
        raise ValueError(f"smoothness must be positive, got {s}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    radius_exp = -s / (2.0 * s + d)
    plugin_exp = max(-0.5, 2.0 * radius_exp)
    return NestedRatePrediction(
        critical_radius=RatePrediction(
            sieve="sobolev_krr",
            exponent=radius_exp,
            description=f"fit-error radius, s={s:g}, d={d}",
        ),
        plugin_error=RatePrediction(
            sieve="sobolev_krr",
            exponent=plugin_exp,
            description="plug-in nested expectation, one inner sample per scenario",
        ),
    )


def predict_gaussian_rkhs_rate(d: int) -> RatePrediction:
    """Fit-error radius for Gaussian-kernel sieves: root-n up to a polylog.

    The radius decays like ``(n m)**(-1/2) * log(n m)**((d+1)/2)``.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return RatePrediction(
        sieve="gaussian_krr",
        exponent=-0.5,
        log_power=(d + 1) / 2.0,
        description=f"fit-error radius, Gaussian kernel, d={d}",
    )


def predict_relu_rate(s: float, d: int) -> RatePrediction:
    """Fit-error radius for sparse ReLU network sieves on Holder-``s`` surfaces.

    Decays like ``n**(-s/(2s+d)) * log(n)``; requires ``s >= 1``.
    """
    if s < 1:
        raise ValueError(f"network sieve rate needs smoothness >= 1, got {s}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return RatePrediction(
        sieve="relu",
        exponent=-s / (2.0 * s + d),
        log_power=1.0,
        description=f"fit-error radius, sparse network, s={s:g}, d={d}",
    )


def predict_var_rate(
    base: RatePrediction, alpha: float, beta: float, gamma: float
) -> RatePrediction:
    """Value-at-risk rate implied by a fit-error rate.

    ``alpha`` is the sup-to-empirical norm conversion exponent of the sieve,
    ``beta`` and ``gamma`` bound the distribution of the surface near the
    quantile (density lower bound needs ``beta <= 1 <= gamma``).  The VaR
    error is the worse of the converted fit error, scaled by
    ``kappa = alpha * beta / gamma``, and an order-statistic term
    ``n**(-1/(2 gamma))``.  With ``kappa = 1`` and ``gamma = 1`` the base
    rate passes through unchanged.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be a finite number >= 1, got {gamma}")
    kappa = alpha * beta / gamma
    converted = kappa * base.exponent
    order_stat = -1.0 / (2.0 * gamma)
    if converted >= order_stat:
        return RatePrediction(
            sieve=base.sieve,
            exponent=converted,
            log_power=kappa * base.log_power,
            description=f"value-at-risk via fit error, kappa={kappa:g}",
        )
    return RatePrediction(
        sieve=base.sieve,
        exponent=order_stat,
        log_power=0.0,
        description=f"value-at-risk, order-statistic term, gamma={gamma:g}",
    )


def inducing_count_schedule(
    family: str, d: int, n: int, s: float | None = None, mode: str = "experiment"
) -> int:
    """How many inducing points to use at ``n`` scenarios.

    ``mode="theory"`` uses the counts under which the reduced sieve provably
    matches the full kernel fit: ``ceil(n**(d/(2s+d)))`` for the Matern
    family and ``ceil(log(n)**(d/2))`` for the Gaussian kernel.
    ``mode="experiment"`` uses the lighter desk-scale schedules
    ``ceil(sqrt(n))`` (Laplace) and ``ceil(log(n)**3)`` (Gaussian).
    Logs are natural.
    """
    if n < 2:
        raise ValueError(f"schedule needs n >= 2, got {n}")
    if mode not in ("experiment", "theory"):
        raise ValueError(f"unknown schedule mode {mode!r}")
    if family == "gaussian":
        power = d / 2.0 if mode == "theory" else 3.0
        return _iceil(math.log(n) ** power)
    if family in ("laplace", "matern"):
        if mode == "experiment":
            return _iceil(math.sqrt(n))
        if s is None or s <= 0:
            raise ValueError("theory schedule for the Matern family needs smoothness s > 0")
        return _iceil(n ** (d / (2.0 * s + d)))
    raise ValueError(f"unknown kernel family {family!r}")
