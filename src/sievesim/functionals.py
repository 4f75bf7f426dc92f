"""Plug-in functionals applied to fitted surfaces: nested means and VaR.

A functional turns the vector of fitted values at the outer scenarios into a
single number.  Two kinds are supported:

* ``nested_expectation``: the average of a smooth map ``eta`` of the values.
* ``var``: the ``ceil(tau * n)``-th order statistic (1-based, ascending), the
  standard empirical value-at-risk without interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FunctionalSpec", "evaluate_functional", "nested_expectation", "resolve_eta", "var_estimate",
]

# Hard saturation keeps exp from overflowing while leaving the typical range
# of fitted values untouched.
_EXP_CLIP = 50.0

ETA_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "square": np.square,
    "identity": lambda z: np.asarray(z, dtype=float),
    "exp_clipped": lambda z: np.exp(np.clip(z, -_EXP_CLIP, _EXP_CLIP)),
}


def resolve_eta(eta: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up a registered eta by name."""
    try:
        return ETA_REGISTRY[eta]
    except KeyError:
        raise KeyError(
            f"unknown eta {eta!r}; registered names: {sorted(ETA_REGISTRY)}"
        ) from None


def _as_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("functional of an empty value vector is undefined")
    if not np.all(np.isfinite(v)):
        raise ValueError("values contain non-finite entries")
    return v


def nested_expectation(values, eta="square") -> float:
    """Mean of ``eta`` over the values."""
    v = _as_values(values)
    return float(np.mean(resolve_eta(eta)(v)))


def var_estimate(values, tau: float) -> float:
    """Empirical value-at-risk: the ``ceil(tau * n)``-th smallest value.

    The index is computed as exact integer arithmetic would give it; a small
    slack guards against float products like ``0.95 * 10000`` landing a hair
    above the true integer.
    """
    v = _as_values(values)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie strictly inside (0, 1), got {tau}")
    n = v.size
    k = int(np.ceil(tau * n - 1e-9))
    k = min(max(k, 1), n)
    return float(np.partition(v, k - 1)[k - 1])


@dataclass(frozen=True)
class FunctionalSpec:
    """Which functional to apply, with its parameter.

    ``kind`` is ``"nested_expectation"`` (parameter ``eta``, a registry name,
    ``"square"`` when omitted) or ``"var"`` (parameter ``tau``).
    Setting the parameter the kind does not read is an error.
    """

    kind: str
    eta: str | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind == "nested_expectation":
            if self.tau is not None:
                raise ValueError(f"a nested_expectation functional reads no tau, got {self.tau!r}")
            object.__setattr__(self, "eta", "square" if self.eta is None else self.eta)
            resolve_eta(self.eta)
        elif self.kind == "var":
            if self.eta is not None:
                raise ValueError(f"a var functional reads no eta, got {self.eta!r}")
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError(f"var functional needs tau strictly inside (0, 1), got {self.tau}")
        else:
            raise ValueError(f"unknown functional kind {self.kind!r}")

    @classmethod
    def expectation(cls, eta=None) -> "FunctionalSpec":
        return cls(kind="nested_expectation", eta=eta)

    @classmethod
    def value_at_risk(cls, tau: float) -> "FunctionalSpec":
        return cls(kind="var", tau=tau)


def evaluate_functional(values, spec: FunctionalSpec) -> float:
    """Apply the functional described by ``spec`` to a value vector."""
    if spec.kind == "nested_expectation":
        return nested_expectation(values, spec.eta)
    return var_estimate(values, spec.tau)
