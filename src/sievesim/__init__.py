"""Nested Monte Carlo estimation on regression sieves.

The package simulates two-stage sampling problems (outer scenarios, noisy
inner averages), fits a regression sieve to the inner means, and studies how
fast plug-in estimates of a functional of the regression surface converge as
the simulation budget grows.
"""

# Each module lists its public names in its own __all__; the package exports them all.
from . import estimators, functionals, harness, kernels, network, rates, synthetic
from .estimators import *
from .functionals import *
from .harness import *
from .kernels import *
from .network import *
from .rates import *
from .synthetic import *

__version__ = "0.1.0"

__all__ = [*estimators.__all__, *functionals.__all__, *harness.__all__, *kernels.__all__,
           *network.__all__, *rates.__all__, *synthetic.__all__]
