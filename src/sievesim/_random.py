"""Seed handling shared by the samplers and simulators.

Every randomized routine in the package accepts a ``seed`` argument that may
be an int, a ``numpy.random.SeedSequence``, an already-constructed
``numpy.random.Generator``, or ``None`` (fresh OS entropy).  Passing the same
seed always reproduces the same draws.
"""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed form."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
