"""Deterministic random streams.

All randomness is drawn from numpy's PCG64 keyed by SeedSequence tuples, so
every result is reproducible bit for bit from (seed, stage). The generator
name is echoed into output files next to the seed.
"""
from __future__ import annotations

import numpy as np

PRNG_NAME = "numpy-pcg64"


def coefficient_rng(seed: int) -> np.random.Generator:
    """Stream for coefficient realizations; draws are prefix stable in n."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))


def stage_rng(seed: int, n: int) -> np.random.Generator:
    """Fresh stream per stage, for forcing realizations redrawn at each n."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n))))
