"""Seed-splitting helper.

The substream rule is part of the package contract: replicate ``i`` of a run
seeded with ``s`` draws from ``default_rng(SeedSequence((s, i)))``.  The rule
is fixed so that recorded outputs stay reproducible across versions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replicate ``index`` of a run seeded ``seed``."""
    if index < 0:
        raise ValueError("replicate index must be >= 0")
    return np.random.default_rng(np.random.SeedSequence((int(seed) & _MASK64, int(index))))
