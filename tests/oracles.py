"""Test-only oracles: code the tests check the library against, which no
command, demo or acceptance criterion runs.

Monte-Carlo paths of a causal linear process cross-check the closed-form
window norms of ``mgapprox.linear_process``, and ``with_carrier`` enlarges
an exact model by one sign carrier for the literal filtration cases.
"""

from __future__ import annotations

import numpy as np

from mgapprox import ExactModel, Label, substream

__all__ = ["empirical_autocovariance", "simulate_path", "with_carrier"]


def simulate_path(
    coeffs: np.ndarray, n: int, seed: int, replicate: int = 0, rademacher: bool = False
) -> np.ndarray:
    """X_0..X_{n-1} of X_t = sum_m coeffs[m] e_{t-m}, whose coeffs.size - 1 + n
    innovations e are drawn from substream (seed, replicate): standard
    normal, or signs when rademacher."""
    rng = substream(seed, replicate)
    size = coeffs.size - 1 + n
    draws = rng.integers(0, 2, size=size) * 2.0 - 1.0 if rademacher else rng.standard_normal(size)
    return np.convolve(draws, coeffs, "valid")


def empirical_autocovariance(path: np.ndarray, k: int) -> float:
    """Biased (1/n-normalized) sample autocovariance at lag 0 <= k < path.size."""
    d = path - path.mean()
    return float(d[: d.size - k] @ d[k:]) / d.size


def with_carrier(model: ExactModel, label: Label) -> ExactModel:
    """The model with one more independent sign carrier, placed last: the
    atoms double, and the digit and observable, which do not read the new
    carrier, repeat on both halves."""
    if label in model.labels:
        raise ValueError(f"the model already has the carrier {label!r}")
    return ExactModel(
        depth=model.depth,
        labels=(*model.labels, label),
        digit=np.tile(model.digit, 2),
        observable=np.tile(model.observable, 2),
    )
