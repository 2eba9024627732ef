"""Test-only oracles: code the tests check the library against, which no
command, demo or acceptance criterion runs.

Monte-Carlo paths of a causal linear process cross-check the closed-form
window norms of ``mgapprox.linear_process``, and ``with_carrier`` enlarges
an exact model by one sign carrier for the literal filtration cases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mgapprox import CoefficientSeries, ExactModel, Label, substream

__all__ = [
    "INNOVATION_KINDS",
    "LinearProcessSpec",
    "empirical_autocovariance",
    "simulate_path",
    "with_carrier",
]

INNOVATION_KINDS = ("gaussian", "rademacher")


@dataclass(frozen=True, eq=False)
class LinearProcessSpec:
    """Sampling recipe: coefficients, innovation law, base seed."""

    series: CoefficientSeries
    innovation_kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.innovation_kind not in INNOVATION_KINDS:
            raise ValueError(f"innovation_kind must be one of {INNOVATION_KINDS}")
        if not self.series.mass() > 0.0:
            raise ValueError("the coefficient series must carry positive mass")


def simulate_path(
    spec: LinearProcessSpec, n: int, burn_in: int | None = None, replicate: int = 0
) -> np.ndarray:
    """Seeded sample path X_0..X_{n-1}, deterministic per (seed, replicate).

    ``burn_in`` innovations precede time zero so that early entries see a
    full coefficient window; passing less than series.order is allowed for
    experiments on startup bias but is flagged.
    """
    n = int(n)
    if n < 1:
        raise ValueError("the path length must be >= 1")
    order = spec.series.order
    if burn_in is None:
        burn_in = order
    burn_in = int(burn_in)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if burn_in < order:
        warnings.warn(
            f"burn_in {burn_in} is shorter than the coefficient support {order}; "
            "early path entries miss part of the window",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = substream(spec.seed, replicate)
    size = burn_in + n
    if spec.innovation_kind == "gaussian":
        innov = rng.standard_normal(size)
    else:
        innov = rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    # X_t needs innovations t - order..t: keep the last order + n, with zeros
    # standing in for those before the burn-in, and convolve only where the
    # whole coefficient window overlaps
    window = np.concatenate((np.zeros(max(0, order - burn_in)), innov[max(0, burn_in - order):]))
    return np.convolve(window, spec.series.coeffs, "valid")


def empirical_autocovariance(path: np.ndarray, k: int) -> float:
    """Biased (1/n-normalized) sample autocovariance at lag k."""
    x = np.asarray(path, dtype=float)
    k = int(k)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("the path must be a nonempty one-dimensional array")
    if k < 0 or k >= x.size:
        raise ValueError(f"lag must lie in [0, {x.size - 1}]")
    d = x - x.mean()
    return float(d[: x.size - k] @ d[k:]) / x.size


def with_carrier(model: ExactModel, label: Label) -> ExactModel:
    """The model with one more independent sign carrier, placed last.

    The new carrier is -1 on the first half of the atoms and +1 on the
    second, which keeps the layout: carrier j is +1 exactly when bit j of
    the atom index is set.  The digit and observable do not read it.
    """
    if label in model.labels:
        raise ValueError(f"the model already has the carrier {label!r}")
    atoms = model.signs.shape[0]
    sign = np.repeat(np.array([-1, 1], dtype=np.int8), atoms)[:, None]
    return ExactModel(
        depth=model.depth,
        labels=(*model.labels, label),
        signs=np.hstack((np.tile(model.signs, (2, 1)), sign)),
        digit=np.tile(model.digit, 2),
        observable=np.tile(model.observable, 2),
    )
