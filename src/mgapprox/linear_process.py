"""Window-sum second moments and sampling for causal linear processes.

A coefficient prefix a_0..a_N defines X_k = sum_{i=0}^{N} a_i e_{k-i} with
iid unit-variance innovations e.  Window sums expand exactly over the
innovation basis, so the normalized distance between a window of X and a
scalar multiple of the innovation window is closed-form; the minimizing
scalar is the Cesaro mean of the coefficient partial sums.  Monte-Carlo
paths are provided for cross-checking the exact formulas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import substream
from .series import CoefficientSeries

__all__ = [
    "GapReport",
    "INNOVATION_KINDS",
    "LinearProcessSpec",
    "approximation_gap",
    "best_scalar_gap",
    "empirical_autocovariance",
    "simulate_path",
    "sum_norm_sq",
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


@dataclass(frozen=True)
class GapReport:
    """Window-sum comparison of the process against c times its innovation.

    sum_norm_sq = ||X_0 + .. + X_{n-1}||^2 of the process the series
    describes: exactly n when the series certifies orthonormal rows (the
    X_k are then mutually orthonormal, since their covariance sequence is
    the coefficient autocorrelation), and the stored-prefix window norm
    otherwise.  cross = E[(sum X_j)(sum e_j)] = sum_{k<n} A_k with the
    partial sums A continued constant beyond the stored order; gap_sq =
    ||sum (X_j - c e_j)||^2 / n.  c_star = cross/n minimizes the gap and
    min_gap_sq is the value there.
    """

    n: int
    c: float
    sum_norm_sq: float
    cross: float
    gap_sq: float
    c_star: float
    min_gap_sq: float


def sum_norm_sq(series: CoefficientSeries, n: int) -> float:
    """Exact ||X_0 + .. + X_{n-1}||^2 from the coefficients.

    The window sum gives innovation e_t the weight A_hi - A_{lo-1} with
    hi = min(N, n-1-t) and lo = max(0, -t); the squared norm is the sum of
    squared weights.  Exact for the stored (finite) sequence; when that
    sequence truncates an infinite one with tail mass T, the untruncated
    norm differs by at most n sqrt(T) in the unsquared norm, and the bound
    is not pessimistic: for orthonormal-row sequences the untruncated value
    is n while the prefix value keeps growing until the order reaches about
    n^2, because most of the window's variance rides on innovations far
    older than the window.  Gap reports therefore consult the series'
    orthonormality certificate instead of this prefix value.
    """
    n = int(n)
    if n < 1:
        raise ValueError("the window length must be >= 1")
    a = series.coeffs
    big_n = series.order
    prefix = np.concatenate(([0.0], np.cumsum(a)))  # prefix[i] = A_{i-1}
    t = np.arange(-big_n, n)
    hi = np.minimum(big_n, n - 1 - t)
    lo = np.maximum(0, -t)
    weights = prefix[hi + 1] - prefix[lo]
    return float(weights @ weights)


def _cross_term(series: CoefficientSeries, n: int) -> float:
    # sum_{k=0}^{n-1} A_min(k, N)
    partial = np.cumsum(series.coeffs)
    if n <= partial.size:
        return float(np.sum(partial[:n]))
    return float(np.sum(partial) + (n - partial.size) * partial[-1])


def _report(series: CoefficientSeries, n: int, c: float | None) -> GapReport:
    n = int(n)
    if n < 1:
        raise ValueError("the window length must be >= 1")
    # orthonormal rows make the X_k themselves orthonormal: ||sum||^2 = n
    sn = float(n) if series.orthonormal_rows else sum_norm_sq(series, n)
    cross = _cross_term(series, n)
    c_star = cross / n
    min_gap_sq = sn / n - c_star * c_star
    if c is None:
        c_val, gap_sq = c_star, min_gap_sq
    else:
        c_val = float(c)
        gap_sq = sn / n + c_val * c_val - 2.0 * c_val * cross / n
    return GapReport(
        n=n,
        c=c_val,
        sum_norm_sq=sn,
        cross=cross,
        gap_sq=gap_sq,
        c_star=c_star,
        min_gap_sq=min_gap_sq,
    )


def approximation_gap(series: CoefficientSeries, c: float, n: int) -> GapReport:
    """Normalized squared window distance ||sum_{j<n} (X_j - c e_j)||^2 / n.

    Raises ValueError when the gap overflows binary64 (|c| above about
    1.3e154 makes c*c infinite).
    """
    report = _report(series, n, float(c))
    if not math.isfinite(report.gap_sq):
        raise ValueError(f"gap_sq is not finite for c={report.c!r} at n={report.n}")
    return report


def best_scalar_gap(series: CoefficientSeries, n: int) -> GapReport:
    """Gap report at the minimizing scalar c_star = cross/n.

    min_gap_sq staying above a positive floor for large n certifies that no
    scalar multiple of the innovation approximates the process windows.
    """
    return _report(series, n, None)


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
