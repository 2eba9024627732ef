"""Truncated real power-series arithmetic.

Everything downstream works on finite coefficient prefixes a_0..a_N of
analytic functions on the unit disk.  The series type is immutable, the
truncation order is always explicit, and no operation invents coefficients
beyond the stored order; ``exp_series`` is the one documented exception, it
reads its input as an exact polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientSeries",
    "CesaroProfile",
    "autocorrelation",
    "cauchy_product",
    "cesaro_profile",
    "exp_series",
]


class _Built:
    """An array the library has just built and holds nowhere else.  Given
    as a field of the types below, it is frozen in place; any other value
    is copied, so that a caller's array never becomes read-only."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_array(values) -> np.ndarray:
    if isinstance(values, _Built):
        arr = np.asarray(values.array, dtype=float)
    else:
        arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional coefficient sequence")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Coefficients a_0..a_N of a real power series.

    ``tail_mass_bound``, when set, bounds sum_{j>N} a_j^2 of the underlying
    untruncated series from above; ``None`` means unknown.  It is advisory
    metadata: producers set it, consistency checks consume it.

    ``orthonormal_rows`` certifies that the complete underlying sequence
    (not just the stored prefix) satisfies sum_j a_j a_{j+k} = delta_{k0}
    with unit total mass.  Constructors of inner-function coefficients set
    it, since boundary modulus one is exactly this statement about the
    Taylor sequence.  The certificate matters because second moments of the
    underlying process can sit far outside the stored prefix: the window
    norm of a prefix needs coefficients out to roughly n^2 before it
    approaches the n guaranteed by orthonormality.
    """

    coeffs: np.ndarray
    tail_mass_bound: float | None = None
    orthonormal_rows: bool = False

    def __post_init__(self):
        arr = _frozen_array(self.coeffs)
        if arr.size == 0:
            raise ValueError("a series stores at least the degree-0 coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)
        if self.tail_mass_bound is not None:
            bound = float(self.tail_mass_bound)
            if math.isnan(bound) or bound < 0.0:
                raise ValueError("tail_mass_bound must be a nonnegative real")
            object.__setattr__(self, "tail_mass_bound", bound)
        object.__setattr__(self, "orthonormal_rows", bool(self.orthonormal_rows))

    @property
    def order(self) -> int:
        """Largest stored degree N."""
        return self.coeffs.size - 1

    def mass(self) -> float:
        """Sum of squares of the stored coefficients."""
        return float(self.coeffs @ self.coeffs)


@dataclass(frozen=True, eq=False)
class CesaroProfile:
    """Partial sums A_0..A_N and Cesaro means M_1..M_N of a series."""

    partial_sums: np.ndarray
    cesaro_means: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "partial_sums", _frozen_array(self.partial_sums))
        object.__setattr__(self, "cesaro_means", _frozen_array(self.cesaro_means))


def cauchy_product(s1: CoefficientSeries, s2: CoefficientSeries, n: int) -> CoefficientSeries:
    """Convolution c_k = sum_j a_j b_{k-j} for k <= n.

    Requires n <= min(s1.order, s2.order) so that no missing coefficient
    could have contributed to a retained degree; the result is then exact.
    """
    n = int(n)
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    if n > min(s1.order, s2.order):
        raise ValueError(
            f"truncation order {n} exceeds a stored order ({s1.order}, {s2.order})"
        )
    a, b = s1.coeffs[: n + 1], s2.coeffs[: n + 1]
    # np.convolve rounds a cancelling sum differently with its operands
    # swapped; one fixed operand order makes the product commutative bit
    # for bit
    if a.tobytes() > b.tobytes():
        a, b = b, a
    full = np.convolve(a, b)
    # a product of inner functions is inner, so the certificate survives
    return CoefficientSeries(
        full[: n + 1],
        orthonormal_rows=s1.orthonormal_rows and s2.orthonormal_rows,
    )


def cesaro_profile(s: CoefficientSeries) -> CesaroProfile:
    """Partial sums A_n = a_0 + .. + a_n and means M_n = (A_0 + .. + A_{n-1})/n."""
    partial = np.cumsum(s.coeffs)
    means = np.cumsum(partial[: s.order])
    means /= np.arange(1.0, s.order + 1.0)
    return CesaroProfile(_Built(partial), _Built(means))


def autocorrelation(s: CoefficientSeries, k: int) -> float:
    """sum_j a_j a_{j+k} over the stored prefix.

    For truncations of inner functions the full-series value is delta_{k0};
    the truncated value misses at most the tail mass (Cauchy-Schwarz).
    """
    k = int(k)
    if k < 0 or k > s.order:
        raise ValueError(f"lag must lie in [0, {s.order}]")
    a = s.coeffs
    return float(a[: a.size - k] @ a[k:])


def exp_series(g: CoefficientSeries, n: int) -> CoefficientSeries:
    """Coefficients of exp(g) to degree n via the weighted-convolution recurrence
    f_0 = exp(g_0), m f_m = sum_{k=1}^{m} k g_k f_{m-k}.

    The input is read as an exact polynomial: coefficients beyond g.order are
    zero.  exp(g_0) outside binary64 range raises OverflowError.
    """
    n = int(n)
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    kg = np.zeros(n + 1)
    upto = min(n, g.order)
    kg[: upto + 1] = np.arange(upto + 1) * g.coeffs[: upto + 1]
    f = np.zeros(n + 1)
    f[0] = math.exp(float(g.coeffs[0]))
    for m in range(1, n + 1):
        f[m] = (kg[1 : m + 1] @ f[m - 1 :: -1][:m]) / m
    return CoefficientSeries(f)
