"""Inner-function coefficient and boundary machinery.

Two families: the zero-free inner function exp(-a (1+z)/(1-z)) with a > 0,
whose coefficient partial sums are scaled Laguerre values, and Blaschke
products over real zeros in [0, 1).  Radial evaluation of a finite Blaschke
product is exact.  Coefficients come from recurrences: the scaled Laguerre
recurrence for the singular function, and a cascade of lossless one-state
sections, one per Blaschke factor, driven by the unit impulse.  Both
families are inner, so their full coefficient sequences have unit mass and
delta autocorrelation, which is what the tail bookkeeping here certifies
for the truncations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import InvariantViolation
from .series import CoefficientSeries, _Built
# not called here; perfbench/tracer.py wraps this name in this module
from .series import cauchy_product  # noqa: F401

__all__ = [
    "BlaschkeSpec",
    "DecayDiagnostics",
    "DyadicMidpointReport",
    "RADIAL_LIMIT_FACTORS",
    "blaschke_eval_radial",
    "blaschke_factor_coeffs",
    "blaschke_product_coeffs",
    "coefficient_decay_diagnostics",
    "dyadic_midpoint_report",
    "dyadic_radial_limit_bound",
    "newman_shapiro_main_term",
    "singular_exponent_series",
    "singular_inner_coeffs",
]

# Factor count at which the infinite product prod (1-2^-k)/(1+2^-k) is
# evaluated; the neglected factors multiply in a correction below 1e-15.
RADIAL_LIMIT_FACTORS = 60

# A truncation order n resolves a zero at z only if z^n is negligible.
_GEOMETRIC_RESOLUTION = 1e-8

# Most zeros a rule may place: slowly decaying rules keep every zero below
# 1, so without a ceiling a count of 10^9 allocates gigabytes before the
# product starts.  Time is bounded separately, by _MAX_PRODUCT_WORK.
_MAX_RULE_ZEROS = 10**6

# Most work, factors x (n + 1 + _FACTOR_STEPS) cascade steps, that
# blaschke_product_coeffs may spend.  A step costs 0.016-0.05 microseconds
# once a product spans many blocks, so products under the ceiling stay
# under a second.
_MAX_PRODUCT_WORK = 10**7

# Fixed cost of one cascade section, in steps.  On a 2-core Xeon VM a
# section cost 16-22 microseconds on top of its steps (10^4 and 10^5
# power(0.01) factors at orders 0 and 9), about 1000 steps at the
# long-product rate of 0.016-0.02 microseconds per step.  Counting steps
# alone, 10^6 factors at order 9 are only 10^7 steps yet take 10-20 s.
_FACTOR_STEPS = 1000

# Longest singular series: the Laguerre recurrence is a Python loop of
# about 1 microsecond per order, and order 10^9 asked for 7.45 GiB.
_MAX_SINGULAR_ORDER = 10**7

# Samples per block of a cascade section: each block is one lower-triangular
# Toeplitz matmul of this size, shorter products use one block of n + 1.
_CASCADE_BLOCK = 128

# Relative rounding slack per cascade step on the squared final states.
# Against a 40-digit run of the same recurrence, the relative error of their
# sum stayed below 0.4 eps per step (1500 random zero sets in [0, 0.95] up
# to order 300); 64 eps per step keeps a wide margin and, under the work
# ceiling, adds at most 1.5e-7.
_TAIL_SLACK_PER_STEP = 64.0 * np.finfo(float).eps

# Orders per block of the main term's per-cell math.pow and math.cos.
_TERM_BLOCK = 4096

# Largest singular parameter: the recurrence is seeded with exp(-a), which
# stays a normal double up to a = 708 and is 0 above a = 745.
_MAX_SINGULAR_A = 700.0


def singular_inner_coeffs(a: float, n: int) -> CoefficientSeries:
    """Taylor coefficients a_0..a_n of exp(-a (1+z)/(1-z)).

    The partial sums satisfy A_k = exp(-a) L_k(2a); running the Laguerre
    three-term recurrence on the pre-scaled A_k keeps every intermediate
    O(1) instead of letting L_k and exp(-a) overflow/underflow separately.
    a must lie in (0, 700], where the seed exp(-a) is a normal double, and
    n in [0, 10^7]; ValueError is raised before any allocation otherwise.

    The tail-mass bound 2 sqrt(2a) / (pi sqrt(n)), capped at 1, integrates
    the square of the Newman-Shapiro amplitude pi^(-1/2) (2a)^(1/4) j^(-3/4)
    past the truncation order.  That amplitude is the asymptotic size of
    a_j, not a pointwise envelope: |a_j| exceeds it by up to 2.68 times
    (a = 500), so the bound is an estimate without proof.  On a grid of a
    in [1e-4, 700] and n up to 2e5 it stayed at least 1.48 times the exact
    tail 1 - sum_{j<=n} a_j^2, which a property test checks it against.

    The recurrence carries A_{k-1} and A_k as Python floats and stores each
    new A_{k+1} into the preallocated array: the same IEEE operations in the
    same order as reading both back from the array, without boxing a numpy
    scalar per read.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError("the singular parameter must be positive")
    if a > _MAX_SINGULAR_A:
        raise ValueError(f"the singular parameter {a!r} exceeds {_MAX_SINGULAR_A!r}, above "
                         "which the seed exp(-a) leaves the normal double range")
    n = int(n)
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    if n > _MAX_SINGULAR_ORDER:
        raise ValueError(f"truncation order {n} exceeds {_MAX_SINGULAR_ORDER:.0e}, the most "
                         "recurrence steps supported")
    partial = np.empty(n + 1)
    partial[0] = cur = math.exp(-a)
    prev = 0.0  # A_{-1}: the k = 0 step is (1 - 2a) A_0
    x = 2.0 * a
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        partial[k + 1] = cur
    partial[1:] = np.diff(partial)  # a_0 = A_0; differenced in place, no prepended copy
    if n == 0:
        tail = 1.0
    else:
        tail = min(1.0, 2.0 * math.sqrt(2.0 * a) / (math.pi * math.sqrt(n)))
    return CoefficientSeries(_Built(partial), tail_mass_bound=tail, orthonormal_rows=True)


def singular_exponent_series(a: float, n: int) -> CoefficientSeries:
    """Expansion of -a (1+z)/(1-z) = -a - 2a z - 2a z^2 - ... to degree n."""
    a = float(a)
    if not a > 0.0:
        raise ValueError("the singular parameter must be positive")
    coeffs = np.full(int(n) + 1, -2.0 * a)
    coeffs[0] = -a
    return CoefficientSeries(coeffs)


def newman_shapiro_main_term(a: float, n):
    """Leading coefficient asymptotic for the singular inner function:
    pi^(-1/2) (2a)^(1/4) n^(-3/4) cos(2 sqrt(2 a n) + pi/4).

    The remainder is O(n^(-5/4)), so n^(5/4) (a_n - main term) stays bounded.
    ``n`` is one order, giving a float, or a one-dimensional integer array
    of orders, giving a float64 array.  An array's phases are one array pass
    (sqrt is correctly rounded, so they equal math.sqrt's); n^(-3/4) and
    the cosine are taken per cell with math.pow and math.cos, _TERM_BLOCK
    orders at a time, because numpy's power differs from libm's pow in the
    last bit on some cells.  The products are array passes: IEEE
    multiplication in the same order gives the Python float products.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError("the singular parameter must be positive")
    amp = (2.0 * a) ** 0.25 / math.sqrt(math.pi)
    if np.ndim(n) == 0:
        n = int(n)
        if n < 1:
            raise ValueError("the asymptotic needs n >= 1")
        return amp * math.pow(n, -0.75) * math.cos(2.0 * math.sqrt(2.0 * a * n) + math.pi / 4.0)
    orders = np.asarray(n)
    if orders.ndim != 1 or orders.dtype.kind not in "iu":
        raise ValueError("orders must be a one-dimensional integer sequence")
    if orders.size and orders.min() < 1:
        raise ValueError("the asymptotic needs n >= 1")
    phases = 2.0 * np.sqrt(2.0 * a * orders.astype(float)) + math.pi / 4.0
    terms = np.empty(orders.size)
    for lo in range(0, orders.size, _TERM_BLOCK):
        hi = min(lo + _TERM_BLOCK, orders.size)
        pows = np.fromiter(map(math.pow, orders[lo:hi].tolist(), repeat(-0.75)), float, hi - lo)
        cosines = np.fromiter(map(math.cos, phases[lo:hi].tolist()), float, hi - lo)
        np.multiply(amp * pows, cosines, out=terms[lo:hi])
    return terms


@dataclass(frozen=True, eq=False)
class BlaschkeSpec:
    """Finite prefix of real Blaschke zeros in [0, 1)."""

    zeros: np.ndarray

    def __post_init__(self):
        arr = np.array(self.zeros, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("zeros must be a nonempty one-dimensional sequence")
        if not np.all((arr >= 0.0) & (arr < 1.0)):  # NaN fails both
            raise ValueError("zeros must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "zeros", arr)

    @classmethod
    def dyadic(cls, count: int) -> "BlaschkeSpec":
        """Zeros z_k = 1 - 2^-k for k = 1..count."""
        if count < 1:
            raise ValueError("need at least one zero")
        return cls(_zeros_below_one(lambda k: 1.0 - np.exp2(-k), count, "dyadic"))

    @classmethod
    def power(cls, alpha: float, count: int) -> "BlaschkeSpec":
        """Zeros z_k = 1 - k^-alpha for k = 1..count; alpha > 1 makes the full
        sequence summable (a genuine Blaschke sequence)."""
        alpha = float(alpha)
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        if count < 1:
            raise ValueError("need at least one zero")
        return cls(_zeros_below_one(lambda k: 1.0 - k**-alpha, count, f"power({alpha})"))


def _zeros_below_one(
    zero: Callable[[np.ndarray], np.ndarray], count: int, rule: str
) -> np.ndarray:
    """The zeros ``zero(k)`` for k = 1..count, which increase with k; raises
    when one rounds to 1, or else when count exceeds _MAX_RULE_ZEROS.  One
    pass evaluates at most the first _MAX_RULE_ZEROS + 1 zeros, so no count
    too large for a float is converted, and the first one at 1 is the
    first index np.flatnonzero finds."""
    zeros = zero(np.arange(1, min(count, _MAX_RULE_ZEROS + 1) + 1, dtype=float))
    at_one = np.flatnonzero(zeros >= 1.0)
    if at_one.size:
        k = int(at_one[0]) + 1
        raise ValueError(
            f"{rule} zero k={k} rounds to 1.0 in double precision; "
            f"at most {k - 1} zeros of this rule are representable"
        )
    if count > _MAX_RULE_ZEROS:
        raise ValueError(f"{rule} asks for {count} zeros; at most {_MAX_RULE_ZEROS} are supported")
    return zeros


def blaschke_factor_coeffs(z0: float, n: int) -> CoefficientSeries:
    """Expansion of the single factor (z0 - z)/(1 - z0 z) to degree n:
    z0 at degree 0 and -(1 - z0^2) z0^(k-1) at degree k >= 1.

    The stored mass has the closed form 1 - (1 - z0^2) z0^(2n), so the
    exact tail mass (1 - z0^2) z0^(2n) is recorded.
    """
    z0 = float(z0)
    if not 0.0 <= z0 < 1.0:
        raise ValueError("the zero must lie in [0, 1)")
    n = int(n)
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = np.empty(n + 1)
    coeffs[0] = z0
    if n >= 1:
        coeffs[1:] = -(1.0 - z0 * z0) * z0 ** np.arange(0.0, n - 1 + 1.0)
    tail = (1.0 - z0 * z0) * z0 ** (2 * n) if n >= 1 else 1.0 - z0 * z0
    return CoefficientSeries(coeffs, tail_mass_bound=tail, orthonormal_rows=True)


def blaschke_product_coeffs(spec: BlaschkeSpec, n: int) -> CoefficientSeries:
    """Truncated Taylor expansion of the product over the stored zeros.

    Each factor (z0 - z)/(1 - z0 z) is the one-state section
    x' = z0 x + c u, y = -c x + z0 u with c = sqrt(1 - z0^2); the unit
    impulse runs through the sections one after another.  The matrix
    [[z0, c], [-c, z0]] is a rotation, so the cascade is lossless:
    sum_{j<=n} a_j^2 plus the squared final states of all sections is 1,
    and the exact tail mass is that sum of squares, with no cancellation.
    It is stored, times a rounding slack of 64 eps per step plus the
    smallest normal double for underflow, as the tail bound.

    Warns when the slowest factor is not resolved at order n (max z^n above
    1e-8).  Raises ValueError, before any allocation, when the work,
    factors x (n + 1) cascade steps plus 1000 steps per factor for its fixed
    cost, exceeds 10^7 steps; an order above 10^7 alone exceeds it, and is
    reported without converting the work to a float.
    """
    n = int(n)
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    steps = spec.zeros.size * (n + 1)
    work = steps + spec.zeros.size * _FACTOR_STEPS
    if work > _MAX_PRODUCT_WORK:
        need = f"{work:.3g}" if n <= _MAX_PRODUCT_WORK else f"over {_MAX_PRODUCT_WORK:.0e}"
        raise ValueError(f"{spec.zeros.size} factors at order {n} need {need} steps "
                         f"({_FACTOR_STEPS} per factor plus one per factor and order); "
                         f"at most {_MAX_PRODUCT_WORK:.0e} are supported")
    zmax = float(np.max(spec.zeros))
    if zmax > 0.0 and zmax**n > _GEOMETRIC_RESOLUTION:
        warnings.warn(
            f"truncation order {n} does not resolve the factor at z={zmax!r} "
            f"(geometric tail ratio {zmax ** n:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    coeffs, states = _lossless_cascade(spec.zeros, n)
    tail = float(states @ states) * (1.0 + _TAIL_SLACK_PER_STEP * steps)
    tail += np.finfo(float).tiny
    return CoefficientSeries(coeffs, tail_mass_bound=tail, orthonormal_rows=True)


def _lossless_cascade(zeros: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Outputs 0..n of the section cascade on the unit impulse, and each
    section's state after input n.

    The signal is cut into blocks of b samples.  Within a block, the states
    from a zero start are one matmul with the Toeplitz matrix
    T[i, j] = c z0^(i-1-j) (j < i <= b), a sliding-window view of one vector
    of scaled powers.  The state entering each block follows the carry
    x <- z0^b x + (zero-start state at i = b) and adds z0^i times itself to
    the block's states.
    """
    size = n + 1
    b = min(_CASCADE_BLOCK, size)
    blocks = -(-size // b)
    last = size - (blocks - 1) * b  # offset of state n + 1 in the last block
    steps = np.arange(b + 1)
    # window[m] = c z0^(b - m) for m <= b and 0 after, so T[i, j] = window[b + 1 - i + j]
    window = np.zeros(2 * b + 1)
    toeplitz = sliding_window_view(window, b)[b + 1 : 0 : -1]
    signal = np.zeros(blocks * b)
    signal[0] = 1.0
    u = signal.reshape(blocks, b)
    finals = np.empty(zeros.size)
    for k, z0 in enumerate(zeros.tolist()):
        c = math.sqrt((1.0 - z0) * (1.0 + z0))
        powers = z0**steps
        np.multiply(powers, c, out=window[b::-1])
        x = u @ toeplitz.T  # (blocks, b + 1) zero-start states
        states = x[:, :b]
        zb = powers[b]
        entering = np.fromiter(
            accumulate(x[:-1, b].tolist(), lambda carry, z: zb * carry + z, initial=0.0),
            float, blocks)
        finals[k] = powers[last] * entering[-1] + x[-1, last]
        states += np.outer(entering, powers[:b])
        states *= c
        u *= z0
        u -= states
    return signal[:size], finals


def blaschke_eval_radial(spec: BlaschkeSpec, r: float) -> float:
    """Exact value prod_k (z_k - r)/(1 - z_k r) at a radial point |r| < 1."""
    r = float(r)
    if not -1.0 < r < 1.0:
        raise ValueError("radial evaluation needs |r| < 1")
    factors = (spec.zeros - r) / (1.0 - spec.zeros * r)
    return float(np.prod(factors))


def dyadic_radial_limit_bound() -> float:
    """prod_{k=1..60} (1 - 2^-k)/(1 + 2^-k), the lower-bound constant for
    factor groups of the dyadic-zero product."""
    k = np.arange(1, RADIAL_LIMIT_FACTORS + 1, dtype=float)
    w = np.exp2(-k)
    return float(np.prod((1.0 - w) / (1.0 + w)))


@dataclass(frozen=True)
class DyadicMidpointReport:
    """Factor-group split of |B(r)| at the midpoint r between dyadic zeros
    ``level`` and ``level + 1``, with the bounds each group satisfies."""

    level: int
    r: float
    p1: float  # zeros below the midpoint, the nearest one excluded
    p2: float  # nearest zero below
    p3: float  # nearest zero above
    p4: float  # zeros above, the nearest one excluded
    product: float  # |B(r)| over all k_max factors, computed independently
    c_bound: float  # lower bound for p1 and p4; p2 and p3 are >= 1/8


def dyadic_midpoint_report(level: int, k_max: int) -> DyadicMidpointReport:
    """Bound check for the dyadic-zero product at the inter-zero midpoint.

    r = (z_level + z_{level+1})/2; the four factor groups satisfy
    p2 >= 1/8, p3 >= 1/8 and p1, p4 >= prod (1-2^-k)/(1+2^-k), so
    |B(r)| >= c^2/64 even though B vanishes at every zero.  Violations raise
    InvariantViolation: the inequalities hold with margin, so a failure
    means a bug, not a property of the product.  From level 52 on the two
    zeros are adjacent doubles with no midpoint between them, which raises
    ValueError.
    """
    level = int(level)
    k_max = int(k_max)
    if level < 1 or level + 1 > k_max:
        raise ValueError("need 1 <= level and level + 1 <= k_max")
    spec = BlaschkeSpec.dyadic(k_max)
    z = spec.zeros
    if np.nextafter(z[level - 1], 1.0) == z[level]:
        raise ValueError(f"no double lies strictly between zeros {level} and {level + 1}, "
                         f"so level {level} has no midpoint")
    r = 0.5 * (z[level - 1] + z[level])

    below = z[: level - 1]
    above = z[level + 1 :]
    p1 = float(np.prod((r - below) / (1.0 - below * r)))
    p2 = float((r - z[level - 1]) / (1.0 - z[level - 1] * r))
    p3 = float((z[level] - r) / (1.0 - z[level] * r))
    p4 = float(np.prod((above - r) / (1.0 - above * r)))
    product = abs(blaschke_eval_radial(spec, r))
    c = dyadic_radial_limit_bound()

    grouped = p1 * p2 * p3 * p4
    if not math.isclose(product, grouped, rel_tol=1e-10):
        raise InvariantViolation(
            f"factor grouping mismatch at level {level}: |B(r)|={product!r} "
            f"vs p1 p2 p3 p4={grouped!r}"
        )
    for name, value, floor in (
        ("p1", p1, c),
        ("p2", p2, 0.125),
        ("p3", p3, 0.125),
        ("p4", p4, c),
    ):
        if not value >= floor:
            raise InvariantViolation(
                f"{name}={value!r} fell below its floor {floor!r} at level {level}"
            )
    return DyadicMidpointReport(
        level=level, r=float(r), p1=p1, p2=p2, p3=p3, p4=p4, product=product, c_bound=c
    )


@dataclass(frozen=True)
class DecayDiagnostics:
    """max over stored n >= 1 of n |a_n|, and the attaining index (0 if the
    series stores no degree above zero)."""

    max_weighted: float
    arg_max: int


def coefficient_decay_diagnostics(s: CoefficientSeries) -> DecayDiagnostics:
    """Weighted-decay summary separating the two inner families: under the
    n^(-3/4) cosine envelope n |a_n| keeps growing like n^(1/4), while a
    finite Blaschke product is rational and decays geometrically once the
    slowest zero resolves, so its weighted max peaks at an interior index."""
    if s.order == 0:
        return DecayDiagnostics(0.0, 0)
    weighted = np.arange(1.0, s.order + 1.0) * np.abs(s.coeffs[1:])
    idx = int(np.argmax(weighted))
    return DecayDiagnostics(float(weighted[idx]), idx + 1)
