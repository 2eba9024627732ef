"""Layered rare-spike process with two competing martingale approximants.

The construction stacks independent levels k = 1..K.  Level k contributes
p_k (rho_k E_k - (1 + rho_k) D_k) to the time-zero value, where E_k takes
+-q_k with probability 1/(2 q_k^2) each (zero otherwise, unit variance) and
D_k is an independent copy of E_k observed phi(k) steps in the past.  Two
candidate martingale parts are compared through exact window-sum norms:

* subtracting the lagged parts (the D side) leaves every normalized window
  residual below 1;
* subtracting the synchronous parts (the E side) leaves normalized window
  residuals above the floor b_n at the horizons n = phi(j).

The spike magnitudes q_k grow by a factor of about 30 k sqrt(8 phi(k)) per
level, so the summed value determines every level outcome: at each level
the nine possible (E, D) sign pairs shift the value into nine disjoint
intervals of half-width r_{k-1}.  The horizon ladder phi fixes every
other constant: LayerParams stores phi and the floor values at it, and
derives p, rho and the scales q, r, s from phi in closed form.  Magnitudes
overflow binary64 near level 40, so the scales are natural logs.  The nine
centers of a level and its decoding radius are built from them once, in
decimal arithmetic with a precision sized to the dynamic range, by
``decoding_table``, whose tables LayerCodec encodes and decodes with.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)
from itertools import product
from typing import Callable

import numpy as np

from . import DEFAULT_SEARCH_CAP, InvariantViolation
from .rng import substream, substream_uniforms

__all__ = [
    "DecodeReport",
    "DecodedSample",
    "FIRE_LOG_FLOOR",
    "LayerCodec",
    "LayerParams",
    "decoding_table",
    "inv_sqrt_log_rule",
    "level_one_window_variance",
    "power_rule",
    "residual_norm_sq_lagged",
    "residual_norm_sq_natural",
    "simulate_and_decode",
    "simulate_level_one_variance",
    "synthesize_layer_params",
]

# Per-draw natural-log probability below which a level cannot fire within
# any feasible sample budget; such levels are skipped and the skipped mass
# is reported.
FIRE_LOG_FLOOR = -40.0

_INT64_MAX = 2**63 - 1  # largest horizon phi can store
_DRAW_BLOCK = 2**12  # samples drawn and tallied per array pass

# Most samples simulate_and_decode draws: on a 2-core Xeon VM 10^6 samples at
# K = 8 took 0.46 s, so the ceiling bounds a run at about 5 s.
_MAX_SAMPLES = 10**7

# Most levels synthesize_layer_params builds.  The codec's precision grows
# with every level, and its Decimal exps with it: on a 2-core Xeon VM,
# prop3 --samples 1 with power:10 took 0.21 s at K = 100, 2.2 s at K = 200
# and 118 s at K = 600, and at K = 100 the steepest power ladder that stays
# inside int64 (power:0.05, search cap 10^20) took 3.2 s.  The ceiling
# keeps a run at about 5 s and lies above level 87, where the invsqrtlog
# ladder meets the int64 limit once the search cap allows it.
_MAX_LEVELS = 100


def inv_sqrt_log_rule() -> Callable[[int], float]:
    """Floor sequence b_n = 1/sqrt(log(n+3)): positive, decreasing, -> 0."""
    return lambda n: 1.0 / math.sqrt(math.log(n + 3))


def power_rule(beta: float) -> Callable[[int], float]:
    """Floor sequence b_n = n^-beta for beta > 0."""
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    return lambda n: float(n) ** -beta


def _context(prec: int) -> Context:
    # every field set here, so the caller's decimal settings never leak in
    return Context(
        prec=prec,
        rounding=ROUND_HALF_EVEN,
        Emin=MIN_EMIN,
        Emax=MAX_EMAX,
        traps=[InvalidOperation, DivisionByZero, Overflow],
    )


_ZETA_2 = Decimal("1.6449340668482264364724151666460251892189499012068")  # pi^2/6
_TAILS: list[Decimal] = []  # _TAILS[j] = sum_{k > j} 1/k^2 in 40 digits, grown on demand


def _tail_inverse_squares(j: int) -> float:
    """sum_{k > j} 1/k^2, the trigamma function at j + 1, as zeta(2) = pi^2/6
    less the first j terms, in 40 digits.  The tails found so far are kept,
    so each new j costs one subtraction per term not yet taken off."""
    with localcontext(_context(40)):
        if not _TAILS:
            _TAILS.append(+_ZETA_2)  # rounded to 40 digits
        for k in range(len(_TAILS), j + 1):
            _TAILS.append(_TAILS[-1] - 1 / Decimal(k * k))
    return float(_TAILS[j])


@dataclass(frozen=True, eq=False)
class LayerParams:
    """Constants of the layered construction, all fixed by the horizon ladder.

    ``phi`` holds the horizons phi(1) < ... < phi(K) and ``b_at_phi`` the
    floor sequence at them; these are the only stored inputs.  Construction
    checks that phi increases strictly from at least 13 and that the tail
    condition 2 sum_{k>j} p_k^2 > b(phi(j))^2 holds at every level, then
    derives the rest, read-only: p_l = 1/l, rho_l = 1/sqrt(8 phi(l)), and
    q, r, s as natural logs (``log_q``, ``log_r``, ``log_s``).  q_1 = 1 and
    the recursion rho_{n+1} p_{n+1} q_{n+1} = 30 sum_{k<=n} p_k q_k make the
    reach r_n = 3 sum_{k<=n} p_k q_k grow as r_n = r_{n-1} (1 + 30/rho_n), so
    all three logs follow in closed form from rho.  ``log_s[l-1]`` is the
    level-l scale log(p_l q_l): 0 at level 1, log(10 r_{l-1} / rho_l) after.
    phi >= 13 gives rho <= 0.098, so every scale exceeds 100 times the reach
    below it.
    """

    phi: np.ndarray
    b_at_phi: np.ndarray
    level_count: int = field(init=False)
    p: np.ndarray = field(init=False)
    rho: np.ndarray = field(init=False)
    log_q: np.ndarray = field(init=False)
    log_r: np.ndarray = field(init=False)
    log_s: np.ndarray = field(init=False)

    def __post_init__(self):
        phi = np.array(self.phi)
        b_at_phi = np.array(self.b_at_phi, dtype=float)
        if phi.ndim != 1 or phi.size == 0 or b_at_phi.shape != phi.shape:
            raise ValueError("phi and b_at_phi must be one-dimensional, one entry per level")
        if phi.dtype.kind not in "iu":
            raise ValueError("phi must hold integer horizons")
        if phi[0] < 13 or np.any(np.diff(phi) <= 0):
            raise InvariantViolation("phi must increase strictly from at least 13")
        for j in range(1, phi.size + 1):
            if not 2.0 * _tail_inverse_squares(j) > b_at_phi[j - 1] ** 2:
                raise InvariantViolation(f"tail condition fails at level {j}")

        p = 1.0 / np.arange(1.0, phi.size + 1.0)
        rho = 1.0 / np.sqrt(8.0 * phi.astype(float))
        log_r = math.log(3.0) + np.concatenate(([0.0], np.cumsum(np.log1p(30.0 / rho[1:]))))
        # log_s[0] = log(p_1 q_1) = 0; later levels have s_l = 10 r_{l-1} / rho_l
        log_s = np.concatenate(([0.0], math.log(10.0) + log_r[:-1] - np.log(rho[1:])))
        log_q = log_s - np.log(p)

        object.__setattr__(self, "level_count", int(phi.size))
        for name, arr in (("phi", phi.astype(np.int64)), ("b_at_phi", b_at_phi), ("p", p),
                          ("rho", rho), ("log_q", log_q), ("log_r", log_r), ("log_s", log_s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _smallest_horizon(
    b_rule: Callable[[int], float], target: float, start: int, cap: int
) -> int | None:
    """Smallest m in [start, cap] with b(m)^2 < target, or None if there is
    none; b is non-increasing, so the predicate is monotone: probes at
    start, start + 1, start + 3, ... up to cap bracket the answer in
    (lo, m], and bisection finds it there.  A floor b(m) <= 0 raises."""

    def ok(m: int) -> bool:
        bm = float(b_rule(m))
        if not bm > 0.0:
            raise ValueError(f"the floor sequence must stay strictly positive; b({m}) = {bm!r}")
        return bm * bm < target

    if start > cap:
        return None
    lo, m, step = start - 1, start, 1
    while not ok(m):
        if m == cap:
            return None
        lo, m, step = m, min(cap, m + step), 2 * step
    return lo + 1 + bisect_left(range(lo + 1, m), True, key=ok)


def synthesize_layer_params(
    b_rule: Callable[[int], float],
    level_count: int,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> LayerParams:
    """Choose the horizon ladder phi for a floor sequence b and K levels.

    phi(j) is the smallest integer above phi(j-1) (phi(0) = 12, which forces
    rho < 1/10) with 2 sum_{k>j} p_k^2 > b(phi(j))^2, the tail over all k > j
    taken analytically; LayerParams derives rho, q, r and s from it.  More
    than 100 levels raise ValueError before any horizon is searched.  phi
    stores no horizon past 2**63 - 1, so no search goes past it: a level
    that needs one raises ValueError, whatever the search cap.
    """
    level_count = int(level_count)
    if level_count < 2:
        raise ValueError("need at least two levels")
    if level_count > _MAX_LEVELS:
        raise ValueError(f"{level_count} levels exceed {_MAX_LEVELS}, the most supported")
    search_cap = int(search_cap)

    phi = []
    for j in range(1, level_count + 1):
        start = phi[-1] + 1 if phi else 13
        horizon = _smallest_horizon(
            b_rule, 2.0 * _tail_inverse_squares(j), start, min(search_cap, _INT64_MAX))
        if horizon is None:
            if search_cap > _INT64_MAX:
                raise ValueError(f"level {j} needs the horizon to exceed the int64 "
                                 "limit 2**63 - 1 of the horizon ladder")
            slow = "; the floor sequence decays too slowly" if start < search_cap else ""
            raise ValueError(f"no admissible horizon at or below the search cap {search_cap}"
                             + slow)
        phi.append(horizon)
    return LayerParams(phi=np.array(phi, dtype=np.int64),
                       b_at_phi=np.array([float(b_rule(m)) for m in phi]))


def _stored_window(params: LayerParams, base: np.ndarray, n: int) -> float:
    """sum over the stored levels of base_k min(phi(k), n): levels with
    phi(k) <= n contribute base_k phi(k), later ones base_k n."""
    phi = params.phi.astype(float)
    served = phi <= n
    return float(np.sum(base[served] * phi[served])) + float(n * np.sum(base[~served]))


def residual_norm_sq_lagged(params: LayerParams, n: int) -> float:
    """||window_n(process - lagged martingale part)||^2, which the
    construction keeps at or below n for every horizon (so the normalized
    residual gap stays bounded and in fact below 1).

    Levels with phi(k) <= n contribute 2 p^2 rho^2 phi(k); later stored
    levels contribute 2 n p^2 rho^2.  An unsynthesized level k > K would
    contribute 2 p_k^2 rho_k^2 min(phi(k), n) = p_k^2 min(phi(k), n)/(4 phi(k)),
    at most p_k^2/4 whatever phi(k) > phi(K) turns out to be, and at most
    p_k^2 n / (4 phi(K)) when n <= phi(K); the returned value adds that worst
    case, so it upper-bounds every admissible continuation.
    """
    n = int(n)
    if n < 1:
        raise ValueError("the horizon must be >= 1")
    value = _stored_window(params, 2.0 * params.p**2 * params.rho**2, n)
    tail_cap = 0.25 * _tail_inverse_squares(params.level_count)
    return value + tail_cap * min(1.0, n / float(params.phi[-1]))


def residual_norm_sq_natural(params: LayerParams, n: int) -> float:
    """Certified lower bound on ||window_n(process - synchronous martingale
    part)||^2 under any admissible continuation beyond the stored levels.

    Stored levels enter exactly, with weights (1 + rho)^2.  A level k > K
    contributes at least 2 p_k^2 min(n, phi(K)): if its phi(k) exceeds n the
    term is 2 n p_k^2 (1+rho)^2 >= 2 n p_k^2, otherwise it is
    2 p_k^2 (1+rho)^2 phi(k) >= 2 p_k^2 phi(K).  At n = phi(j) the returned
    value therefore dominates 2 n sum_{k>j} p_k^2 > n b_n^2, the floor the
    synthesis guarantees.
    """
    n = int(n)
    if n < 1:
        raise ValueError("the horizon must be >= 1")
    value = _stored_window(params, 2.0 * params.p**2 * (1.0 + params.rho) ** 2, n)
    tail_floor = 2.0 * min(n, int(params.phi[-1])) * _tail_inverse_squares(params.level_count)
    return value + tail_floor


# ---------------------------------------------------------------------------
# decoding tables and the decimal encode/decode

_OUTCOMES = tuple(product((-1, 0, 1), repeat=2))  # lexicographic (sx, sy)


def _working_dps(params: LayerParams) -> int:
    # decimal digits spanning the smallest spacing (rho_1) to the top scale,
    # plus 30 guard digits
    span = float(params.log_s[-1]) - min(0.0, math.log(float(params.rho[0])))
    return 30 + int(span / math.log(10.0)) + 1


def decoding_table(
    params: LayerParams, level: int
) -> tuple[dict[tuple[int, int], Decimal], Decimal]:
    """The nine decoding centers of level ``level`` as an ``{outcome:
    center}`` dict in lexicographic outcome order, and the decoding radius
    ``half``, all Decimal at the codec's working precision.

    Centers are s_l (rho sx - (1 + rho) sy) with s_l = exp(log_s).  The
    radius is r_{l-1}, the reach of all lower levels combined, at l >= 2,
    and rho_1/4 at level 1, whose centers lie rho_1 apart.  Sorted centers
    must lie at least 2 half apart; this check, in the decoding precision,
    is what certifies that every value decodes to one outcome.  A failure
    raises InvariantViolation.  LayerCodec decodes with exactly these
    tables.
    """
    level = int(level)
    if not 1 <= level <= params.level_count:
        raise ValueError(f"level must lie in [1, {params.level_count}]")
    with localcontext(_context(_working_dps(params))):
        rho = Decimal(float(params.rho[level - 1]))
        s = Decimal(float(params.log_s[level - 1])).exp()
        half = Decimal(float(params.log_r[level - 2])).exp() if level >= 2 else rho / 4
        lag, lead = rho * s, (1 + rho) * s
        centers = {(sx, sy): sx * lag - sy * lead for sx, sy in _OUTCOMES}
        ordered = sorted(centers.items(), key=lambda cell: cell[1])
        for (low, lo), (high, hi) in zip(ordered, ordered[1:]):
            if not hi - lo >= 2 * half:
                raise InvariantViolation(
                    f"intervals overlap at level {level}: outcomes {low}, {high}"
                )
    return centers, half


@dataclass(frozen=True)
class DecodedSample:
    """Decoder verdict: recovered sign vectors, or the level where the value
    sat exactly on an interval endpoint (boundary) or matched nothing."""

    x_signs: tuple[int, ...]
    y_signs: tuple[int, ...]
    ok: bool
    boundary: bool = False
    fail_level: int | None = None


class LayerCodec:
    """Decimal encoder/decoder for level outcomes.

    Working precision is sized to the construction's dynamic range plus
    guard digits.  Each level's centers and radius are what
    ``decoding_table`` returns, checked disjoint at that precision, so the
    cascading subtractions keep a wide margin relative to each level's
    radius.  A value is decodable in plain binary64 only when all levels
    above the binary64 range are silent; this codec removes that
    restriction.
    """

    def __init__(self, params: LayerParams):
        self.params = params
        self.dps = _working_dps(params)
        self._context = _context(self.dps)
        levels = [decoding_table(params, lvl) for lvl in range(1, params.level_count + 1)]
        self._centers, self._half = zip(*levels)  # per level: {outcome: center}, radius

    def encode(self, x_signs, y_signs) -> Decimal:
        """Value of the time-zero sum for explicit level outcomes, as a Decimal
        at the codec's working precision."""
        k = self.params.level_count
        x_signs = tuple(int(s) for s in x_signs)
        y_signs = tuple(int(s) for s in y_signs)
        if len(x_signs) != k or len(y_signs) != k:
            raise ValueError("need one sign per level for both draws")
        if not set(x_signs) | set(y_signs) <= {-1, 0, 1}:
            raise ValueError("signs must be -1, 0 or +1")
        with localcontext(self._context):
            pairs = zip(x_signs, y_signs)
            return sum(centers[pair] for centers, pair in zip(self._centers, pairs))

    def decode(self, value) -> DecodedSample:
        """Read all level outcomes off a value, top level first.

        ``value`` is an int, float, str or Decimal, converted exactly; NaN,
        +-inf and malformed strings raise ValueError.  Each level from K
        down to 1 takes its nearest center, which must lie closer than the
        half-width r_{l-1} (sorted centers lie 2 r_{l-1} apart, so no other
        can), or than rho_1/4 at level 1, whose centers lie rho_1 apart.  At
        l >= 2 a distance of exactly r_{l-1} is a boundary outcome; any
        other miss fails at that level.
        """
        k = self.params.level_count
        xs = [0] * k
        ys = [0] * k
        with localcontext(self._context):
            try:
                residual = Decimal(value)
            except InvalidOperation as exc:
                raise ValueError(f"cannot decode {value!r}: not a number") from exc
            if not residual.is_finite():
                raise ValueError(f"cannot decode the non-finite value {value!r}")
            for lvl in range(k, 0, -1):
                cells = self._centers[lvl - 1].items()
                dist, outcome, center = min((abs(residual - c), o, c) for o, c in cells)
                half = self._half[lvl - 1]
                if not dist < half:
                    return DecodedSample(tuple(xs), tuple(ys), ok=False,
                                         boundary=lvl > 1 and dist == half, fail_level=lvl)
                xs[lvl - 1], ys[lvl - 1] = outcome
                residual -= center
        return DecodedSample(tuple(xs), tuple(ys), ok=True)


@dataclass(frozen=True)
class DecodeReport:
    """Round-trip tally for simulate_and_decode.

    ``nonzero_draws`` counts per level over both draws; ``miss_probability``
    is the per-sample chance that some suppressed level would have fired,
    1 - prod (1 - 1/q_k^2)^2 over the suppressed levels.
    """

    samples: int
    recovered: int
    failures: int
    boundary_hits: int
    nonzero_draws: tuple[int, ...]
    suppressed_levels: tuple[int, ...]
    miss_probability: float
    seed: int


def simulate_and_decode(params: LayerParams, samples: int, seed: int = 0) -> DecodeReport:
    """Draw level outcomes, encode them into one value, decode it back, and
    count exact recoveries.

    Sample i draws all its uniforms with one ``random`` call on the (seed, i)
    substream; the layout, levels ascending and E before D, is part of the
    contract.  A uniform below half the fire probability gives sign -1,
    below it +1.  The draws of blocks of _DRAW_BLOCK samples come from one
    ``substream_uniforms`` array pass, so memory stays bounded for any
    sample count.  Each distinct outcome pattern is encoded and decoded
    once and weighted by its count.  Levels whose per-draw fire
    log-probability -2 log q_k lies below FIRE_LOG_FLOOR cannot fire within
    any feasible budget; they are skipped and the skipped probability mass
    is reported.  samples must lie in [1, 10^7]; ValueError is raised
    before the codec is built otherwise.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"{samples} samples exceed {_MAX_SAMPLES:.0e}, the most round trips "
                         "supported")
    codec = LayerCodec(params)
    k = params.level_count
    fire_log = -2.0 * params.log_q
    suppressed = fire_log < FIRE_LOG_FLOOR
    fire = np.exp(fire_log[~suppressed])
    if np.any(suppressed):
        log_keep = 2.0 * np.sum(np.log1p(-np.exp(fire_log[suppressed])))
        miss = -float(math.expm1(log_keep))
    else:
        miss = 0.0

    # draw j of a sample reads live level j // 2, E before D; a uniform below
    # the fire probability codes 1 (sign +1), below half of it 2 (sign -1),
    # else 0.  A sample's key is the base-3 number of its codes, draw 0
    # lowest.  q grows by over 300 per level from q_1 = 1, so at most four
    # levels are live and the key fits in an int64.
    width = 2 * fire.size
    if width > 39:
        raise InvariantViolation(f"{fire.size} live levels overflow the outcome key")
    fire_col = np.repeat(fire, 2)
    half_col = np.repeat(0.5 * fire, 2)
    place = 3 ** np.arange(width, dtype=np.int64)
    tally = Counter()
    for start in range(0, samples, _DRAW_BLOCK):
        u = substream_uniforms(seed, start, min(samples, start + _DRAW_BLOCK), width)
        codes = (u < fire_col).astype(np.int64) + (u < half_col)
        keys, counts = np.unique(codes @ place, return_counts=True)
        tally.update(dict(zip(keys.tolist(), counts.tolist())))

    recovered = failures = boundary = 0
    nonzero = np.zeros(k, dtype=np.int64)
    for key, count in tally.items():
        codes = key // place % 3
        pattern = np.zeros((k, 2), dtype=np.int8)
        pattern[~suppressed] = ((codes == 1).astype(np.int8) - (codes == 2)).reshape(-1, 2)
        nonzero += count * np.count_nonzero(pattern, axis=1)
        xs, ys = tuple(pattern[:, 0].tolist()), tuple(pattern[:, 1].tolist())
        out = codec.decode(codec.encode(xs, ys))
        if out.boundary:
            boundary += count
        elif out.ok and out.x_signs == xs and out.y_signs == ys:
            recovered += count
        else:
            failures += count
    return DecodeReport(
        samples=samples,
        recovered=recovered,
        failures=failures,
        boundary_hits=boundary,
        nonzero_draws=tuple(nonzero.tolist()),
        suppressed_levels=tuple(lvl + 1 for lvl in range(k) if suppressed[lvl]),
        miss_probability=miss,
        seed=int(seed),
    )


def level_one_window_variance(params: LayerParams, n: int) -> float:
    """Exact Var of the n-window sum of the level-1 residual process
    p_1 rho_1 (E_1 - D_1): the lag-phi(1) differencing doubles min(phi(1), n)
    variance contributions."""
    n = int(n)
    if n < 1:
        raise ValueError("the horizon must be >= 1")
    return float(2.0 * params.p[0] ** 2 * params.rho[0] ** 2 * min(int(params.phi[0]), n))


def simulate_level_one_variance(
    params: LayerParams, n: int, replicates: int, seed: int = 0
) -> float:
    """Monte-Carlo Var of the same window sum over seeded replicates.

    Level 1 is the only level whose spikes are common enough for naive
    replication: q_1 = 1 makes E_1 a plain random sign.
    """
    n = int(n)
    replicates = int(replicates)
    if n < 1 or replicates < 1:
        raise ValueError("need n >= 1 and replicates >= 1")
    phi1 = int(params.phi[0])
    rng = substream(seed, 0)
    signs = rng.integers(0, 2, size=(replicates, n + phi1)).astype(float) * 2.0 - 1.0
    sums = params.rho[0] * params.p[0] * (
        signs[:, phi1:].sum(axis=1) - signs[:, :n].sum(axis=1)
    )
    return float(np.var(sums))
