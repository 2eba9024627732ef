"""Exhaustive finite probability model for filtration arithmetic.

The sample space enumerates every sign assignment to a finite family of
independent Rademacher variables: carriers ``("e", i)`` for i = -depth ..
depth + 1 and ``("f", j)`` for j in {-1, 0} plus any extras.  With at most
a few dozen carriers, all 2^V atoms fit in memory and conditional
expectations are exact column averages over atom groups, so martingale
difference norms, telescoping identities and remote-past projections can
be checked to float64 roundoff rather than sampled.

The observable of interest is f_0 * digit + 2 e_0, where ``digit`` packs
the e-signs of positive and negative index into one number through the
base-1/3 expansion 1 + sum_{i=1..depth} e_i 3^-(2i) + e_-i 3^-(2i+1); the
exponents 2 .. 2 depth + 1 are distinct and each weight dominates the sum
of all smaller ones, so the packing is lossless and invertible by a greedy
scan.  e_0 and e_{depth+1} carry no digit weight: e_0 enters the
observable separately, and e_{depth+1} exists only so the filtration has
one step past the last weighted carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConditioningSet",
    "ExactModel",
    "Label",
    "ProjectionReport",
    "conditional_expectation",
    "conditioning_up_to",
    "decode_digit_value",
    "digit_value",
    "hannan_sum",
    "martingale_difference_norms",
    "remote_past_projection",
]

Label = tuple[str, int]


def _digit_weight(label: Label, depth: int) -> float:
    """Weight of one carrier inside the packed digit (zero off the e-band)."""
    kind, idx = label
    if kind != "e" or idx == 0 or abs(idx) > depth:
        return 0.0
    if idx >= 1:
        return 3.0 ** -(2 * idx)
    return 3.0 ** -(2 * -idx + 1)


@dataclass(frozen=True, eq=False)
class ExactModel:
    """All atoms of the finite model, with per-carrier sign columns."""

    depth: int
    labels: tuple[Label, ...]
    signs: np.ndarray  # (2^V, V) int8, entries +-1
    digit: np.ndarray  # (2^V,) float64
    observable: np.ndarray  # (2^V,) float64
    _col: dict = field(repr=False)

    @classmethod
    def build(cls, depth: int, extra_carriers: tuple[int, ...] = ()) -> "ExactModel":
        depth = int(depth)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        e_labels = [("e", i) for i in range(-depth, depth + 2)]
        f_indices = sorted({-1, 0, *map(int, extra_carriers)})
        f_labels = [("f", j) for j in f_indices]
        labels = tuple(e_labels + f_labels)
        v = len(labels)
        if v > 20:
            raise ValueError("too many carriers for exhaustive enumeration")
        idx = np.arange(2**v, dtype=np.int64)
        signs = (((idx[:, None] >> np.arange(v)) & 1) * 2 - 1).astype(np.int8)
        weights = np.array([_digit_weight(lab, depth) for lab in labels])
        digit = 1.0 + signs.astype(np.float64) @ weights
        col = {lab: signs[:, j].astype(np.float64) for j, lab in enumerate(labels)}
        return cls(
            depth=depth,
            labels=labels,
            signs=signs,
            digit=digit,
            observable=col[("f", 0)] * digit + 2.0 * col[("e", 0)],
            _col=col,
        )

    def column(self, label: Label) -> np.ndarray:
        if label not in self._col:
            raise KeyError(f"no carrier {label!r} in this model")
        return self._col[label]


@dataclass(frozen=True)
class ConditioningSet:
    """The sigma-field generated by a subset of the carriers."""

    labels: frozenset


def conditioning_up_to(model: ExactModel, k: int) -> ConditioningSet:
    """Carriers visible at time k: all e_i and f_j with index <= k."""
    keep = frozenset(lab for lab in model.labels if lab[1] <= k)
    return ConditioningSet(labels=keep)


def conditional_expectation(
    model: ExactModel, target: np.ndarray, cond: ConditioningSet
) -> np.ndarray:
    """Exact E[target | cond] as an atom-wise vector.

    Atoms are grouped by the bit pattern of the conditioning carriers and
    the target is averaged within each group.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (model.signs.shape[0],):
        raise ValueError("target must assign one value per atom")
    positions = [j for j, lab in enumerate(model.labels) if lab in cond.labels]
    unknown = cond.labels - set(model.labels)
    if unknown:
        raise KeyError(f"conditioning on carriers outside the model: {sorted(unknown)}")
    if not positions:
        return np.full_like(target, target.mean())
    bits = (model.signs[:, positions] > 0).astype(np.int64)
    key = bits @ (np.int64(1) << np.arange(len(positions), dtype=np.int64))
    sums = np.bincount(key, weights=target, minlength=2 ** len(positions))
    counts = np.bincount(key, minlength=2 ** len(positions))
    return (sums / counts)[key]


def martingale_difference_norms(model: ExactModel) -> dict[int, float]:
    """L2 norms of the increments E[obs | F_{k+1}] - E[obs | F_k].

    Keys run from -2 (every earlier increment vanishes identically, and
    k = -2 is kept as a computed witness of that flatness) up to depth.
    The final key is zero only because the carrier family is truncated:
    the infinite construction would continue the 3^-(2k+2) pattern.
    """
    k_lo = -2
    k_hi = model.depth + 1
    ce = {}
    for k in range(k_lo, k_hi + 1):
        ce[k] = conditional_expectation(model, model.observable, conditioning_up_to(model, k))
    norms = {}
    for k in range(k_lo, k_hi):
        diff = ce[k + 1] - ce[k]
        norms[k] = float(np.sqrt(np.mean(diff * diff)))
    return norms


def hannan_sum(model: ExactModel) -> float:
    """Sum of the martingale difference norms, completed by the analytic
    tail 3^-(2 depth) / 8 that the finite carrier family truncates away
    (norms 3^-(2k+2) continued over all k >= depth)."""
    norms = martingale_difference_norms(model)
    tail = 9.0**-model.depth / 8.0
    return float(sum(norms.values()) + tail)


@dataclass(frozen=True)
class ProjectionReport:
    """Projection of the observable on the remote past."""

    values: np.ndarray
    norm: float
    matches_e0: bool
    matches_two_e0: bool


def remote_past_projection(model: ExactModel) -> ProjectionReport:
    """E[obs | all e-carriers and the f-carriers with index <= -1].

    The digit is fully measurable there while f_0 is independent of it, so
    the projection collapses to the 2 e_0 summand.  The report states which
    of the two candidate identifications (e_0 or 2 e_0) holds.
    """
    keep = frozenset(
        lab for lab in model.labels if lab[0] == "e" or (lab[0] == "f" and lab[1] <= -1)
    )
    values = conditional_expectation(model, model.observable, ConditioningSet(keep))
    e0 = model.column(("e", 0))
    return ProjectionReport(
        values=values,
        norm=float(np.sqrt(np.mean(values * values))),
        matches_e0=bool(np.allclose(values, e0, rtol=0.0, atol=1e-12)),
        matches_two_e0=bool(np.allclose(values, 2.0 * e0, rtol=0.0, atol=1e-12)),
    )


def digit_value(signs: dict[Label, int], depth: int) -> float:
    """Pack explicit e-signs into the digit value (the model's encoder).

    Only the weighted band is read: e_i for 1 <= |i| <= depth.
    """
    depth = int(depth)
    total = 1.0
    for i in [*range(1, depth + 1), *range(-depth, 0)]:
        s = int(signs[("e", i)])
        if s not in (-1, 1):
            raise ValueError("signs must be -1 or +1")
        total += s * _digit_weight(("e", i), depth)
    return total


def decode_digit_value(value: float, depth: int) -> dict[Label, int]:
    """Invert digit_value by greedy sign extraction, largest weight first.

    Weights 3^-m for m = 2 .. 2 depth + 1 dominate the sum of all smaller
    ones (a geometric tail of ratio 1/3), so the sign at each position is
    the sign of the residual.  A zero residual before all positions are
    read means the value was not produced by the encoder.
    """
    depth = int(depth)
    residual = float(value) - 1.0
    out: dict[Label, int] = {}
    for m in range(2, 2 * depth + 2):
        if residual == 0.0:
            raise ValueError("value is not a packed digit of this depth")
        s = 1 if residual > 0 else -1
        label: Label = ("e", m // 2) if m % 2 == 0 else ("e", -(m - 1) // 2)
        out[label] = s
        residual -= s * 3.0**-m
    return out
