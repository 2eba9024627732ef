"""Exhaustive finite probability model for filtration arithmetic.

The sample space is the sign cube {+-1}^V of a finite family of
independent Rademacher variables: carriers ``("e", i)`` for i = -depth ..
depth + 1 and ``("f", j)`` for j in {-1, 0}.  Atom i is the sign pattern
whose carrier j is +1 exactly when bit j of i is set, so a vector over the
2^V atoms reshaped to ``(2,) * V`` has carrier j on axis V - 1 - j.
Conditioning on a set of carriers is then the mean over the axes of the
carriers outside it, which makes martingale difference norms, telescoping
identities and remote-past projections exact to float64 roundoff rather
than sampled.

The observable of interest is f_0 * digit + 2 e_0, where ``digit`` packs
the e-signs of positive and negative index into one number through the
base-1/3 expansion 1 + sum_{i=1..depth} e_i 3^-(2i) + e_-i 3^-(2i+1); the
exponents 2 .. 2 depth + 1 are distinct and each weight dominates the sum
of all smaller ones, so the packing is lossless and invertible by a greedy
scan.  ``digit_values`` is the one encoder: it packs whole sign matrices,
``ExactModel.build``'s digit column included, by 2 depth elementwise adds
in a fixed column order, with no BLAS product, so the digit is the same
float on every CPU.  ``decode_digit_values`` decodes in 2 depth array
steps and accepts a value only when its decoded signs re-encode to it;
``digit_value`` and ``decode_digit_value`` are the one-row forms of the
two.  e_0 and e_{depth+1} carry no digit weight: e_0 enters the
observable separately, and e_{depth+1} exists only so the filtration has
one step past the last weighted carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExactModel",
    "Label",
    "ProjectionReport",
    "conditional_expectation",
    "conditioning_up_to",
    "decode_digit_value",
    "decode_digit_values",
    "digit_value",
    "digit_values",
    "hannan_sum",
    "martingale_difference_norms",
    "remote_past_projection",
]

Label = tuple[str, int]

@dataclass(frozen=True, eq=False)
class ExactModel:
    """All atoms of the finite model; ``column`` reads a carrier's signs."""

    depth: int
    labels: tuple[Label, ...]
    digit: np.ndarray  # (2^V,) float64
    observable: np.ndarray  # (2^V,) float64

    @classmethod
    def build(cls, depth: int) -> "ExactModel":
        depth = int(depth)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        labels = (*(("e", i) for i in range(-depth, depth + 2)), ("f", -1), ("f", 0))
        if len(labels) > 20:
            raise ValueError("too many carriers for exhaustive enumeration")
        band = np.column_stack([_carrier_signs(labels, label) for label in _band(depth)[0]])
        digit = digit_values(band, depth)
        f0, e0 = _carrier_signs(labels, ("f", 0)), _carrier_signs(labels, ("e", 0))
        return cls(depth=depth, labels=labels, digit=digit, observable=f0 * digit + 2.0 * e0)

    def column(self, label: Label) -> np.ndarray:
        """A fresh float64 copy of one carrier's signs."""
        if label not in self.labels:
            raise KeyError(f"no carrier {label!r} in this model")
        return _carrier_signs(self.labels, label).astype(np.float64)


def _carrier_signs(labels: tuple[Label, ...], label: Label) -> np.ndarray:
    """int8 signs of carrier j = labels.index(label) over the 2^V atoms:
    +1 exactly on the atoms whose index has bit j set."""
    v, j = len(labels), labels.index(label)
    return np.tile(np.repeat(np.array([-1, 1], dtype=np.int8), 2**j), 2 ** (v - 1 - j))


def conditioning_up_to(model: ExactModel, k: int) -> frozenset:
    """Carriers visible at time k: all e_i and f_j with index <= k."""
    return frozenset(lab for lab in model.labels if lab[1] <= k)


def conditional_expectation(model: ExactModel, target: np.ndarray, cond: frozenset) -> np.ndarray:
    """Exact E[target | carriers in cond] as an atom-wise vector.

    On the sign cube this is the mean of the target over the axes of the
    carriers outside ``cond``, broadcast back to every atom.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != model.digit.shape:
        raise ValueError("target must assign one value per atom")
    unknown = cond - set(model.labels)
    if unknown:
        raise KeyError(f"conditioning on carriers outside the model: {sorted(unknown)}")
    v = len(model.labels)
    hidden = tuple(v - 1 - j for j, lab in enumerate(model.labels) if lab not in cond)
    cube = target.reshape((2,) * v)
    return np.broadcast_to(cube.mean(axis=hidden, keepdims=True), cube.shape).flatten()


def martingale_difference_norms(model: ExactModel) -> dict[int, float]:
    """L2 norms of the increments E[obs | F_{k+1}] - E[obs | F_k].

    Keys run from -2 (every earlier increment vanishes identically, and
    k = -2 is kept as a computed witness of that flatness) up to depth.
    The final key is zero only because the carrier family is truncated:
    the infinite construction would continue the 3^-(2k+2) pattern.
    """
    previous = conditional_expectation(model, model.observable, conditioning_up_to(model, -2))
    norms = {}
    for k in range(-2, model.depth + 1):  # only E[obs | F_k] is kept for step k
        current = conditional_expectation(model, model.observable, conditioning_up_to(model, k + 1))
        diff = current - previous
        norms[k] = float(np.sqrt(np.mean(diff * diff)))
        previous = current
    return norms


def hannan_sum(model: ExactModel, norms: dict[int, float] | None = None) -> float:
    """Sum of the martingale difference norms, completed by the analytic
    tail 3^-(2 depth) / 8 that the finite carrier family truncates away
    (norms 3^-(2k+2) continued over all k >= depth).  ``norms`` are the
    model's ``martingale_difference_norms``, computed here when not given."""
    if norms is None:
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
    keep = frozenset(lab for lab in model.labels if lab[0] == "e" or lab[1] <= -1)
    values = conditional_expectation(model, model.observable, keep)
    e0 = model.column(("e", 0))
    return ProjectionReport(
        values=values,
        norm=float(np.sqrt(np.mean(values * values))),
        matches_e0=bool(np.allclose(values, e0, rtol=0.0, atol=1e-12)),
        matches_two_e0=bool(np.allclose(values, 2.0 * e0, rtol=0.0, atol=1e-12)),
    )


def _band(depth: int) -> tuple[list[Label], list[float], list[int]]:
    """The weighted e-carriers in packing order, e_1 .. e_depth, then
    e_-depth .. e_-1 (column j of a sign matrix holds carrier j); their
    weights, 3^-(2i) for e_i and 3^-(2i+1) for e_-i; and the columns in
    decoding order, by decreasing weight."""
    labels = [("e", i) for i in (*range(1, depth + 1), *range(-depth, 0))]
    weights = [3.0 ** -(2 * i) if i > 0 else 3.0 ** -(2 * -i + 1) for _, i in labels]
    order = sorted(range(2 * depth), key=lambda j: -weights[j])
    return labels, weights, order


def digit_values(signs, depth: int) -> np.ndarray:
    """Pack rows of e-signs into digit values (the model's encoder).

    ``signs`` is an (n, 2 depth) array of +-1, one column per carrier in
    the order e_1 .. e_depth, then e_-depth .. e_-1.  Each value is
    1.0 plus the signed weights, added one column at a time in that order,
    so it is the same float as the sum of those terms in that order.
    """
    depth = int(depth)
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] != 2 * depth:
        raise ValueError(f"signs must be an (n, {2 * depth}) array, one column per carrier")
    if not np.all((signs == 1) | (signs == -1)):
        raise ValueError("signs must be -1 or +1")
    total = np.ones(signs.shape[0])
    for j, weight in enumerate(_band(depth)[1]):
        total += signs[:, j] * weight
    return total


def decode_digit_values(values, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert digit_values by greedy sign extraction, largest weight first.

    Weights 3^-m for m = 2 .. 2 depth + 1 dominate the sum of all smaller
    ones (a geometric tail of ratio 1/3), so the sign at each position is
    the sign of the residual.  Returns the (n, 2 depth) int8 sign rows, in
    digit_values' columns, and a mask of the rows that decode: the rows
    whose signs re-encode through digit_values to exactly the given value.
    Any other value (1.0, 100.0, NaN, inf) is not one the encoder produces,
    and that row's signs mean nothing.
    """
    depth = int(depth)
    values = np.array(values, dtype=np.float64, ndmin=1)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    _, weights, order = _band(depth)
    residual = values - 1.0
    signs = np.empty((values.size, 2 * depth), dtype=np.int8)
    for j in order:
        signs[:, j] = np.where(residual > 0.0, 1, -1)
        residual -= signs[:, j] * weights[j]
    return signs, digit_values(signs, depth) == values


def digit_value(signs: dict[Label, int], depth: int) -> float:
    """Pack explicit e-signs into the digit value: digit_values of one row.

    Only the weighted band is read: e_i for 1 <= |i| <= depth.
    """
    depth = int(depth)
    row = [int(signs[label]) for label in _band(depth)[0]]
    return float(digit_values([row], depth)[0])


def decode_digit_value(value: float, depth: int) -> dict[Label, int]:
    """decode_digit_values of one value, as e-signs keyed by carrier in
    decoding order; a value its signs do not re-encode to raises ValueError."""
    depth = int(depth)
    signs, ok = decode_digit_values(float(value), depth)
    if not ok[0]:
        raise ValueError("value is not a packed digit of this depth")
    labels, _, order = _band(depth)
    return {labels[j]: int(signs[0, j]) for j in order}
