"""Exact cell texts of float64 and integer arrays, a block at a time.

``cells(values, spec)`` gives every cell v of ``values.tolist()`` the text
``spec % v`` at once, as one row of a NUL-padded uint8 matrix: spec is "%d"
for an integer array, "%.17g" or "%r" (``float.__repr__``) for a float64
one.  ``rows`` joins the texts of blocks into rows and drops the NULs.

A float's digits come from Y = |x| 10**k, scaled into [1e16, 1e17) and
computed as an int64 plus a fraction with an error below 1e-14: 10**k is
an exact double-double and each product is split by Dekker's method, since
numpy has no fused multiply-add.  "%.17g" takes round(Y).  repr takes the
first of the 15-, 16- and 17-digit roundings of Y that lies strictly inside
the rounding interval of x, half an ulp each way: the shortest text that
reads back as x, and the nearest of that length, since the nearest
rounding lies inside whenever any rounding of its length does.  The digits
are then laid out as %g and repr lay them out.

Zero takes the fast path with its sign.  Any cell the fast path cannot
certify takes ``spec % v`` itself: a nonzero float outside [1e-28, 1e17)
(so subnormals, NaN and inf), a rounding within 1e-9 of a tie or of an
interval bound, and for repr a power of two, whose interval is narrower
below it; an integer outside [0, 10**12).  So the bytes are ``spec % v``'s
bytes, cell for cell.

Texts are built as 64-bit words, byte i of a text in bits 8i..8i+7 of its
words, so that each step is one numpy operation on a column of words, and
are stored little-endian.  The tables are built without Python loops over
their entries.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cells", "rows"]

_MARGIN = 1e-9  # in units of the 17th digit; the error in Y is below 1e-14


def _split(a):
    """a as hi + lo, each of at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, b_hi, b_lo):
    """a * b as p + e exactly, p the rounded product (Dekker); b = b_hi + b_lo split."""
    p = a * b
    a_hi, a_lo = _split(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# 10**k for 0 <= k <= 44 as hi + lo exactly: 10**k = 10**min(k, 22) *
# 10**max(k - 22, 0) is a product of two exact doubles, which Dekker's
# product splits exactly.
_TENS = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_K = np.arange(45)
_HI, _LO = _two_product(_TENS[np.minimum(_K, 22)], _TENS[np.maximum(_K - 22, 0)],
                        *_split(_TENS[np.maximum(_K - 22, 0)]))
_HI_HI, _HI_LO = _split(_HI)


def _words(text) -> np.ndarray:
    """Rows of bytes, each a multiple of 8 long, as words: by word, then row."""
    text = np.asarray(text, dtype=np.uint64)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    return (text.reshape(len(text), -1, 8) << shifts).sum(-1, dtype=np.uint64).T.copy()


def _below(count, width: int) -> np.ndarray:
    """The words of width-byte masks whose bytes before count are 0xff."""
    return _words(np.where(np.arange(width) < np.asarray(count)[:, None], 255, 0))


# '0000'..'9999' in bytes 0-3, and the trailing zeros of each (4 for 0000)
_TEN = np.arange(10, dtype=np.uint64)
_DIGITS = (0x30303030 + _TEN[:, None, None, None] + (_TEN[:, None, None] << np.uint64(8))
           + (_TEN[:, None] << np.uint64(16)) + (_TEN << np.uint64(24))).ravel()
_TRAILING = sum(np.arange(10000) % 10**j == 0 for j in range(1, 5)).astype(np.uint8)

# A float's text is bytes 0-31: sign and leading '0.000' in 0-5, the 17
# digits in 7-23 (digits 0..P one byte lower when a '.' follows digit P),
# trailing zeros dropped, and the exponent in 24-27.
_KEEP = _below(7 + np.arange(18), 24)  # by the digits kept
_P = np.arange(-1, 16)  # where the '.' goes, -1 for none; tables by P + 1
_LEFT = _below(8 + _P, 24) & ~_below(np.full(_P.size, 7), 24)  # digits 0..P
_DOT = _words(np.where((np.arange(24) == 7 + _P[:, None]) & (_P[:, None] >= 0), 46, 0))
_LEAD = np.arange(10)[:, None] // 2  # '', '0.', '0.0', '0.00', '0.000' by 2 * zeros + sign
_PREFIX = _words(np.column_stack([np.arange(10) % 2 * 45, np.where(np.arange(1, 8) == 2, 46, 48)
                                  * (np.arange(1, 8) <= _LEAD + 1) * (_LEAD >= 1)]))[0]
_X = np.arange(-28, 18)  # the exponents a text can carry
_EXPONENT = np.append(_words(np.column_stack([  # 'e-28'..'e+17', then none
    np.full(_X.size, 101), np.where(_X < 0, 45, 43), 48 + abs(_X) // 10, 48 + abs(_X) % 10,
    np.zeros((_X.size, 4))]))[0], np.uint64(0))
# An integer's text is bytes 0-15, its digits right-aligned.
_INT_TENS = 10 ** np.arange(12)
_INT_KEEP = ~_below(16 - np.arange(13), 16)  # by the digit count
# The bytes of a cell's slot in a row, by spec: the widest text the fast
# path lays out or Python writes ('-9223372036854775808' takes 20).
_SLOT = {"%d": 20, "%.17g": 28, "%r": 28}


def _chunks(v, count: int) -> list:
    """v's top part and count 4-digit chunks below it, most significant first."""
    out = []
    for _ in range(count):
        q = v // 10000
        out.append(v - q * 10000)
        v = q
    return [v, *out[::-1]]


def _scaled(a, k):
    """a * 10**k as an int64 and the fraction in [0, 1) that follow it."""
    p, e = _two_product(a, _HI[k], _HI_HI[k], _HI_LO[k])
    t = e + a * _LO[k]
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _float_texts(x: np.ndarray, shortest: bool) -> tuple[tuple, np.ndarray]:
    """_layout's words and width of x's texts, repr's when shortest, else
    %.17g's, and where they are certified."""
    a = np.abs(x)
    zero = a == 0
    fast = zero | (a >= 1e-28) & (a < 1e17)
    a = np.where(fast & ~zero, a, 1.0)
    k = np.maximum(16 - np.floor(np.log10(a)).astype(np.intp), 0)  # log10 < 17
    whole, frac = _scaled(a, k)
    # log10 can miss a power of ten by one: step k once and check again
    redo = np.flatnonzero((whole < 10**16) | (whole >= 10**17))
    if redo.size:
        step = k[redo] + np.where(whole[redo] < 10**16, 1, -1)
        k[redo] = np.clip(step, 0, 44)
        whole[redo], frac[redo] = _scaled(a[redo], k[redo])
        fast[redo] &= (step == k[redo]) & (whole[redo] >= 10**16) & (whole[redo] < 10**17)
    digits = whole + (frac > 0.5)
    tie = np.abs(frac - 0.5) < _MARGIN
    if shortest:
        mantissa, exponent = np.frexp(a)
        half_ulp = np.ldexp(_HI[k], exponent - 54)
        fast &= (mantissa != 0.5) | zero
        for unit in (10, 100):  # 16 then 15 digits, the shorter one winning
            top = whole // unit
            rest = (whole - top * unit) + frac
            up = rest > unit / 2
            gap = half_ulp - np.minimum(rest, unit - rest)  # > 0: the rounding lies inside
            fast &= np.abs(gap) > _MARGIN
            inside = gap > 0
            digits = np.where(inside, (top + up) * unit, digits)
            # a tie at 15 digits lies 50 units off, outside: half_ulp < 12
            tie = np.where(inside, unit == 10 and np.abs(rest - 5) < _MARGIN, tie)
    fast &= ~tie
    digits = np.where(zero, 0, digits)
    point = np.where(zero, 0, 16 - k)
    carry = digits == 10**17
    digits[carry] = 10**16
    point += carry
    return _layout(digits, point, np.signbit(x), shortest), fast


def _layout(digits, point, negative, shortest: bool) -> tuple[list, int]:
    """The words of the texts of ±d.ddd * 10**point for ``digits``, 17-digit
    integers or 0, laid out as %g with precision 17 or as repr: trailing
    zeros dropped, fixed for -4 <= point < 17 (repr: 16) with repr's '.0'
    on an integer, else an exponent of at least two digits; and the bytes
    they take, 24 when no text has an exponent."""
    head, *chunks = _chunks(digits, 4)
    trailing = _TRAILING[chunks[3]]
    more = np.flatnonzero(chunks[3] == 0)  # a zero last chunk: count on from the top
    if more.size:
        trailing[more] = 0
        for chunk in chunks:
            trailing[more] = np.where(chunk[more] == 0, trailing[more] + 4, _TRAILING[chunk[more]])
    significant = 17 - trailing
    scientific = (point < -4) | (point >= 17 - shortest)
    fixed = ~scientific & (point >= 0)
    kept = np.where(fixed, np.maximum(significant, point + 1 + shortest), significant)
    dot = np.where(scientific, significant > 1, fixed & (shortest | (significant > point + 1)))
    dot = np.where(dot, np.where(scientific, 0, point), -1) + 1  # P + 1
    w0 = (head.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    w1 = (_DIGITS[chunks[0]] | _DIGITS[chunks[1]] << np.uint64(32)) & _KEEP[1][kept]
    w2 = (_DIGITS[chunks[2]] | _DIGITS[chunks[3]] << np.uint64(32)) & _KEEP[2][kept]
    left1, left2 = w1 & _LEFT[1][dot], w2 & _LEFT[2][dot]
    lead = np.where(scientific | fixed, 0, -point)
    w0 = np.where(dot > 0, w0 >> np.uint64(8) | left1 << np.uint64(56), w0)
    w0 |= _PREFIX[2 * lead + negative] | _DOT[0][dot]
    w1 = (w1 ^ left1) | left1 >> np.uint64(8) | left2 << np.uint64(56) | _DOT[1][dot]
    w2 = (w2 ^ left2) | left2 >> np.uint64(8) | _DOT[2][dot]
    if not scientific.any():
        return [w0, w1, w2], 24
    return [w0, w1, w2, _EXPONENT[np.where(scientific, point + 28, -1)]], 28


def _int_texts(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The words of an integer array's texts, and where they are certified:
    in [0, 10**12), from three 4-digit chunks."""
    fast = (values >= 0) & (values < 10**12)
    v = np.where(fast, values, 0).astype(np.int64)
    top, middle, low = _chunks(v, 2)
    length = np.maximum(np.searchsorted(_INT_TENS, v, side="right"), 1)
    return [_DIGITS[top] << np.uint64(32) & _INT_KEEP[0][length],
            (_DIGITS[middle] | _DIGITS[low] << np.uint64(32)) & _INT_KEEP[1][length]], fast


def cells(values: np.ndarray, spec: str) -> np.ndarray:
    """spec % v for each v of values.tolist(), one NUL-padded row each."""
    if spec == "%d":
        (words, fast), start, stop = _int_texts(values), 4, 16
    else:
        (words, stop), fast = _float_texts(values, spec == "%r")
        start = 0
    out = np.column_stack(words).astype("<u8", copy=False).view(np.uint8)[:, start:stop]
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [(spec % v).encode() for v in values[slow].tolist()]
        width = max(out.shape[1], *map(len, texts))
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
        out[slow] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                                  np.uint8).reshape(-1, width)
    return out


def rows(pieces: tuple[str, ...], blocks: list) -> bytearray:
    """The rows of blocks, (array, spec) pairs of equal length, as ASCII
    bytes: pieces[j] before the cell of block j and pieces[-1] after the
    last.  Each block's texts go to their slot of a zeroed buffer as soon
    as they are made, and the NULs are dropped from the whole buffer in one
    pass."""
    n = len(blocks[0][0])
    width = sum(map(len, pieces)) + sum(_SLOT[spec] for _, spec in blocks)
    text = bytearray(n * width)
    out = np.frombuffer(text, np.uint8).reshape(n, width)
    at = 0
    for piece, (values, spec) in zip(pieces, [*blocks, (None, None)]):
        out[:, at:at + len(piece)] = np.frombuffer(piece.encode(), np.uint8)
        at += len(piece)
        if spec is not None:
            texts = cells(values, spec)
            out[:, at:at + texts.shape[1]] = texts
            at += _SLOT[spec]
    del out  # releases the buffer, so that it is freed once stripped
    return text.translate(None, b"\0")
