"""Seed-splitting helper.

The substream rule is part of the package contract: replicate ``i`` of a run
seeded with ``s`` draws from ``default_rng(SeedSequence((s mod 2^64, i)))``.
The rule is fixed so that recorded outputs stay reproducible across versions.

``substream_uniforms`` gives ``substream(seed, i).random(width)`` for a whole
range of indices at once, without building one generator per index.  It
mirrors numpy's algorithms in array arithmetic, vectorised across indices:

* SeedSequence: the entropy words of ``(seed mod 2^64, i)`` (one uint32 word
  per started 32 bits, at least one per value) hashed into a pool of four
  uint32 words, then ``generate_state(4, uint64)``;
* PCG64 seeding from those four words (state, then increment, high word
  first), as in ``pcg_setseq_128_srandom_r``;
* PCG64's 128-bit LCG step and XSL-RR output, and ``random``'s
  ``(x >> 11) * 2**-53``.

``tests/test_rng.py`` pins the batched draws bit for bit to ``substream``
under hypothesis, and every call checks its first row against
``substream`` itself, raising InvariantViolation on a mismatch, so a numpy
release that changes either algorithm fails loudly.
"""

from __future__ import annotations

import numpy as np

from . import InvariantViolation

__all__ = ["substream", "substream_uniforms"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64's default 128-bit multiplier as (high, low) 64-bit words
_PCG_MULT = (2549297995355413924, 4865540595714422341)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replicate ``index`` of a run seeded ``seed``."""
    if index < 0:
        raise ValueError("replicate index must be >= 0")
    return np.random.default_rng(np.random.SeedSequence((int(seed) & _MASK64, int(index))))


def substream_uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row ``i - start`` is ``substream(seed, i).random(width)``, bit for bit,
    for every index ``start <= i < stop`` (indices below 2^64).

    The first row is recomputed through ``substream``; a mismatch raises
    InvariantViolation.
    """
    start, stop, width = int(start), int(stop), int(width)
    if not 0 <= start <= stop <= 1 << 64:
        raise ValueError("need 0 <= start <= stop <= 2**64")
    if width < 0:
        raise ValueError("width must be >= 0")
    out = _uniforms(int(seed) & _MASK64, start, stop, width)
    if stop > start and not np.array_equal(out[0], substream(seed, start).random(width)):
        raise InvariantViolation(
            f"batched draws of substream ({seed}, {start}) differ from numpy's generator"
        )
    return out


def _uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    out = np.empty((stop - start, width))
    # a value below 2^32 is one entropy word, a larger one two, low word first
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    for lo, hi in ((start, min(stop, 1 << 32)), (max(start, 1 << 32), stop)):
        if lo < hi:
            index = np.arange(lo, hi, dtype=np.uint64)
            words = [*seed_words, index & np.uint64(_MASK32)]
            if lo >= 1 << 32:
                words.append(index >> np.uint64(32))
            out[lo - start:hi - start] = _pcg64_uniforms(_seed_state(words), width)
    return out


def _seed_state(words: list) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, uint64) for rows of at most
    four entropy words (so no word is mixed in after the pool is filled);
    each word is a uint32-valued int or a uint64 array of them."""
    n = max(np.size(w) for w in words)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    entropy = [np.broadcast_to(np.asarray(w, dtype=np.uint32), (n,)) for w in words]
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # uint32 pairs read as little-endian uint64 words
    return [state[2 * k] | state[2 * k + 1] << np.uint64(32) for k in range(_POOL_SIZE)]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 ``a`` and constant ``b``,
    from 32-bit limbs."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a & m32, a >> s32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _pcg64_uniforms(seed_words: list[np.ndarray], width: int) -> np.ndarray:
    """``random(width)`` of PCG64 seeded per row with (state, increment) =
    (seed_words[0:2], seed_words[2:4]), high word first."""
    m_hi, m_lo = _PCG_MULT
    one = np.uint64(1)
    inc_hi = seed_words[2] << one | seed_words[3] >> np.uint64(63)
    inc_lo = seed_words[3] << one | one

    def step(hi, lo):
        # (hi, lo) * multiplier + increment, mod 2^128
        new_lo = lo * np.uint64(m_lo)
        new_hi = hi * np.uint64(m_lo) + lo * np.uint64(m_hi) + _mulhi(lo, m_lo)
        lo = new_lo + inc_lo
        return new_hi + inc_hi + (lo < new_lo), lo

    hi, lo = inc_hi, inc_lo  # one step from the zero state
    lo = lo + seed_words[1]
    hi, lo = step(hi + seed_words[0] + (lo < seed_words[1]), lo)
    out = np.empty((lo.size, width))
    for j in range(width):
        hi, lo = step(hi, lo)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = x >> rot | x << (-rot & np.uint64(63))
        out[:, j] = (x >> np.uint64(11)) * 2.0**-53
    return out
