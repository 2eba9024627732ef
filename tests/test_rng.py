"""Seed-splitting contract: (seed, index) fully determines a substream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgapprox.rng
from mgapprox import InvariantViolation, substream, substream_uniforms


def test_same_key_same_stream():
    a = substream(42, 3).standard_normal(16)
    b = substream(42, 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_indices_decorrelate():
    a = substream(42, 0).standard_normal(16)
    b = substream(42, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_seeds_decorrelate():
    a = substream(1, 0).standard_normal(16)
    b = substream(2, 0).standard_normal(16)
    assert not np.array_equal(a, b)


def test_seed_wraps_to_64_bits():
    wide = substream(2**64 + 5, 0).standard_normal(8)
    narrow = substream(5, 0).standard_normal(8)
    assert np.array_equal(wide, narrow)


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**32), m=st.integers(0, 64))
def test_one_call_draws_equal_scalar_draws(seed, index, m):
    # a sample's uniforms may come from one call without moving the stream
    scalar = substream(seed, index)
    expected = [scalar.random() for _ in range(m)]
    assert substream(seed, index).random(m).tolist() == expected


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        substream(0, -1)


SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -1, -(2**32), -(2**70)]),
    st.integers(-(2**80), 2**80),
)
STARTS = st.one_of(
    st.sampled_from([0, 2**32 - 3, 2**32 - 1, 2**32, 2**40, 2**62, 2**64 - 3]),
    st.integers(0, 2**64 - 3),
)


def bits(rows):
    return np.asarray(rows, dtype=np.float64).view(np.uint64).tolist()


@settings(deadline=None, max_examples=300)
@given(seed=SEEDS, start=STARTS, count=st.integers(0, 3), width=st.integers(1, 48))
def test_batched_draws_equal_substream_draws(seed, start, count, width):
    rows = substream_uniforms(seed, start, start + count, width)
    assert rows.shape == (count, width)
    expected = [substream(seed, i).random(width) for i in range(start, start + count)]
    assert bits(rows) == bits(np.reshape(expected, (count, width)))


@pytest.mark.parametrize("start", [0, 2**32 - 2, 2**64 - 4])
def test_batched_draws_across_entropy_word_boundaries(start):
    # the index gains a second entropy word at 2^32; 2^64 - 1 is the last index
    seed = 2**64 - 1
    rows = substream_uniforms(seed, start, start + 4, 5)
    expected = [substream(seed, i).random(5) for i in range(start, start + 4)]
    assert bits(rows) == bits(expected)


def test_batched_draws_validation():
    with pytest.raises(ValueError):
        substream_uniforms(0, -1, 3, 2)
    with pytest.raises(ValueError):
        substream_uniforms(0, 5, 3, 2)
    with pytest.raises(ValueError):
        substream_uniforms(0, 2**64 - 1, 2**64 + 1, 2)
    with pytest.raises(ValueError):
        substream_uniforms(0, 0, 3, -1)


def test_mismatch_with_substream_raises(monkeypatch):
    uniforms = mgapprox.rng._uniforms
    monkeypatch.setattr(mgapprox.rng, "_uniforms",
                        lambda *args: np.nextafter(uniforms(*args), 1.0))
    with pytest.raises(InvariantViolation, match="differ from numpy"):
        substream_uniforms(3, 10, 20, 4)
