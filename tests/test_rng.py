"""Seed-splitting contract: (seed, index) fully determines a substream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgapprox import substream


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
