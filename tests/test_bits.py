"""Bit-vector helpers and text encoding round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otpsense import bits


def test_string_roundtrip_example():
    v = bits.from_string("1001")
    assert v.dtype == np.uint8
    assert v.tolist() == [1, 0, 0, 1]
    assert bits.to_string(v) == "1001"


def test_from_string_rejects_junk():
    for bad in ("", "102", "ab", "1 0"):
        with pytest.raises(ValueError):
            bits.from_string(bad)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_string_roundtrip_random(lst):
    v = np.array(lst, dtype=np.uint8)
    assert np.array_equal(bits.from_string(bits.to_string(v)), v)


def test_xor_and_complement():
    a = bits.from_string("1100")
    b = bits.from_string("1010")
    assert bits.to_string(bits.xor(a, b)) == "0110"
    assert bits.to_string(bits.complement(a)) == "0011"
    assert np.array_equal(bits.complement(bits.complement(a)), a)
    with pytest.raises(ValueError):
        bits.xor(a, bits.from_string("111"))


def test_as_bits_validation():
    with pytest.raises(ValueError):
        bits.as_bits([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        bits.as_bits([0, 2])


def test_random_bits_deterministic():
    a = bits.random_bits(64, np.random.default_rng(5))
    b = bits.random_bits(64, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert a.shape == (64,) and a.dtype == np.uint8 and set(a.tolist()) == {0, 1}
    with pytest.raises(ValueError):
        bits.random_bits(0, np.random.default_rng(5))
