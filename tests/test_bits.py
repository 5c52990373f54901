"""Bit-vector encoding round trips and frozen wire formats."""

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


def test_packed_format_is_frozen():
    # 4-byte big-endian bit count, then MSB-first packed payload
    assert bits.pack([1, 0, 0, 1]) == b"\x00\x00\x00\x04\x90"
    assert bits.pack([1] * 9) == b"\x00\x00\x00\x09\xff\x80"


def test_pack_roundtrip_exhaustive_small():
    for m in range(1, 10):
        for x in range(1 << m):
            v = np.array([(x >> i) & 1 for i in range(m)], dtype=np.uint8)
            assert np.array_equal(bits.unpack(bits.pack(v)), v)


@given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
def test_pack_roundtrip_random(lst):
    v = np.array(lst, dtype=np.uint8)
    assert np.array_equal(bits.unpack(bits.pack(v)), v)
    if lst:
        assert np.array_equal(bits.from_string(bits.to_string(v)), v)


def test_unpack_rejects_malformed():
    with pytest.raises(ValueError):
        bits.unpack(b"\x00\x00")
    with pytest.raises(ValueError):
        bits.unpack(b"\x00\x00\x00\x09\xff")  # payload too short for 9 bits
    with pytest.raises(ValueError):
        bits.unpack(b"\x00\x00\x00\x01\x80\x00")  # trailing payload


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
