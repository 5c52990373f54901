"""Bit-vector helpers and text encoding round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import otpsense as ots
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


def test_thresholds_are_exact_at_zero_one_and_the_uint32_edges():
    t, ones = bits.thresholds([0.0, 2.0 ** -32, 0.5, 1 - 2.0 ** -53, 1.0])
    assert t.dtype == np.uint32
    assert t.tolist() == [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32 - 1]
    assert ones.tolist() == [False, False, False, False, True]
    assert bits.thresholds([0.0, 0.7])[1] is None
    # rate 0 is below no word and rate 1 above every word, 0 and 2**32 - 1 included
    words = np.array([[0, 1, 2 ** 31, 2 ** 32 - 1]], dtype=np.uint32).T
    hit = bits.below(words, bits.thresholds([0.0, 2.0 ** -32, 0.5, 1.0]))
    assert hit.tolist() == [[False, True, True, True], [False, False, True, True],
                            [False, False, False, True], [False, False, False, True]]


@pytest.mark.parametrize("cells", [1, 6, 7])
def test_uniform_words_take_whole_outputs_per_slot(cells):
    stacked, rows = np.random.default_rng(5), np.random.default_rng(5)
    got = bits.uniform_words(stacked, 9, cells)
    assert got.shape == (9, cells) and got.dtype == np.uint32
    assert np.array_equal(got, np.concatenate([bits.uniform_words(rows, 1, cells)
                                               for _ in range(9)]))
    assert stacked.bit_generator.state == rows.bit_generator.state
    # each slot used ceil(cells / 2) 64-bit outputs, low half first
    raw = np.random.default_rng(5).bit_generator.random_raw(9 * -(-cells // 2))
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(9, -1)[:, :cells]
    assert np.array_equal(got, halves)


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


def test_as_bits_returns_a_uint8_array_itself_and_casts_the_rest():
    a = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    assert bits.as_bits(a, 3, (2,)) is a
    view = a[:, 1:]
    assert bits.as_bits(view, ndims=None) is view  # a strided view, uncopied too
    for given in ([True, False, True], np.array([1.0, -0.0, 1.0]), (1, 0, 1)):
        got = bits.as_bits(given)
        assert got.dtype == np.uint8 and got.tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="ciphertext"):
        bits.as_bits(a, 4, (1, 2), "ciphertext")
    with pytest.raises(ValueError):
        bits.as_bits([[0, 1], [1]], ndims=None)  # rows of unequal length


def _bit_takers():
    """Every public function that takes bits, each fed `v` in one bit argument."""
    rng = np.random.default_rng(0)
    sub = ots.generate_subset(4, 2, rng)
    z = np.zeros(4, dtype=np.uint8)
    model = ots.ChannelModel(4, 1.0, 1.0)
    profile = ots.DetectorProfile.homogeneous(4, 0.1, 0.1)
    return {
        "as_bits": lambda v: bits.as_bits(v),
        "xor a": lambda v: bits.xor(v, z),
        "xor b": lambda v: bits.xor(z, v),
        "encrypt_report": lambda v: ots.encrypt_report(v, sub, rng),
        "recover_pads own": lambda v: ots.recover_pads([v], [z], sub, rng),
        "recover_pads cipher": lambda v: ots.recover_pads([z], [v], sub, rng),
        "recover_pad own": lambda v: ots.recover_pad(v, z, sub, rng),
        "recover_pad cipher": lambda v: ots.recover_pad(z, v, sub, rng),
        "PadSubset": lambda v: ots.PadSubset([v]),
        "generate_subset": lambda v: ots.generate_subset(4, 2, rng, base_pad=v),
        "sample_states": lambda v: ots.sample_states(model, rng, previous=v),
        "sense": lambda v: ots.sense(v, profile, rng),
        "fuse": lambda v: ots.fuse([v, z, z], ots.FusionRule.majority(3)),
        "score decisions": lambda v: ots.score(v, z),
        "score truths": lambda v: ots.score(z, v),
        "ees_act": lambda v: ots.ees_act([z, v], rng),
        "ees_decode_attempt": lambda v: ots.ees_decode_attempt(v, sub, rng),
        "ees_decode_attempt true_pad": lambda v: ots.ees_decode_attempt(z, sub, rng, true_pad=v),
        "pes_act report": lambda v: ots.pes_act([0], v, z, sub, rng),
        "pes_act cipher": lambda v: ots.pes_act([0], z, v, sub, rng),
        "history_act report": lambda v: ots.history_act(v, z, sub, rng),
        "history_act cipher": lambda v: ots.history_act(z, v, sub, rng),
    }


NOT_BITS = {
    "256": np.array([256, 1, 0, 1]),  # wraps to 0 under a uint8 cast
    "0.5": np.array([0.5, 1, 0, 1]),  # truncates to 0
    "2": [2, 1, 0, 1],
    "-1": [-1, 1, 0, 1],  # overflows a uint8 cast
    "nan": [np.nan, 1, 0, 1],
}


@pytest.mark.parametrize("bad", NOT_BITS, ids=str)
@pytest.mark.parametrize("taker", _bit_takers(), ids=str)
def test_every_bit_taker_refuses_entries_other_than_0_and_1(taker, bad):
    take = _bit_takers()[taker]
    take(np.array([1, 1, 0, 1], dtype=np.uint8))  # the same call on bits runs
    with pytest.raises(ValueError, match="0 or 1"):
        take(NOT_BITS[bad])
