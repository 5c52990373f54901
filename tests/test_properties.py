"""Cross-cutting randomized properties (hypothesis) and distribution checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from otpsense.adversary import ees_act
from otpsense.bits import complement, from_string, to_string, xor
from otpsense.fusion import FusionRule, fuse
from otpsense.leakage import masking_level, xi_profile
from otpsense.protocol import (
    PadSubset,
    generate_pairs,
    generate_subset,
    recover_pad,
)
from otpsense.spectrum import DetectorProfile

from oracles import is_secure_pair_closed, pad_posterior

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=64)


@given(bit_lists, st.integers(0, 2 ** 32 - 1))
def test_xor_roundtrip(report, seed):
    report = np.array(report, dtype=np.uint8)
    pad = (np.random.default_rng(seed).random(report.size) < 0.5).astype(np.uint8)
    assert np.array_equal(xor(xor(report, pad), pad), report)


@given(bit_lists)
def test_string_roundtrip(bits_in):
    arr = np.array(bits_in, dtype=np.uint8)
    assert np.array_equal(from_string(to_string(arr)), arr)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_generated_subsets_are_complement_closed(length, block_length, seed):
    block_length = min(block_length, length)
    num_blocks = -(-length // block_length)
    if num_blocks > 12:
        block_length = -(-length // 12)
        num_blocks = -(-length // block_length)
    sub = generate_subset(length, block_length, np.random.default_rng(seed))
    assert is_secure_pair_closed(sub)
    assert np.allclose(xi_profile(sub), 0.5)
    assert sub.size == 2 ** num_blocks


@given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_generated_pairs_are_complement_closed(length, pairs, seed):
    pairs = min(pairs, 2 ** min(length - 1, 8)) if length > 1 else 1
    sub = generate_pairs(length, pairs, np.random.default_rng(seed))
    assert is_secure_pair_closed(sub)
    assert np.allclose(xi_profile(sub), 0.5)


@settings(max_examples=30)
@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_recover_is_posterior_argmax_over_subset(m, seed):
    # unweighted voting = likelihood maximization at any constant eta > 1/2
    rng = np.random.default_rng(seed)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    sub = generate_subset(m, divisors[rng.integers(len(divisors))], rng)
    own = (rng.random(m) < 0.5).astype(np.uint8)
    cipher = (rng.random(m) < 0.5).astype(np.uint8)
    eta = np.full(m, 0.8)
    posts = np.array([pad_posterior(own, cipher, eta, c) for c in sub.pads])
    winners = np.flatnonzero(np.isclose(posts, posts.max(), rtol=1e-9))
    got = recover_pad(own, cipher, sub, rng)
    got_idx = int(np.flatnonzero((sub.pads == got).all(axis=1))[0])
    assert got_idx in winners


def test_closure_implies_balanced_xi_and_conversely_not():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        phi = int(rng.integers(1, m + 1))
        sub = generate_subset(m, phi, rng)
        assert np.allclose(xi_profile(sub), 0.5)
    # balanced columns without closure
    parity = PadSubset([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.allclose(xi_profile(parity), 0.5)
    assert not is_secure_pair_closed(parity)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
@settings(max_examples=25)
def test_fusion_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    reports = (rng.random((n, 17)) < 0.5).astype(np.uint8)
    rule = FusionRule.majority(n)
    base = fuse(reports, rule)
    perm = rng.permutation(n)
    assert np.array_equal(fuse(reports[perm], rule), base)


@pytest.mark.parametrize("m,phi", [(4, 2), (6, 2), (6, 3), (8, 2), (9, 3), (16, 4)])
def test_block_choices_are_independent_uniform(m, phi):
    # exact: over the whole subset, each (block a pattern, block b pattern)
    # combination appears size/4 times
    sub = generate_subset(m, phi, np.random.default_rng(m * 7 + phi))
    for a, b in itertools.combinations(range(sub.num_blocks), 2):
        pa, pb = sub.block_positions(a), sub.block_positions(b)
        counts = {}
        for row in sub.pads:
            key = (tuple(row[pa]), tuple(row[pb]))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 4
        assert set(counts.values()) == {sub.size // 4}


def test_ees_copy_choice_is_uniform_chi_square():
    rng = np.random.default_rng(1)
    observed = [np.array(v, dtype=np.uint8) for v in
                ([0, 0], [0, 1], [1, 0], [1, 1])]
    trials = 8000
    counts = np.zeros(4, dtype=int)
    for _ in range(trials):
        forged = ees_act(observed, rng)
        counts[2 * forged[0] + forged[1]] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 1e-4


def test_masking_level_decreases_to_zero_as_bias_vanishes():
    # leakage on channel 0 falls with the pad-bit bias |xi - 1/2|:
    # xi = 1, 2/3, 1/2 across these subsets
    profile = DetectorProfile.homogeneous(2, 0.1, 0.1)
    full = masking_level(PadSubset([[0, 0]]), 0.5, profile, 0)
    third = masking_level(PadSubset([[0, 0], [0, 1], [1, 0]]), 0.5, profile, 0)
    balanced = masking_level(PadSubset([[0, 0], [1, 1]]), 0.5, profile, 0)
    assert full > third > balanced == 0.0
    # a deterministic flip hides nothing: xi = 0 leaks like xi = 1
    flipped = masking_level(PadSubset([[1, 0]]), 0.5, profile, 0)
    assert flipped == pytest.approx(full, abs=1e-12)
