"""Protocol core: subset construction, recovery voting, analytic rates.

The analytic operations are checked against independent brute-force oracles
(full enumeration of agreement patterns / candidate pads), with the worked
values frozen in the asserts.
"""

import itertools
import math
import time

import numpy as np
import pytest

from otpsense import protocol
from otpsense.adversary import ees_decode_attempt
from otpsense.bits import as_bits, complement, random_bits
from otpsense.leakage import xi_profile
from otpsense.protocol import (
    RANK_BITS,
    SCORE_CHUNK,
    PadSubset,
    agreement_probability,
    decrypt,
    encrypt_report,
    generate_pairs,
    generate_subset,
    invert_success_rate,
    predict_success_rate,
    recover_pad,
    recover_pads,
    widen_block,
)
from otpsense.spectrum import DetectorProfile

import oracles
from oracles import generate_pairs_by_row, is_secure_pair_closed, pad_posterior


def scalar_recover_pad(own_report, ciphertext, subset, rng, weights=None):
    """Oracle: score every pad of the subset against one target, one pair
    per call (weighted agreement count, ties broken by rng.choice)."""
    target = np.bitwise_xor(as_bits(own_report), as_bits(ciphertext))
    w = np.ones(subset.length) if weights is None else np.array(weights, dtype=float)
    scores = (subset.pads == target) @ w
    winners = np.flatnonzero(scores == scores.max())
    pick = winners[0] if winners.size == 1 else rng.choice(winners)
    return subset.pads[pick].copy(), scores


def loop_generate_subset(length, block_length, rng, base_pad=None):
    """Reference: the nested-loop block subset construction, one pad and one
    block at a time."""
    num_blocks = -(-length // block_length)
    base_pad = random_bits(length, rng) if base_pad is None else as_bits(base_pad)
    choices = np.stack([base_pad, complement(base_pad)])
    pads = np.empty((1 << num_blocks, length), dtype=np.uint8)
    for i in range(1 << num_blocks):
        for b in range(num_blocks):
            lo = b * block_length
            pads[i, lo:lo + block_length] = choices[(i >> b) & 1, lo:lo + block_length]
    return PadSubset(pads, block_length, num_blocks)


def log_odds(eta):
    return np.log(eta / (1.0 - eta))


def enumerate_success_rate(eta):
    """Oracle: P(#agreements >= ceil(n/2)) by summing all 2^n patterns."""
    eta = np.asarray(eta, dtype=float)
    n = eta.size
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        if sum(pattern) >= math.ceil(n / 2):
            p = 1.0
            for e, bit in zip(eta, pattern):
                p *= e if bit else 1 - e
            total += p
    return total


# ---- pads and subsets --------------------------------------------------


def test_generate_pad_uniform_and_deterministic():
    rng = np.random.default_rng(0)
    pad = random_bits(8, rng)
    assert pad.shape == (8,) and set(pad.tolist()) <= {0, 1}
    assert np.array_equal(random_bits(8, np.random.default_rng(1)),
                          random_bits(8, np.random.default_rng(1)))


def test_subset_worked_example():
    rng = np.random.default_rng(0)
    sub = generate_subset(4, 2, rng, base_pad=[1, 0, 0, 1])
    expected = {"1001", "0101", "1010", "0110"}
    got = {"".join(map(str, row)) for row in sub.pads.tolist()}
    assert got == expected
    # canonical order: sorted as bit strings
    assert [tuple(r) for r in sub.pads.tolist()] == sorted(tuple(r) for r in sub.pads.tolist())
    assert sub.size == 4 and sub.block_length == 2 and sub.num_blocks == 2
    assert is_secure_pair_closed(sub)


def test_subset_single_block_is_one_pair():
    sub = generate_subset(6, 6, np.random.default_rng(3))
    assert sub.size == 2
    assert np.array_equal(sub.pads[0], complement(sub.pads[1]))


@pytest.mark.parametrize("m,phi", [(4, 1), (6, 2), (6, 3), (9, 3), (12, 4), (7, 3), (11, 4)])
def test_subset_cardinality_and_closure(m, phi):
    sub = generate_subset(m, phi, np.random.default_rng(m * 31 + phi))
    blocks = -(-m // phi)
    assert sub.size == 2 ** blocks
    assert sub.length == m
    assert sub.num_blocks == blocks and sub.block_length == phi
    # blocks are runs of phi real positions, the last one shorter
    widths = [sub.block_positions(b).size for b in range(blocks)]
    assert widths == [phi] * (blocks - 1) + [m - phi * (blocks - 1)]
    assert is_secure_pair_closed(sub)
    # rows distinct by construction invariant
    assert len({r.tobytes() for r in sub.pads}) == sub.size


def test_subset_block_structure_by_enumeration():
    # every pad must equal base or complement on every block, and every
    # combination must be present
    rng = np.random.default_rng(9)
    sub = generate_subset(9, 3, rng)
    patterns = [set() for _ in range(sub.num_blocks)]
    for row in sub.pads:
        for b in range(sub.num_blocks):
            pos = sub.block_positions(b)
            patterns[b].add(tuple(row[pos]))
    assert all(len(p) == 2 for p in patterns)
    combos = {tuple(tuple(row[sub.block_positions(b)]) for b in range(sub.num_blocks))
              for row in sub.pads}
    assert len(combos) == sub.size == 2 ** sub.num_blocks


def test_generate_subset_matches_loop_reference_exhaustively():
    for m in range(1, 13):
        for phi in range(1, m + 1):
            ref_rng = np.random.default_rng(m * 100 + phi)
            new_rng = np.random.default_rng(m * 100 + phi)
            ref, new = loop_generate_subset(m, phi, ref_rng), generate_subset(m, phi, new_rng)
            assert new.pads.tobytes() == ref.pads.tobytes(), (m, phi)
            assert (new.block_length, new.num_blocks) == (ref.block_length, ref.num_blocks)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
            base = random_bits(m, ref_rng)
            ref = loop_generate_subset(m, phi, None, base_pad=base)
            new = generate_subset(m, phi, None, base_pad=base)
            assert new.pads.tobytes() == ref.pads.tobytes(), (m, phi)


def test_widen_block():
    assert widen_block(25, 5, 1.0) == 5
    assert widen_block(25, 5, 1.5) == 8  # rounded up
    assert widen_block(25, 5, 9) == 25  # capped at the report length
    for bad in (0.5, 0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="omega"):
            widen_block(25, 5, bad)


def test_subset_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_subset(4, 0, rng)
    with pytest.raises(ValueError):
        generate_subset(4, 5, rng)
    with pytest.raises(ValueError):
        generate_subset(4, 2, rng, base_pad=[1, 0, 0])  # wrong base length
    with pytest.raises(ValueError, match="base_pad"):
        generate_subset(5, 2, rng, base_pad=[1, 0, 0, 1, 0, 1])  # longer than M
    with pytest.raises(ValueError):
        PadSubset([[0, 1], [0, 1]])  # duplicate rows
    with pytest.raises(ValueError):
        PadSubset([[0, 2]])
    with pytest.raises(ValueError, match="num_blocks"):
        PadSubset([[0, 1]], block_length=1, num_blocks=1)  # blocks do not cover
    with pytest.raises(ValueError, match="num_blocks"):
        PadSubset([[0, 1, 1]], block_length=2, num_blocks=3)  # ceil(3 / 2) is 2
    assert PadSubset([[0, 1, 1]], block_length=2).num_blocks == 2


def test_many_block_subset_is_described_not_listed():
    sub = generate_subset(100, 5, np.random.default_rng(0))
    assert sub.num_blocks == 20 and sub.size == 2 ** 20 and sub.length == 100
    assert sub.base_pad.shape == (100,) and not sub.base_pad.flags.writeable
    assert np.array_equal(xi_profile(sub), np.full(100, 0.5))
    pads = sub.draw(np.random.default_rng(1), (50,))
    blocks = (pads ^ sub.base_pad).reshape(50, 20, 5)
    assert (blocks == blocks[:, :, :1]).all()  # each block kept or complemented whole
    assert "pads" not in vars(sub)


def test_described_subset_is_closed_without_listing_its_pads():
    sub = generate_subset(40, 1, np.random.default_rng(2))
    assert sub.num_blocks == 40
    assert is_secure_pair_closed(sub)
    assert "pads" not in vars(sub)


def test_generate_pairs_properties():
    sub = generate_pairs(10, 4, np.random.default_rng(4))
    assert sub.size == 8 and sub.num_blocks == 1 and sub.block_length == 10
    assert is_secure_pair_closed(sub)
    with pytest.raises(ValueError):
        generate_pairs(1, 2, np.random.default_rng(0))  # only one pair fits in 1 bit
    with pytest.raises(ValueError):
        generate_pairs(10, 0, np.random.default_rng(0))


@pytest.mark.parametrize("length, pairs", [(1, 1), (2, 2), (3, 4), (4, 7), (7, 3), (13, 64),
                                           (100, 64), (139, 5)])
def test_generate_pairs_draws_the_rows_and_state_of_a_draw_per_attempt(length, pairs):
    # lengths that are not a multiple of 4 leave unused bytes in each row's
    # draw; the tiny lengths fill the pad space, so attempts are rejected
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_pairs(length, pairs, got_rng)
        want = generate_pairs_by_row(length, pairs, want_rng)
        assert np.array_equal(got.pads, want.pads)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 23, 100])
def test_one_pair_is_the_one_block_subset_of_the_same_random_numbers(m):
    # `make_subset` builds one pair as a described subset; it must list,
    # draw and vote exactly as `generate_pairs(m, 1)`, tie draws included
    ties = 0
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = protocol.make_subset(m, got_rng, pairs=1), generate_pairs(m, 1, want_rng)
        assert got.base_pad is not None and got.num_blocks == 1
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert np.array_equal(got.draw(got_rng, (6, 5)), want.draw(want_rng, (6, 5)))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        own = (got_rng.random((40, m)) < 0.5).astype(np.uint8)
        cipher = (got_rng.random((40, m)) < 0.5).astype(np.uint8)
        # unit weights, then a partial observer's: the first half of the band
        for weights in (None, (np.arange(m) < m // 2).astype(float)):
            got_ties, want_ties = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(recover_pads(own, cipher, got, got_ties, weights),
                                  recover_pads(own, cipher, want, want_ties, weights))
            assert got_ties.bit_generator.state == want_ties.bit_generator.state
            w = np.ones(m) if weights is None else weights
            margins = (want.pads == (own ^ cipher)[:, None]) @ w
            ties += np.count_nonzero(margins[:, 0] == margins[:, 1])
        assert np.array_equal(got.pads, want.pads)
    assert ties > 0 or m % 2


def test_generate_pairs_rejects_taken_rows_in_attempt_order(monkeypatch):
    # 2 pairs in 2 bits take all four pads: whichever pair comes first, an
    # attempt that draws it again is rejected, and the next is drawn
    attempts = []
    monkeypatch.setattr(oracles, "random_bits",
                        lambda length, rng: attempts.append(length) or random_bits(length, rng))
    for seed in range(20):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = generate_pairs_by_row(2, 2, want_rng)
        assert np.array_equal(generate_pairs(2, 2, got_rng).pads, want.pads)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert len(attempts) > 2 * 20


class ZeroBits:
    """A generator stand-in whose bits are all 0; counts the rows it drew."""

    def __init__(self):
        self.rows = 0

    def integers(self, low, high, size, dtype):
        size = np.atleast_1d(size)
        self.rows += int(np.prod(size[:-1]))
        return np.zeros(size, dtype=dtype)


def test_generate_pairs_gives_up_after_the_same_attempts():
    # after the all-zero pair every attempt is rejected, until the cap
    got, want = ZeroBits(), ZeroBits()
    for make, rng in ((generate_pairs, got), (generate_pairs_by_row, want)):
        with pytest.raises(ValueError, match="could not draw distinct pairs"):
            make(2, 2, rng)
    assert got.rows == want.rows == 1000 * 2 + 100


# ---- encryption --------------------------------------------------------


def test_encrypt_decrypt_worked_example():
    report = np.array([1, 0, 1, 0], dtype=np.uint8)
    pad = np.array([0, 1, 0, 1], dtype=np.uint8)
    assert decrypt(report, pad).tolist() == [1, 1, 1, 1]  # xor is its own inverse
    assert decrypt(np.array([1, 1, 1, 1], dtype=np.uint8), pad).tolist() == [1, 0, 1, 0]


def test_encrypt_draws_pad_from_subset():
    rng = np.random.default_rng(5)
    sub = generate_subset(6, 3, rng)
    report = random_bits(6, rng)
    seen = set()
    for _ in range(200):
        cipher, pad = encrypt_report(report, sub, rng)
        assert np.array_equal(decrypt(cipher, pad), report)
        assert (sub.pads == pad).all(axis=1).any()
        seen.add(pad.tobytes())
    assert len(seen) == sub.size  # all four pads appear across draws
    with pytest.raises(ValueError):
        encrypt_report(np.zeros(5, dtype=np.uint8), sub, rng)


@pytest.mark.parametrize("build", [
    lambda rng: generate_subset(13, 4, rng),
    lambda rng: generate_pairs(13, 3, rng),
])
def test_encrypt_stack_matches_per_row_calls(build):
    rng = np.random.default_rng(8)
    sub = build(rng)
    for k in (1, 7):
        reports = rng.integers(0, 2, size=(k, 13), dtype=np.uint8)
        stacked_rng, row_rng = np.random.default_rng(k), np.random.default_rng(k)
        cipher, pads = encrypt_report(reports, sub, stacked_rng)
        rows = [encrypt_report(report, sub, row_rng) for report in reports]
        assert cipher.shape == pads.shape == (k, 13)
        assert np.array_equal(cipher, np.stack([c for c, _ in rows]))
        assert np.array_equal(pads, np.stack([p for _, p in rows]))
        assert stacked_rng.bit_generator.state == row_rng.bit_generator.state
    for bad in (np.zeros((3, 12)), np.zeros(14), np.zeros((2, 3, 13)), np.zeros(()),
                np.full((2, 13), 2)):
        with pytest.raises(ValueError):
            encrypt_report(bad, sub, rng)


@pytest.mark.parametrize("build", [
    lambda rng: generate_subset(13, 4, rng),
    lambda rng: generate_pairs(13, 3, rng),
    lambda rng: generate_subset(130, 1, rng),  # ranks past RANK_BITS
])
def test_round_block_of_draws_matches_per_round_draws(build):
    # a (rounds, K + P) draw is each round's K-row draw followed by its P
    # single draws, round after round, from the same random numbers
    sub = build(np.random.default_rng(9))
    block_rng, round_rng = np.random.default_rng(10), np.random.default_rng(10)
    block = sub.draw(block_rng, (5, 4))
    for t in range(5):
        rows = [sub.draw(round_rng, (3,))] + [sub.draw(round_rng)[None]]
        assert np.array_equal(block[t], np.concatenate(rows)), t
    assert block_rng.bit_generator.state == round_rng.bit_generator.state


def test_xor_roundtrip_exhaustive_small():
    rng = np.random.default_rng(6)
    for m in range(1, 13):
        reports = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.uint8)
        pad = random_bits(m, rng)
        recovered = np.bitwise_xor(np.bitwise_xor(reports, pad), pad)
        assert np.array_equal(recovered, reports)


# ---- recovery ----------------------------------------------------------


def test_recover_exact_report_one_pair():
    rng = np.random.default_rng(7)
    sub = generate_pairs(3, 1, rng)
    report = np.array([1, 1, 0], dtype=np.uint8)
    cipher, pad = encrypt_report(report, sub, rng)
    assert np.array_equal(recover_pad(report, cipher, sub, rng), pad)


def test_recover_single_bit_full_space():
    sub = PadSubset([[0], [1]])
    rng = np.random.default_rng(8)
    for own, cipher in itertools.product((0, 1), repeat=2):
        got = recover_pad(np.array([own], dtype=np.uint8),
                          np.array([cipher], dtype=np.uint8), sub, rng)
        assert got.tolist() == [own ^ cipher]


def test_recover_tie_is_uniform():
    # pair {00, 11}, target 01: one agreement each, a fair coin
    sub = PadSubset([[0, 0], [1, 1]])
    own = np.array([0, 0], dtype=np.uint8)
    cipher = np.array([0, 1], dtype=np.uint8)
    rng = np.random.default_rng(9)
    picks = [recover_pad(own, cipher, sub, rng)[0] for _ in range(4000)]
    frac = np.mean(picks)
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 4000)


def test_recover_majority_beats_minority():
    # target agrees with pad A on 2 of 3 positions -> A must win outright
    sub = PadSubset([[0, 0, 0], [1, 1, 1]])
    own = np.array([0, 0, 0], dtype=np.uint8)
    cipher = np.array([0, 0, 1], dtype=np.uint8)
    got = recover_pad(own, cipher, sub, np.random.default_rng(0))
    assert got.tolist() == [0, 0, 0]


def test_recover_weighted_matches_posterior_argmax():
    rng = np.random.default_rng(10)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        phi = int(rng.integers(1, m + 1))
        sub = generate_subset(m, phi, rng)
        eta = rng.uniform(0.55, 0.95, size=m)
        own = random_bits(m, rng)
        cipher = random_bits(m, rng)
        posts = np.array([pad_posterior(own, cipher, eta, c) for c in sub.pads])
        best = np.flatnonzero(posts == posts.max())
        if best.size != 1:
            continue  # skipping ambiguous draws; tie break is random by design
        got = recover_pad(own, cipher, sub, rng, weights=log_odds(eta))
        assert np.array_equal(got, sub.pads[best[0]])


def oracle_subsets(rng):
    """Block subsets of odd, even (tied) and non-dividing widths, pair
    subsets, and hand-built ones without block structure."""
    subsets = [
        PadSubset([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]),  # parity set
        PadSubset([[0, 1, 1, 0]]),
        PadSubset(list(itertools.product((0, 1), repeat=3))),  # every pad
        PadSubset([[0, 0, 1, 1, 0], [1, 1, 0, 0, 1], [0, 1, 0, 1, 1]], 2, 3),
    ]
    for m, phi in ((9, 3), (10, 2), (12, 6), (7, 2), (11, 4), (13, 5), (6, 6), (5, 1)):
        subsets.append(generate_subset(m, phi, rng))
    for _ in range(12):
        m = int(rng.integers(1, 15))
        subsets.append(generate_subset(m, int(rng.integers(1, m + 1)), rng))
    for m, pairs in ((6, 4), (10, 1), (9, 1), (3, 2), (20, 5)):
        subsets.append(generate_pairs(m, pairs, rng))
    return subsets


def coverage_weights(sub, rng):
    """0/1 weights of a partial observer: a random position mask with some
    whole blocks left unobserved."""
    w = (rng.random(sub.length) < 0.6).astype(float)
    for b in np.flatnonzero(rng.random(sub.num_blocks) < 0.4):
        w[b * sub.block_length:(b + 1) * sub.block_length] = 0.0
    return w


@pytest.mark.parametrize("chunk", [SCORE_CHUNK, 40])
def test_recover_pads_matches_scalar_oracle(chunk, monkeypatch):
    # unit weights, then the 0/1 coverage weights of a partial observer
    monkeypatch.setattr(protocol, "SCORE_CHUNK", chunk)
    rng = np.random.default_rng(16)
    tied_rows = {False: 0, True: 0}
    zero_blocks = 0
    for i, sub in enumerate(oracle_subsets(rng)):
        for coverage in (False, True):
            k = int(rng.integers(1, 120))
            own = (rng.random((k, sub.length)) < 0.5).astype(np.uint8)
            cipher = (rng.random((k, sub.length)) < 0.5).astype(np.uint8)
            weights = coverage_weights(sub, rng) if coverage else None
            if coverage:
                starts = np.arange(0, sub.length, sub.block_length)
                zero_blocks += np.count_nonzero(np.add.reduceat(weights, starts) == 0)
            seed = 2 * i + coverage
            ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = []
            for o, c in zip(own, cipher):
                pad, scores = scalar_recover_pad(o, c, sub, ref_rng, weights)
                want.append(pad)
                tied_rows[coverage] += (scores == scores.max()).sum() > 1
            got = recover_pads(own, cipher, sub, new_rng, weights=weights)
            assert got.shape == (k, sub.length)
            assert np.array_equal(got, np.stack(want)), (i, coverage)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state, (i, coverage)
    # the tie-break order is really exercised, also over unobserved blocks
    assert min(tied_rows.values()) > 100 and zero_blocks > 10


def test_recover_pads_weighted_matches_scalar_oracle():
    # log-odds scores are summed in another order, so only rows whose best
    # pad beats the runner-up by more than rounding can be compared
    rng = np.random.default_rng(17)
    compared = 0
    for i, sub in enumerate(oracle_subsets(rng)):
        if sub.size == 1:
            continue
        k = int(rng.integers(1, 120))
        w = log_odds(rng.uniform(0.55, 0.95, sub.length))
        own = (rng.random((k, sub.length)) < 0.5).astype(np.uint8)
        cipher = (rng.random((k, sub.length)) < 0.5).astype(np.uint8)
        got = recover_pads(own, cipher, sub, np.random.default_rng(i), weights=w)
        total = w.sum()
        for row, o, c in zip(got, own, cipher):
            pad, scores = scalar_recover_pad(o, c, sub, rng, weights=w)
            best, runner_up = np.sort(scores)[-1:-3:-1]
            if best - runner_up > 1e-9 * total:
                compared += 1
                assert np.array_equal(row, pad), i
    assert compared > 500


def described_and_explicit(rng):
    """Every geometry with M <= 12, from a drawn and from a given base pad:
    a described subset beside the same pads held as explicit rows, which
    the matrix-product kernel scores (the described one is never listed)."""
    for m in range(1, 13):
        for phi in range(1, m + 1):
            for base in (None, random_bits(m, rng)):
                sub = generate_subset(m, phi, rng, base_pad=base)
                listed = generate_subset(m, phi, None, base_pad=sub.base_pad).pads
                yield sub, PadSubset(listed, sub.block_length, sub.num_blocks)


def test_described_vote_matches_explicit_pads_exhaustively():
    # unit and 0/1 coverage weights sum exactly: same pads and same tie
    # draws; log odds are compared where the best pad wins by more than rounding
    rng = np.random.default_rng(19)
    tied_rows = compared = 0
    for i, (sub, ref) in enumerate(described_and_explicit(rng)):
        own = (rng.random((40, sub.length)) < 0.5).astype(np.uint8)
        cipher = (rng.random((40, sub.length)) < 0.5).astype(np.uint8)
        for j, weights in enumerate((None, coverage_weights(sub, rng))):
            got_rng, want_rng = np.random.default_rng([i, j]), np.random.default_rng([i, j])
            got = recover_pads(own, cipher, sub, got_rng, weights)
            assert np.array_equal(got, recover_pads(own, cipher, ref, want_rng, weights)), (i, j)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (i, j)
        w = log_odds(rng.uniform(0.55, 0.95, sub.length))
        got = recover_pads(own, cipher, sub, rng, w)
        want = recover_pads(own, cipher, ref, rng, w)
        agree = (ref.pads == (own ^ cipher)[:, None]).astype(float)
        runner_up, best = np.sort(agree @ w, axis=1)[:, -2:].T
        clear = best - runner_up > 1e-9 * w.sum()
        assert np.array_equal(got[clear], want[clear]), i
        compared += np.count_nonzero(clear)
        unit = agree.sum(axis=2)
        tied_rows += np.count_nonzero((unit == unit.max(axis=1, keepdims=True)).sum(axis=1) > 1)
        assert "pads" not in vars(sub)
    assert tied_rows > 1000 and compared > 5000


def test_described_draws_match_explicit_pads_exhaustively():
    rng = np.random.default_rng(20)
    for i, (sub, ref) in enumerate(described_and_explicit(rng)):
        reports = (rng.random((5, sub.length)) < 0.5).astype(np.uint8)
        for report in (reports, reports[0]):
            got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
            got, want = encrypt_report(report, sub, got_rng), encrypt_report(report, ref, want_rng)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), i
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, i
        got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
        got = ees_decode_attempt(reports[1], sub, got_rng, true_pad=ref.pads[0])
        want = ees_decode_attempt(reports[1], ref, want_rng, true_pad=ref.pads[0])
        assert np.array_equal(got.recovered_pad, want.recovered_pad), i
        assert got.pad_recovered == want.pad_recovered
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, i
        assert "pads" not in vars(sub)


def test_ranks_past_rank_bits_draw_in_chunks():
    # 130 one-bit blocks, all tied under zero weights: the tie rank is drawn
    # as 62 + 62 + 6 digits, most significant first, and with one-bit
    # blocks each digit is the recovered bit itself
    sub = generate_subset(130, 1, np.random.default_rng(21))
    zeros = np.zeros((1, 130), dtype=np.uint8)
    got_rng, want_rng = np.random.default_rng(22), np.random.default_rng(22)
    got = recover_pads(zeros, zeros, sub, got_rng, weights=np.zeros(130))[0]
    widths = (RANK_BITS, RANK_BITS, 130 - 2 * RANK_BITS)
    want = "".join(format(int(want_rng.integers(2 ** w)), f"0{w}b") for w in widths)
    assert "".join(map(str, got)) == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # a stack of draws is its rows' draws, in row order
    stacked, rows = np.random.default_rng(23), np.random.default_rng(23)
    assert np.array_equal(sub.draw(stacked, (3,)), np.stack([sub.draw(rows) for _ in range(3)]))
    assert stacked.bit_generator.state == rows.bit_generator.state
    assert sub.draw(stacked, (0,)).shape == (0, 130)
    assert "pads" not in vars(sub)


def test_one_tie_draw_per_vote_equals_a_draw_per_tied_row():
    # 130 blocks of 2 bits under unit weights: a block ties exactly when one
    # of its two target bits differs from the base pad.  Rows tie on 0, 1,
    # 62, 63 and 130 blocks, in mixed order; each tied row's rank is drawn
    # in RANK_BITS-digit chunks, row after row, most significant first
    sub = generate_subset(260, 2, np.random.default_rng(24))
    base = sub.base_pad
    layout = np.random.default_rng(25)
    tied_counts = (62, 0, 130, 1, 63, 0)
    tied = [np.sort(layout.permutation(130)[:k]) for k in tied_counts]
    targets = np.tile(base, (len(tied), 1))
    for row, blocks in zip(targets, tied):
        row[2 * blocks + layout.integers(2, size=blocks.size)] ^= 1
    got_rng, want_rng = np.random.default_rng(26), np.random.default_rng(26)
    got = recover_pads(np.zeros_like(targets), targets, sub, got_rng)
    for row, blocks in zip(got, tied):
        widths = [min(RANK_BITS, blocks.size - lo) for lo in range(0, blocks.size, RANK_BITS)]
        digits = "".join(format(int(want_rng.integers(2 ** w)), f"0{w}b") for w in widths)
        want = base.copy()
        for block, digit in zip(blocks, digits):
            if int(digit) != base[2 * block]:
                want[2 * block:2 * block + 2] ^= 1
        assert np.array_equal(row, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def vote_geometries(rng):
    """Described subsets for the margin kernel: odd widths dividing M, even
    widths that tie, widths that do not divide M, 130 blocks, and one block."""
    for m, phi in ((99, 11), (30, 10), (20, 4), (23, 5), (22, 7), (520, 4), (1, 1)):
        yield generate_subset(m, phi, rng)


def test_signed_blocks_are_zero_padded_sign_blocks():
    # built block by block from block_positions: 2*bit - 1 on a block's own
    # positions, zeros past the end of a shorter last block
    rng = np.random.default_rng(31)
    for sub in vote_geometries(rng):
        for lead in ((1,), (16,), (3, 5)):
            bits = rng.random((*lead, sub.length)) < 0.5
            want = np.zeros((*lead, sub.num_blocks, sub.block_length))
            for b in range(sub.num_blocks):
                positions = sub.block_positions(b)
                want[..., b, :positions.size] = np.where(bits[..., positions], 1, -1)
            for given in (bits, bits.astype(np.uint8)):
                for dtype in (np.float32, np.float64):
                    got = protocol._signed_blocks(given, sub, dtype)
                    assert got.dtype == dtype and np.array_equal(got, want), (sub.length, lead)


def test_block_margins_match_a_reduceat_reference(monkeypatch):
    # unit and 0/1 weights are summed exactly by both, so the digits, the
    # tied blocks and hence the tie draws agree; log odds are summed in
    # another order, and with these draws no margin lands within rounding
    # of zero
    rng = np.random.default_rng(27)
    drawn = 0
    for i, sub in enumerate(vote_geometries(rng)):
        for k in (1, 16, 300):
            own = (rng.random((k, sub.length)) < 0.5).astype(np.uint8)
            cipher = (rng.random((k, sub.length)) < 0.5).astype(np.uint8)
            for j, weights in enumerate((None, coverage_weights(sub, rng),
                                         log_odds(rng.uniform(0.55, 0.95, sub.length)))):
                got_rng, want_rng = np.random.default_rng([i, j, k]), np.random.default_rng([i, j, k])
                got = recover_pads(own, cipher, sub, got_rng, weights)
                with monkeypatch.context() as patch:
                    patch.setattr(protocol, "_vote_blocks", oracles.vote_blocks_by_reduceat)
                    want = recover_pads(own, cipher, sub, want_rng, weights)
                assert np.array_equal(got, want), (i, j, k)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, (i, j, k)
                fresh = np.random.default_rng([i, j, k]).bit_generator.state
                drawn += j < 2 and got_rng.bit_generator.state != fresh
        assert "pads" not in vars(sub)
    # ties are really drawn: on even widths and unobserved blocks
    assert drawn >= 6


def test_member_keys_decide_equality_on_described_subsets():
    # members of a described subset that agree on every block's first
    # position agree everywhere: pairs equal, pairs differing on one later
    # block only (the short last block too), and random pairs
    rng = np.random.default_rng(29)
    for m, phi in ((99, 11), (23, 5), (20, 4), (7, 6), (9, 1)):
        sub = generate_subset(m, phi, rng)
        a = sub.draw(rng, (400,))
        b = a.copy()
        for row, block in enumerate(rng.integers(1, sub.num_blocks, size=200)):
            b[row, sub.block_positions(block)] ^= 1
        b[200:300] = sub.draw(rng, (100,))
        for x, y in ((a, b), (b, a)):
            keyed = (sub.member_keys(x) == sub.member_keys(y)).all(axis=-1)
            assert np.array_equal(keyed, (x == y).all(axis=-1)), (m, phi)
        assert not keyed[:200].any() and keyed[300:].all()
        # recovered pads are members: their keys, as digits, rebuild them
        own = (rng.random((400, m)) < 0.5).astype(np.uint8)
        got = recover_pads(own, a, sub, rng)
        assert np.array_equal(sub._from_digits(sub.member_keys(got)), got)
    explicit = generate_pairs(6, 3, rng)
    assert explicit.member_keys(explicit.pads) is explicit.pads


def test_explicit_tie_draws_match_a_choice_per_tied_row(monkeypatch):
    # an explicit subset scored under 0/1 weights ties its rows on 2 to 256
    # pads; each tied row's pick must be `rng.choice` over its tied pads, in
    # row order, across row slices of the score chunk too
    rng = np.random.default_rng(30)
    listed = generate_subset(16, 2, rng).pads
    sub = PadSubset(listed, 2, 8)
    tied_counts = set()
    for i, chunk in enumerate((SCORE_CHUNK, 256 * 7, 256)):
        monkeypatch.setattr(protocol, "SCORE_CHUNK", chunk)
        k = int(rng.integers(1, 40))
        own = (rng.random((k, 16)) < 0.5).astype(np.uint8)
        cipher = (rng.random((k, 16)) < 0.5).astype(np.uint8)
        for trial in range(60):
            weights = coverage_weights(sub, rng)
            got_rng, want_rng = np.random.default_rng([i, trial]), np.random.default_rng([i, trial])
            got = recover_pads(own, cipher, sub, got_rng, weights)
            scores = (sub.pads == (own ^ cipher)[:, None]) @ weights
            want = []
            for row in scores:
                top = np.flatnonzero(row == row.max())
                tied_counts.add(top.size)
                want.append(top[0] if top.size == 1 else want_rng.choice(top))
            assert np.array_equal(got, sub.pads[want]), (i, trial)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (i, trial)
    assert {2, 256} <= tied_counts and len(tied_counts) > 5


def test_recover_pads_validation():
    sub = generate_pairs(4, 1, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    zeros = np.zeros((2, 4), dtype=np.uint8)
    assert recover_pads(zeros[:0], zeros[:0], sub, rng).shape == (0, 4)
    with pytest.raises(ValueError):
        recover_pads(zeros, zeros[:1], sub, rng)
    with pytest.raises(ValueError):
        recover_pads(zeros[:, :3], zeros[:, :3], sub, rng)
    with pytest.raises(ValueError):
        recover_pads(zeros[0], zeros[0], sub, rng)  # one row needs shape (1, M)
    with pytest.raises(ValueError):
        recover_pads(zeros + 2, zeros, sub, rng)


def test_subset_pads_read_only_and_derived_arrays_lazy():
    sub = generate_subset(12, 5, np.random.default_rng(18))
    assert "pads" not in vars(sub)
    with pytest.raises(ValueError):
        sub.pads[0, 0] ^= 1
    assert "xi" not in vars(sub) and "_unit_weights" not in vars(sub)
    xi = xi_profile(sub)
    assert xi is xi_profile(sub) and not xi.flags.writeable
    assert np.array_equal(xi, 1.0 - sub.pads.mean(axis=0))


def test_recover_validation():
    sub = generate_pairs(4, 1, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        recover_pad(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8), sub, rng)
    zeros = np.zeros(4, dtype=np.uint8)
    for bad in (np.full(4, np.inf), [np.nan, 1.0, 1.0, 1.0], np.ones(3)):
        with pytest.raises(ValueError, match="weights"):
            recover_pad(zeros, zeros, sub, rng, weights=bad)


def test_recovery_with_partial_final_block():
    # 5 channels, blocks of 3: matching reports must still recover exactly,
    # and noisy recovery succeeds at the product of the two blocks' rates
    rng = np.random.default_rng(11)
    sub = generate_subset(5, 3, rng)
    assert sub.block_positions(1).tolist() == [3, 4] and sub.size == 4
    hits = 0
    trials = 4000
    for _ in range(trials):
        report = random_bits(5, rng)
        cipher, pad = encrypt_report(report, sub, rng)
        assert np.array_equal(recover_pad(report, cipher, sub, rng), pad)
        noisy = np.bitwise_xor(report, (rng.random(5) < 0.1).astype(np.uint8))
        hits += np.array_equal(recover_pad(noisy, cipher, sub, rng), pad)
    # bits agree with probability 0.9; the 2-bit block ties (a coin flip)
    # when exactly one of its bits disagrees
    expected = predict_success_rate(3, 0.9) * (0.9 ** 2 + 0.9 * 0.1)
    assert abs(hits / trials - expected) < 4 * math.sqrt(expected * (1 - expected) / trials)


@pytest.mark.parametrize("m,phi", [(23, 5), (22, 7), (7, 2), (13, 5), (11, 3), (9, 3)])
def test_every_odd_block_votes_at_its_predicted_rate_exactly(m, phi):
    # each block is decided by its own real positions only: feeding all 2**w
    # agreement patterns of one block through `recover_pads` and summing the
    # probability of those it recovers gives predict_success_rate(w, eta)
    rng = np.random.default_rng(m * 100 + phi)
    sub = generate_subset(m, phi, rng)
    report, pad = random_bits(m, rng), sub.draw(rng)
    checked = 0
    for b in range(sub.num_blocks):
        pos = sub.block_positions(b)
        if pos.size % 2 == 0:
            continue  # even widths tie, and a tie is a coin flip
        agree = np.array(list(itertools.product((1, 0), repeat=pos.size)), dtype=np.uint8)
        own = np.tile(report, (agree.shape[0], 1))
        own[:, pos] ^= 1 - agree
        got = recover_pads(own, np.tile(report ^ pad, (agree.shape[0], 1)), sub, rng)
        hit = (got[:, pos] == pad[pos]).all(axis=1)
        for eta in (np.full(pos.size, 0.82), rng.uniform(0.55, 0.95, pos.size)):
            prob = np.where(agree, eta, 1 - eta).prod(axis=1)
            assert prob[hit].sum() == pytest.approx(predict_success_rate(pos.size, eta), abs=1e-12), b
        checked += 1
    assert checked


# ---- posterior and agreement -------------------------------------------


def test_pad_posterior_worked_example():
    own = np.array([0, 0], dtype=np.uint8)
    cipher = np.array([0, 0], dtype=np.uint8)
    # candidate differs from own xor cipher on the second bit only
    assert pad_posterior(own, cipher, [0.9, 0.8], [0, 1]) == pytest.approx(0.18)
    assert pad_posterior(own, cipher, [0.9, 0.8], [0, 0]) == pytest.approx(0.72)


def test_pad_posterior_argmax_is_target_exhaustive():
    rng = np.random.default_rng(12)
    for m in range(1, 11):
        eta = rng.uniform(0.51, 0.99, size=m)
        own = random_bits(m, rng)
        cipher = random_bits(m, rng)
        target = np.bitwise_xor(own, cipher)
        best_val = pad_posterior(own, cipher, eta, target)
        assert best_val == pytest.approx(float(np.prod(eta)))
        for cand in itertools.product((0, 1), repeat=m):
            cand = np.array(cand, dtype=np.uint8)
            val = pad_posterior(own, cipher, eta, cand)
            if not np.array_equal(cand, target):
                assert val < best_val


def test_agreement_probability_frozen_value():
    p = DetectorProfile.homogeneous(3, 0.1, 0.1)
    eta = agreement_probability(p, p, 0.5)
    assert np.allclose(eta, 0.82)


def test_agreement_probability_enumeration_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        fx, fy, mx, my, p1 = rng.uniform(0, 1, size=5)
        px = DetectorProfile([fx], [mx])
        py = DetectorProfile([fy], [my])
        got = agreement_probability(px, py, p1)[0]
        expected = 0.0
        for state in (0, 1):
            ps = p1 if state else 1 - p1
            for bx in (0, 1):
                pbx = (1 - mx if bx else mx) if state else (fx if bx else 1 - fx)
                for by in (0, 1):
                    pby = (1 - my if by else my) if state else (fy if by else 1 - fy)
                    if bx == by:
                        expected += ps * pbx * pby
        assert got == pytest.approx(expected, abs=1e-12)


def test_agreement_symmetric_profile_reduction():
    # equal false-alarm rates collapse the idle term to 1 - 2 pf + 2 pf^2
    rng = np.random.default_rng(14)
    for _ in range(20):
        pf, mx, my, p1 = rng.uniform(0, 1, size=4)
        px = DetectorProfile([pf], [mx])
        py = DetectorProfile([pf], [my])
        got = agreement_probability(px, py, p1)[0]
        reduced = (1 - 2 * pf + 2 * pf * pf) * (1 - p1) + (2 * mx * my + 1 - mx - my) * p1
        assert got == pytest.approx(reduced, abs=1e-12)


def test_agreement_probability_validation():
    p2 = DetectorProfile.homogeneous(2, 0.1, 0.1)
    p3 = DetectorProfile.homogeneous(3, 0.1, 0.1)
    with pytest.raises(ValueError):
        agreement_probability(p2, p3, 0.5)
    with pytest.raises(ValueError):
        agreement_probability(p2, p2, 1.5)
    with pytest.raises(ValueError):
        agreement_probability(p2, p2, [0.5, np.nan])


# ---- success rate ------------------------------------------------------


def test_predict_success_rate_frozen_values():
    assert predict_success_rate(1, 0.82) == pytest.approx(0.82, abs=1e-12)
    assert predict_success_rate(3, 0.82) == pytest.approx(0.914464, abs=1e-9)
    assert predict_success_rate(5, 0.82) == pytest.approx(0.9562926592, abs=1e-10)
    # even block length counts exact ties as success
    assert predict_success_rate(2, 0.7) == pytest.approx(1 - 0.3 ** 2, abs=1e-12)


def test_predict_success_rate_enumeration_oracle():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 5, 8, 11, 15):
        eta = rng.uniform(0, 1, size=n)
        assert predict_success_rate(n, eta) == pytest.approx(
            enumerate_success_rate(eta), abs=1e-12
        )


def test_predict_success_rate_large_n_no_blowup():
    # far beyond enumeration reach; sanity against the normal tail direction
    val = predict_success_rate(1001, 0.82)
    assert 0.999999 < val <= 1.0


def test_predict_validation():
    with pytest.raises(ValueError):
        predict_success_rate(0, 0.8)
    with pytest.raises(ValueError):
        predict_success_rate(3, [0.8, 0.8])
    with pytest.raises(ValueError):
        predict_success_rate(2, [0.8, 1.2])
    with pytest.raises(ValueError):
        predict_success_rate(3, np.nan)
    with pytest.raises(ValueError):
        predict_success_rate(2, [0.8, np.nan])
    with pytest.raises(ValueError):
        pad_posterior([0, 0], [0, 0], [0.9, np.nan], [0, 0])


def test_invert_success_rate_frozen_values():
    assert invert_success_rate(0.95, 0.82) == 5  # P_s(3)=0.9145 falls short
    assert invert_success_rate(0.9, 0.82) == 3
    assert invert_success_rate(0.999, 0.82) == 19
    assert invert_success_rate(0.995, 0.82) == 13
    assert invert_success_rate(0.5, 0.82) == 1  # already at one bit


def reference_invert(p_target, eta, max_block=10001):
    """The search before the shared DP: a fresh predict_success_rate per odd width."""
    for n in range(1, max_block + 1, 2):
        if predict_success_rate(n, eta) >= p_target:
            return n
    raise ValueError("max_block exceeded")


def test_invert_matches_per_width_search():
    for p_target in (0.6, 0.83, 0.9, 0.95, 0.99, 0.999, 0.9999):
        for eta in (0.6, 0.7, 0.82, 0.9, 0.97):
            assert invert_success_rate(p_target, eta) == reference_invert(p_target, eta)
    for max_block in (1, 2, 11, 12):
        with pytest.raises(ValueError):
            reference_invert(0.9999, 0.6, max_block)
        with pytest.raises(ValueError):
            invert_success_rate(0.9999, 0.6, max_block)
    assert invert_success_rate(0.9, 0.82, max_block=3) == 3


def test_invert_near_coin_agreement_runs_one_dp():
    # one fresh DP per odd width took minutes at these rates
    start = time.perf_counter()
    assert invert_success_rate(0.999, 0.52) == 5965
    with pytest.raises(ValueError, match="no odd block length"):
        invert_success_rate(0.999, 0.51)
    assert time.perf_counter() - start < 5.0


def test_invert_is_minimal_odd():
    for p_tar, eta in ((0.95, 0.82), (0.99, 0.7), (0.9999, 0.6)):
        n = invert_success_rate(p_tar, eta)
        assert n % 2 == 1
        assert predict_success_rate(n, eta) >= p_tar
        if n > 1:
            assert predict_success_rate(n - 2, eta) < p_tar


def test_invert_validation():
    with pytest.raises(ValueError):
        invert_success_rate(0.95, 0.5)  # coin agreement cannot be amplified
    with pytest.raises(ValueError):
        invert_success_rate(0.95, 0.4)
    with pytest.raises(ValueError):
        invert_success_rate(1.0, 0.8)
    with pytest.raises(ValueError):
        invert_success_rate(0.0, 0.8)
    with pytest.raises(ValueError):
        invert_success_rate(0.9999, 0.5001, max_block=11)
