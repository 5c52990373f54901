"""Free-riding attacker behaviours."""

import numpy as np
import pytest

from otpsense.adversary import (
    ees_act,
    ees_decode_attempt,
    history_act,
    pes_act,
)
from otpsense.protocol import (
    PadSubset,
    encrypt_report,
    generate_pairs,
    generate_subset,
    predict_success_rate,
    recover_pad,
)
from otpsense.bits import random_bits
from otpsense.spectrum import (
    ChannelModel,
    DetectorProfile,
    persistence,
    sample_states,
    sense,
)


def test_ees_copies_one_observed_ciphertext():
    rng = np.random.default_rng(0)
    observed = [np.array([0, 1, 1], dtype=np.uint8),
                np.array([1, 0, 0], dtype=np.uint8)]
    seen = set()
    for _ in range(200):
        forged = ees_act(observed, rng)
        assert any(np.array_equal(forged, o) for o in observed)
        seen.add(forged.tobytes())
    assert len(seen) == 2


def test_ees_copy_does_not_alias_input():
    rng = np.random.default_rng(12)
    observed = [np.zeros(4, dtype=np.uint8)]
    forged = ees_act(observed, rng)
    observed[0][:] = 1
    assert forged.tolist() == [0, 0, 0, 0]


def test_ees_modification_one_flips_everything():
    rng = np.random.default_rng(1)
    observed = [np.array([0, 1, 1, 0], dtype=np.uint8)]
    forged = ees_act(observed, rng, modification=1.0)
    assert forged.tolist() == [1, 0, 0, 1]


def test_ees_modification_zero_and_one_are_exact_on_a_stack():
    observed = np.random.default_rng(3).integers(0, 2, (40, 3, 13), dtype=np.uint8)
    picks, flips = np.random.default_rng(4), np.random.default_rng(5)
    verbatim = ees_act(observed, np.random.default_rng(4), 0.0, flips)
    assert flips.bit_generator.state == np.random.default_rng(5).bit_generator.state
    # threshold 2**32: every word is below it, so every bit flips
    assert np.array_equal(ees_act(observed, picks, 1.0, flips), verbatim ^ 1)


def test_ees_modification_rate():
    rng = np.random.default_rng(2)
    observed = [np.zeros(1000, dtype=np.uint8)]
    forged = ees_act(observed, rng, modification=0.25)
    frac = forged.mean()
    assert abs(frac - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 1000)


def test_ees_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        ees_act([], rng)
    with pytest.raises(ValueError):
        ees_act([np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8)], rng)
    with pytest.raises(ValueError):
        ees_act([np.zeros(3, dtype=np.uint8)], rng, modification=1.5)


def test_ees_decode_is_uniform_over_subset():
    rng = np.random.default_rng(4)
    sub = generate_subset(6, 3, rng)  # four pads
    cipher = random_bits(6, rng)
    true_pad = sub.pads[1]
    trials = 8000
    hits = 0
    for _ in range(trials):
        out = ees_decode_attempt(cipher, sub, rng, true_pad=true_pad)
        assert (sub.pads == out.recovered_pad).all(axis=1).any()
        hits += out.pad_recovered
    want = 1 / sub.size
    assert abs(hits / trials - want) < 3 * np.sqrt(want * (1 - want) / trials)


def test_pes_full_sensing_recovers_exactly():
    # sensing every channel with a perfect detector collapses to plain recovery
    rng = np.random.default_rng(5)
    sub = generate_subset(8, 2, rng)
    report = random_bits(8, rng)
    cipher, pad = encrypt_report(report, sub, rng)
    out = pes_act(np.arange(8), report, cipher, sub, rng, true_pad=pad)
    assert out.pad_recovered
    assert np.array_equal(out.recovered_pad, pad)
    assert np.array_equal(out.guessed_states, report)
    assert out.channels_sensed == 8


def test_pes_single_block_guesses_the_rest():
    # sense only block 0 of four: that block is pinned, the other three are
    # fair coin tosses, so full recovery happens 1/8 of the time
    rng = np.random.default_rng(6)
    sub = generate_subset(8, 2, rng)
    trials = 8000
    hits = 0
    for _ in range(trials):
        report = random_bits(8, rng)
        cipher, pad = encrypt_report(report, sub, rng)
        out = pes_act(np.array([0, 1]), report, cipher, sub, rng, true_pad=pad)
        assert np.array_equal(out.recovered_pad[:2], pad[:2])  # exact on sensed block
        assert (sub.pads == out.recovered_pad).all(axis=1).any()
        hits += out.pad_recovered
    want = 1 / 8
    assert abs(hits / trials - want) < 3 * np.sqrt(want * (1 - want) / trials)


def test_pes_empty_mask_is_a_blind_guess():
    rng = np.random.default_rng(7)
    sub = generate_subset(4, 2, rng)
    report = random_bits(4, rng)
    cipher, pad = encrypt_report(report, sub, rng)
    trials = 6000
    hits = sum(
        pes_act(np.array([], dtype=int), report, cipher, sub, rng, true_pad=pad).pad_recovered
        for _ in range(trials)
    )
    want = 1 / sub.size
    assert abs(hits / trials - want) < 3 * np.sqrt(want * (1 - want) / trials)


def test_pes_partial_block_still_votes():
    # sense one channel of a 2-bit block: one vote decides that block
    rng = np.random.default_rng(8)
    sub = generate_subset(4, 2, rng)
    report = random_bits(4, rng)
    cipher, pad = encrypt_report(report, sub, rng)
    out = pes_act(np.array([0]), report, cipher, sub, rng, true_pad=pad)
    # with an exact report the single vote pins block 0
    assert np.array_equal(out.recovered_pad[:2], pad[:2])


def test_pes_votes_on_any_subset():
    # balanced and distinct, but block choices do not combine freely (base on
    # block 0 with complement on block 1 gives 0,0,1,1, which is absent); the
    # vote still picks a member with the best agreement on the covered channels
    sub = PadSubset([[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]],
                    block_length=2, num_blocks=2)
    rng = np.random.default_rng(9)
    for _ in range(50):
        sensed = np.flatnonzero(rng.random(4) < 0.5)
        report = (rng.random(4) < 0.5).astype(np.uint8)
        cipher = (rng.random(4) < 0.5).astype(np.uint8)
        out = pes_act(sensed, report, cipher, sub, rng)
        assert (sub.pads == out.recovered_pad).all(axis=1).any()
        target = np.bitwise_xor(report, cipher)[sensed]
        agreement = (sub.pads[:, sensed] == target).sum(axis=1)
        assert (out.recovered_pad[sensed] == target).sum() == agreement.max()


def test_pes_validation():
    rng = np.random.default_rng(10)
    sub = generate_subset(4, 2, rng)
    report = np.zeros(4, dtype=np.uint8)
    cipher = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        pes_act(np.array([0, 9]), report, cipher, sub, rng,
                true_pad=sub.pads[0])
    with pytest.raises(ValueError):
        pes_act(np.array([0]), np.zeros(3, dtype=np.uint8), cipher, sub, rng,
                true_pad=sub.pads[0])


def test_history_attack_is_recovery_with_stale_report():
    rng = np.random.default_rng(11)
    sub = generate_subset(9, 3, rng)
    stale = random_bits(9, rng)
    cipher = random_bits(9, rng)
    seed = 12345
    out = history_act(stale, cipher, sub, np.random.default_rng(seed),
                      true_pad=sub.pads[2])
    direct = recover_pad(stale, cipher, sub, np.random.default_rng(seed))
    assert np.array_equal(out.recovered_pad, direct)
    assert out.channels_sensed == 9  # the stale report was real sensing work
    assert out.pad_recovered == bool(np.array_equal(direct, sub.pads[2]))
    assert np.array_equal(out.guessed_states,
                          np.bitwise_xor(cipher, out.recovered_pad))


def test_history_attack_pays_the_persistence_penalty():
    # A report sensed one slot ago agrees with the current occupancy with
    # probability pers*eta + (1-pers)*(1-eta). At persistence 0.9 and the
    # default detector quality (eta 0.82) that is 0.756, so the stale
    # attacker recovers the pad strictly less often than a fresh observer.
    eta, pers = 0.82, 0.9
    eta_stale = pers * eta + (1.0 - pers) * (1.0 - eta)
    assert eta_stale == pytest.approx(0.756)
    # narrow bands leave a wide analytic gap, wide bands squeeze it
    assert predict_success_rate(9, eta) - predict_success_rate(9, eta_stale) > 0.02
    gap_21 = predict_success_rate(21, eta) - predict_success_rate(21, eta_stale)
    assert 0.0 < gap_21 < 0.01

    m = 21
    # exp(-(rate_on+rate_off)*T) = 0.8 pins persistence at 0.9 exactly
    model = ChannelModel(m, 50.0, 50.0, slot_period=np.log(1.25) / 100.0)
    assert persistence(model) == pytest.approx(pers)
    profile = DetectorProfile.homogeneous(m, 0.1, 0.1)
    rng = np.random.default_rng(13)
    sub = generate_pairs(m, 1, rng)
    trials = 30_000
    fresh_hits = stale_hits = 0
    for _ in range(trials):
        prev = sample_states(model, rng)
        cur = sample_states(model, rng, previous=prev)
        sender = sense(cur, profile, rng)
        fresh = sense(cur, profile, rng)
        stale = sense(prev, profile, rng)
        cipher, pad = encrypt_report(sender, sub, rng)
        fresh_hits += np.array_equal(recover_pad(fresh, cipher, sub, rng), pad)
        out = history_act(stale, cipher, sub, rng, true_pad=pad)
        stale_hits += out.pad_recovered
    fresh_rate = fresh_hits / trials
    stale_rate = stale_hits / trials
    p_fresh = predict_success_rate(m, eta)
    p_stale = predict_success_rate(m, eta_stale)
    assert abs(fresh_rate - p_fresh) <= 3 * np.sqrt(p_fresh * (1 - p_fresh) / trials)
    assert abs(stale_rate - p_stale) <= 3 * np.sqrt(p_stale * (1 - p_stale) / trials)
    # the ordering itself resolves at this trial count: the analytic gap
    # exceeds three standard errors of the observed difference
    sigma_diff = np.sqrt(
        (p_fresh * (1 - p_fresh) + p_stale * (1 - p_stale)) / trials
    )
    assert gap_21 > 3 * sigma_diff
    assert fresh_rate - stale_rate > gap_21 - 3 * sigma_diff


def test_stacked_ees_act_matches_per_round_calls():
    observed = np.random.default_rng(30).integers(0, 2, size=(6, 4, 13), dtype=np.uint8)
    for modification in (0.0, 0.3):
        picks = [np.random.default_rng(31) for _ in range(2)]
        flips = [np.random.default_rng(32) for _ in range(2)]
        got = ees_act(observed, picks[0], modification, flips[0])
        want = np.stack([ees_act(rows, picks[1], modification, flips[1]) for rows in observed])
        assert got.shape == (6, 13) and np.array_equal(got, want), modification
        for stacked, rows in (picks, flips):
            assert stacked.bit_generator.state == rows.bit_generator.state, modification
    with pytest.raises(ValueError):
        ees_act(observed[:, :0], picks[0])


@pytest.mark.parametrize("build", [
    lambda rng: generate_subset(13, 4, rng),   # even blocks and a 1-bit tail: vote ties
    lambda rng: generate_pairs(13, 3, rng),
    lambda rng: generate_subset(130, 1, rng),  # blind votes tie past RANK_BITS blocks
])
def test_stacked_attacks_match_per_round_calls(build):
    rng = np.random.default_rng(33)
    sub = build(rng)
    m = sub.length
    reports = rng.integers(0, 2, size=(7, m), dtype=np.uint8)
    ciphers = rng.integers(0, 2, size=(7, m), dtype=np.uint8)
    true_pads = sub.draw(rng, (7,))
    true_pads[::2] = reports[::2] ^ ciphers[::2]  # some rounds a vote can hit
    attacks = {
        "ees_decode_attempt": lambda r, c, p, g: ees_decode_attempt(c, sub, g, true_pad=p),
        "pes_act": lambda r, c, p, g: pes_act(np.arange(0, m, 3), r, c, sub, g, true_pad=p),
        "pes_act blind": lambda r, c, p, g: pes_act([], r, c, sub, g, true_pad=p),
        "history_act": lambda r, c, p, g: history_act(r, c, sub, g, true_pad=p),
    }
    for name, attack in attacks.items():
        stacked_rng, row_rng = np.random.default_rng(34), np.random.default_rng(34)
        got = attack(reports, ciphers, true_pads, stacked_rng)
        rows = [attack(*args, row_rng) for args in zip(reports, ciphers, true_pads)]
        assert np.array_equal(got.recovered_pad, np.stack([o.recovered_pad for o in rows])), name
        assert np.array_equal(got.guessed_states, np.stack([o.guessed_states for o in rows])), name
        assert got.pad_recovered.dtype == bool, name
        assert got.pad_recovered.tolist() == [o.pad_recovered for o in rows], name
        assert all(type(o.pad_recovered) is bool for o in rows), name
        assert got.channels_sensed == rows[0].channels_sensed, name
        assert stacked_rng.bit_generator.state == row_rng.bit_generator.state, name
        assert attack(reports, ciphers, None, stacked_rng).pad_recovered is None, name


def test_stacked_attack_validation():
    rng = np.random.default_rng(35)
    sub = generate_subset(8, 2, rng)
    stack = np.zeros((3, 8), dtype=np.uint8)
    for bad in (stack[:, :7], stack[None], stack + 2):
        with pytest.raises(ValueError):
            ees_decode_attempt(bad, sub, rng)
        with pytest.raises(ValueError):
            history_act(bad, bad, sub, rng)
    with pytest.raises(ValueError):
        pes_act([0], stack, stack[0], sub, rng)
    with pytest.raises(ValueError):
        history_act(stack[:2], stack, sub, rng)
