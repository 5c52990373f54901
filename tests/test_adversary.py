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
