"""Channel model and detector statistics against closed forms."""

import copy

import numpy as np
import pytest

from otpsense.spectrum import (
    ChannelModel,
    DetectorProfile,
    persistence,
    sample_states,
    sense,
    stationary_occupancy,
)


def test_stationary_occupancy_values():
    # mean busy 1, mean idle 1/3 -> busy share 0.75
    m = ChannelModel(4, rate_on=1.0, rate_off=3.0)
    assert np.allclose(stationary_occupancy(m), 0.75)
    sym = ChannelModel(2, 50.0, 50.0, slot_period=0.01)
    assert np.allclose(stationary_occupancy(sym), 0.5)


def test_per_channel_rate_overrides():
    m = ChannelModel(3, rate_on=[1.0, 1.0, 2.0], rate_off=[3.0, 1.0, 2.0])
    assert np.allclose(stationary_occupancy(m), [0.75, 0.5, 0.5])


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelModel(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelModel(2, 1.0, 1.0, slot_period=0.0)
    with pytest.raises(ValueError):
        ChannelModel(2, [1.0, 1.0, 1.0], 1.0)
    # non-finite values fail the range checks too
    for on, off, period in ((np.nan, 1.0, 1.0), (1.0, [1.0, np.inf], 1.0),
                            (1.0, 1.0, np.nan), (1.0, 1.0, np.inf)):
        with pytest.raises(ValueError):
            ChannelModel(2, on, off, slot_period=period)


def test_stationary_sampling_matches_occupancy():
    m = ChannelModel(100_000, 1.0, 3.0)
    states = sample_states(m, np.random.default_rng(0))
    n = states.size
    p = 0.75
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(states.mean() - p) < 3 * sigma


def test_transition_kernel_matches_persistence_formula():
    m = ChannelModel(200_000, 50.0, 50.0, slot_period=0.01)
    rng = np.random.default_rng(1)
    prev = sample_states(m, rng)
    nxt = sample_states(m, rng, previous=prev)
    stay = (prev == nxt).mean()
    expected = persistence(m)[0]
    sigma = np.sqrt(expected * (1 - expected) / m.num_channels)
    assert abs(stay - expected) < 3 * sigma


def test_persistence_monotone_in_slot_period():
    # strictly decreasing while the exponential is still resolvable in float;
    # past ~40 mean holding times it saturates at the memoryless level
    periods = [0.0001, 0.001, 0.003, 0.01, 0.03, 0.1]
    values = [persistence(ChannelModel(1, 50.0, 50.0, t))[0] for t in periods]
    assert all(a > b for a, b in zip(values, values[1:]))
    # limits: tiny period keeps the state, huge period forgets it
    assert values[0] > 0.99
    p1 = 0.5
    saturated = persistence(ChannelModel(1, 50.0, 50.0, 10.0))[0]
    assert abs(saturated - (1 - 2 * p1 * (1 - p1))) < 1e-9


def test_long_slot_period_forgets_previous_state():
    m = ChannelModel(200_000, 1.0, 3.0, slot_period=1e6)
    rng = np.random.default_rng(2)
    prev = np.zeros(m.num_channels, dtype=np.uint8)  # all idle
    nxt = sample_states(m, rng, previous=prev)
    sigma = np.sqrt(0.75 * 0.25 / m.num_channels)
    assert abs(nxt.mean() - 0.75) < 3 * sigma


def test_sample_states_deterministic_and_validated():
    m = ChannelModel(64, 2.0, 1.0, 0.5)
    a = sample_states(m, np.random.default_rng(7))
    b = sample_states(m, np.random.default_rng(7))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_states(m, np.random.default_rng(0), previous=np.zeros(3, dtype=np.uint8))


@pytest.mark.parametrize("start", [None, "given"])
def test_chain_of_slots_matches_slot_by_slot_draws(start):
    m = ChannelModel(40, np.linspace(5.0, 80.0, 40), 30.0, slot_period=0.02)
    previous = None if start is None else sample_states(m, np.random.default_rng(4))
    chain_rng, slot_rng = np.random.default_rng(5), np.random.default_rng(5)
    chain = sample_states(m, chain_rng, previous=previous, slots=30)
    assert chain.shape == (30, 40) and chain.dtype == np.uint8
    for t in range(30):
        previous = sample_states(m, slot_rng, previous=previous)
        assert np.array_equal(chain[t], previous), t
    assert chain_rng.bit_generator.state == slot_rng.bit_generator.state
    assert 0 < (chain[1:] != chain[:-1]).mean() < 0.5  # the chain moves, with memory
    with pytest.raises(ValueError, match="slots"):
        sample_states(m, chain_rng, slots=0)


def test_stacked_sense_matches_one_call_per_row():
    profile = DetectorProfile(np.linspace(0.0, 0.5, 16), np.linspace(0.3, 0.05, 16))
    states = sample_states(ChannelModel(16, 1.0, 1.0), np.random.default_rng(6), slots=25)
    stacked_rng, row_rng = np.random.default_rng(7), np.random.default_rng(7)
    stacked = sense(states, profile, stacked_rng)
    rows = np.stack([sense(row, profile, row_rng) for row in states])
    assert stacked.shape == (25, 16) and stacked.dtype == np.uint8
    assert np.array_equal(stacked, rows)
    assert stacked_rng.bit_generator.state == row_rng.bit_generator.state
    for bad in (np.zeros((2, 2, 16)), np.zeros((3, 15)), np.full(16, 2)):
        with pytest.raises(ValueError):
            sense(bad, profile, stacked_rng)


def population(n, m=16):
    """n distinct per-channel profiles over m channels."""
    return [DetectorProfile(np.linspace(0.0, 0.5, m) + 0.01 * i, np.linspace(0.3, 0.05, m))
            for i in range(n)]


def test_population_sense_of_a_stack_matches_one_call_per_slot():
    profiles = population(5)
    states = sample_states(ChannelModel(16, 1.0, 1.0), np.random.default_rng(6), slots=25)
    stacked_rng, slot_rng = np.random.default_rng(7), np.random.default_rng(7)
    stacked = sense(states, profiles, stacked_rng)
    slots = np.stack([sense(row, profiles, slot_rng) for row in states])
    assert stacked.shape == (25, 5, 16) and stacked.dtype == np.uint8
    assert np.array_equal(stacked, slots)
    assert stacked_rng.bit_generator.state == slot_rng.bit_generator.state
    # drawn in (slot, user, channel) order, each user against its own table
    u = np.random.default_rng(7).random((25, 5, 16))
    for i, p in enumerate(profiles):
        flip = np.where(states == 1, p.miss, p.false_alarm)
        assert np.array_equal(stacked[:, i], states ^ (u[:, i] < flip)), i


@pytest.mark.parametrize("stacked", [False, True])
def test_sense_draws_the_bits_of_the_float_rate_table(stacked):
    # per-channel rates with exact 0s and 1s; the population form on
    # distinct and on shared profiles, and the one-profile form
    rng = np.random.default_rng(12)
    m, n = 24, 5

    def rates():
        r = rng.random(m)
        r[rng.random(m) < 0.2] = 0.0
        r[rng.random(m) < 0.2] = 1.0
        return r

    profiles = [DetectorProfile(rates(), rates()) for _ in range(n)]
    states = (rng.random((9, m) if stacked else m) < 0.5).astype(np.uint8)
    for profile in (profiles, [profiles[0]] * n, *profiles):
        draws = np.random.default_rng(40)
        clone = copy.deepcopy(draws)
        got = sense(states, profile, draws)
        if isinstance(profile, DetectorProfile):
            truth, miss, false_alarm = states, profile.miss, profile.false_alarm
        else:
            truth = states[..., None, :]
            miss = np.array([p.miss for p in profile])
            false_alarm = np.array([p.false_alarm for p in profile])
        u = clone.random(got.shape)
        assert np.array_equal(got, truth ^ (u < np.where(truth == 1, miss, false_alarm)))
        assert draws.bit_generator.state == clone.bit_generator.state


def test_population_sense_rejects_bad_input_before_drawing():
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    profiles = population(3)
    for bad in (np.zeros((2, 15), dtype=np.uint8), np.full(16, 2), np.zeros((2, 2, 16))):
        with pytest.raises(ValueError):
            sense(bad, profiles, rng)
    for bad_profiles in ([], population(2) + population(1, m=15)):
        with pytest.raises(ValueError):
            sense(np.zeros(16, dtype=np.uint8), bad_profiles, rng)
    assert rng.bit_generator.state == before


def test_sense_error_rates_converge():
    n = 100_000
    profile = DetectorProfile.homogeneous(n, 0.1, 0.2)
    rng = np.random.default_rng(3)
    idle = sense(np.zeros(n, dtype=np.uint8), profile, rng)
    busy = sense(np.ones(n, dtype=np.uint8), profile, rng)
    assert abs(idle.mean() - 0.1) < 3 * np.sqrt(0.1 * 0.9 / n)
    assert abs((1 - busy.mean()) - 0.2) < 3 * np.sqrt(0.2 * 0.8 / n)


def test_sense_respects_per_channel_profile():
    profile = DetectorProfile(false_alarm=[0.0, 1.0], miss=[0.0, 0.0])
    out = sense(np.zeros(2, dtype=np.uint8), profile, np.random.default_rng(0))
    assert out.tolist() == [0, 1]


def test_profile_validation():
    with pytest.raises(ValueError):
        DetectorProfile([0.1, 0.2], [0.1])
    with pytest.raises(ValueError):
        DetectorProfile([1.5], [0.1])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="false_alarm"):
            DetectorProfile([0.1, bad], [0.1, 0.1])
        with pytest.raises(ValueError, match="miss"):
            DetectorProfile([0.1], [bad])
    with pytest.raises(ValueError):
        sense(np.zeros(3, dtype=np.uint8), DetectorProfile.homogeneous(2, 0.1, 0.1),
              np.random.default_rng(0))
