"""Primary-user occupancy model and energy-detector abstraction.

Each channel is an independent two-state ON/OFF process in continuous time:
sojourns in the busy state are Exponential(rate_on), sojourns in the idle
state are Exponential(rate_off).  Sensing happens once per slot, so slot to
slot evolution uses the exact two-state Markov discretization of the chain
over one slot_period.  Detectors are abstracted to per-channel false-alarm
and miss probabilities; no physical-layer signal model is simulated.

States are 1 = busy (primary user transmitting), 0 = idle.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, below, thresholds, uniform_words


def _per_channel(value, num_channels: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-channel sequence to shape (num_channels,)."""
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        a = np.full(num_channels, float(a))
    if a.shape != (num_channels,):
        raise ValueError(f"{name} must be scalar or length {num_channels}, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """ON/OFF occupancy model for a band of `num_channels` channels.

    Args:
        num_channels: number of channels M, >= 1.
        rate_on: exponential rate of leaving the busy state (scalar or per
            channel); mean busy sojourn is 1/rate_on.
        rate_off: exponential rate of leaving the idle state; mean idle
            sojourn is 1/rate_off.
        slot_period: sensing period in the sojourn time unit, > 0.
    """

    num_channels: int
    rate_on: np.ndarray
    rate_off: np.ndarray
    slot_period: float = 1.0

    def __init__(self, num_channels, rate_on, rate_off, slot_period=1.0):
        if num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {num_channels}")
        rate_on = _per_channel(rate_on, num_channels, "rate_on")
        rate_off = _per_channel(rate_off, num_channels, "rate_off")
        rates = np.concatenate([rate_on, rate_off])
        if not ((rates > 0) & (rates < np.inf)).all():
            raise ValueError("sojourn rates must be positive and finite")
        if not 0 < slot_period < np.inf:
            raise ValueError(f"slot_period must be positive and finite, got {slot_period}")
        object.__setattr__(self, "num_channels", int(num_channels))
        object.__setattr__(self, "rate_on", rate_on)
        object.__setattr__(self, "rate_off", rate_off)
        object.__setattr__(self, "slot_period", float(slot_period))

    @functools.cached_property
    def _thresholds(self):
        """`bits.thresholds` of the stationary, stay-busy and turn-busy
        rates, built on first use: a model's rates must not change after."""
        p1 = stationary_occupancy(self)
        decay = np.exp(-(self.rate_on + self.rate_off) * self.slot_period)
        # P(next=1 | prev) = p1 + (prev - p1) * exp(-r*T), for prev = 1 and prev = 0
        return tuple(map(thresholds, (p1, p1 + (1.0 - p1) * decay, p1 - p1 * decay)))


def stationary_occupancy(model: ChannelModel) -> np.ndarray:
    """Long-run probability that each channel is busy.

    Time share of the busy state is mean_on / (mean_on + mean_off) with
    mean_on = 1/rate_on and mean_off = 1/rate_off.
    """
    return model.rate_off / (model.rate_on + model.rate_off)


def persistence(model: ChannelModel) -> np.ndarray:
    """Per-channel probability that the state observed one slot later is
    unchanged, starting from the stationary distribution.

    For a two-state chain with relaxation rate r = rate_on + rate_off the
    one-slot transition kernel is P(stay busy) = p1 + p0*exp(-r*T) and
    P(stay idle) = p0 + p1*exp(-r*T); averaging over the stationary law
    gives 1 - 2*p0*p1*(1 - exp(-r*T)).  Monotone decreasing in slot_period.
    """
    r = model.rate_on + model.rate_off
    p1 = stationary_occupancy(model)
    decay = np.exp(-r * model.slot_period)
    return 1.0 - 2.0 * p1 * (1.0 - p1) * (1.0 - decay)


def sample_states(
    model: ChannelModel,
    rng: np.random.Generator,
    previous: np.ndarray | None = None,
    slots: int | None = None,
) -> np.ndarray:
    """Draw the channel state vector for one slot, or a chain of `slots`.

    Without `previous` the first draw is stationary: independent
    Bernoulli(p1) per channel.  With `previous` the exact one-slot
    transition kernel of the ON/OFF chain is applied, so consecutive slots
    are correlated (the history attack depends on this).  `previous` must
    be a (num_channels,) bit vector (`bits.as_bits`).

    Each slot draws one uniform uint32 word per channel, from whole 64-bit
    outputs of the generator (`bits.uniform_words`), and compares it with
    the model's thresholds floor(rate * 2**32) (`bits.thresholds`, built
    once per model).  A chain fills all its slots at once (`_fill_chain`),
    with the states and random numbers of `slots` single-slot calls that
    each pass the slot before.

    Returns:
        uint8 vector of shape (num_channels,), or (slots, num_channels)
        when `slots` is given; 1 = busy.
    """
    if previous is not None:
        previous = as_bits(previous, model.num_channels, name="previous")
    if slots is not None and slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    stationary, stays, turns = model._thresholds
    u = uniform_words(rng, 1 if slots is None else slots, model.num_channels)
    stays_busy, turns_busy = below(u, stays), below(u, turns)
    first = (below(u[0], stationary) if previous is None
             else np.where(previous, stays_busy[0], turns_busy[0]))
    states = _fill_chain(stays_busy, turns_busy, first)
    return states if slots is not None else states[0]


def _fill_chain(stays_busy: np.ndarray, turns_busy: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The chain's (T, M) states from slot 0's states `first` and each later
    slot's two transitions, without a loop over slots.  turns_busy implies
    stays_busy, so a slot is 1 where it turns busy, 0 where it does not stay
    busy, and the slot before's state elsewhere: each slot takes the value
    of its channel's last decisive slot, found by a running maximum over
    slot indices.  Overwrites both transition arrays' slot 0."""
    stays_busy[0] = turns_busy[0] = first  # slot 0 is decisive either way
    slots, channels = turns_busy.shape
    index = np.arange(slots, dtype=np.min_scalar_type(slots - 1))[:, None]
    last = (turns_busy | ~stays_busy) * index
    np.maximum.accumulate(last, axis=0, out=last)
    return turns_busy[last, np.arange(channels)].view(np.uint8)


@dataclass(frozen=True, eq=False)
class DetectorProfile:
    """Per-channel detector error rates of one sensing user.

    false_alarm[i] = P(report 1 | channel i idle), miss[i] = P(report 0 |
    channel i busy).  Both in [0, 1], and fixed once the profile has sensed:
    `sense` keeps their `bits.thresholds` on the profile.
    """

    false_alarm: np.ndarray
    miss: np.ndarray

    def __init__(self, false_alarm, miss):
        fa = np.atleast_1d(np.asarray(false_alarm, dtype=float))
        ms = np.atleast_1d(np.asarray(miss, dtype=float))
        if fa.shape != ms.shape or fa.ndim != 1:
            raise ValueError(f"false_alarm/miss shapes differ: {fa.shape} vs {ms.shape}")
        for name, a in (("false_alarm", fa), ("miss", ms)):
            if not ((a >= 0) & (a <= 1)).all():
                raise ValueError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "false_alarm", fa)
        object.__setattr__(self, "miss", ms)

    @classmethod
    def homogeneous(cls, num_channels: int, false_alarm: float, miss: float) -> "DetectorProfile":
        return cls(np.full(num_channels, false_alarm), np.full(num_channels, miss))

    @property
    def num_channels(self) -> int:
        return self.false_alarm.size

    @functools.cached_property
    def _thresholds(self):
        """`bits.thresholds` of false_alarm and of miss: one object for both
        when the rates are equal channel by channel."""
        fa = thresholds(self.false_alarm)
        return fa, fa if np.array_equal(self.false_alarm, self.miss) else thresholds(self.miss)


def _stacked(tables):
    """One (N, M) `bits.thresholds` pair from N users' (M,) ones."""
    t = np.array([t for t, _ in tables])
    if all(o is None for _, o in tables):
        return t, None
    return t, np.array([np.zeros(t.shape[1], bool) if o is None else o for _, o in tables])


def sense(
    states: np.ndarray,
    profile: DetectorProfile | Sequence[DetectorProfile],
    rng: np.random.Generator,
) -> np.ndarray:
    """One user's noisy sensing report for a true state vector, or one
    report per row of a (slots, M) stack of them.

    Busy channels are missed with probability miss[i]; idle channels raise a
    false alarm with probability false_alarm[i].  A stack is sensed from the
    same random numbers as one call per row, in row order: each row draws
    one uniform uint32 word per cell from whole 64-bit outputs of the
    generator (`bits.uniform_words`).

    Given a sequence of N users' profiles in place of one, every user senses
    the same truth: the result is (N, M) for a state vector and (slots, N, M)
    for a stack, drawn in (slot, user, channel) order, so a stack is again
    sensed from the same random numbers as one call per slot.  When every
    entry is one shared profile object its threshold rows serve every user
    as they are; otherwise they are stacked into (N, M) tables.

    Each word u is compared with the thresholds floor(rate * 2**32) of both
    rates (`bits.below`), and a busy channel keeps the miss test: errors
    are u below false_alarm, then u below miss where busy, with no table of
    per-cell rates.  A profile whose two rates are equal on every channel
    compares each word once.  States that are not (M,) or (slots, M) bits
    raise ValueError (`bits.as_bits`) before any draw.
    """
    users = ()
    if isinstance(profile, DetectorProfile):
        false_alarm, miss = profile._thresholds
    elif profile and all(p is profile[0] for p in profile):
        (false_alarm, miss), users = profile[0]._thresholds, (len(profile),)
    else:
        channels = {p.num_channels for p in profile}
        if len(channels) != 1:
            raise ValueError(f"sense needs profiles of one channel count, got {sorted(channels)}")
        false_alarm, miss = (_stacked([p._thresholds[k] for p in profile]) for k in (0, 1))
        users = (len(profile),)
    width = miss[0].shape[-1]
    states = as_bits(states, width, (1, 2), "states")
    shape = (*states.shape[:-1], *users, width)
    u = uniform_words(rng, shape[0] if states.ndim == 2 else 1,
                      width * (users[0] if users else 1)).reshape(shape)
    if users:  # every user senses the same truth
        states = states[..., None, :]
    errors = below(u, false_alarm)
    if miss is not false_alarm:
        missed = below(u, miss)
        missed ^= errors
        missed &= states.view(bool)
        errors ^= missed  # u below miss where busy
    return np.bitwise_xor(states, errors.view(np.uint8))
