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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bits import as_bits


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
    are correlated (the history attack depends on this).  A chain applies
    the kernel slot after slot, from the same random numbers as `slots`
    single-slot calls that each pass the slot before.

    Returns:
        uint8 vector of shape (num_channels,), or (slots, num_channels)
        when `slots` is given; 1 = busy.
    """
    if previous is not None:
        previous = as_bits(previous)
        if previous.size != model.num_channels:
            raise ValueError(f"previous has {previous.size} channels, model has {model.num_channels}")
    if slots is not None and slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    p1 = stationary_occupancy(model)
    u = rng.random((1 if slots is None else slots, model.num_channels))
    decay = np.exp(-(model.rate_on + model.rate_off) * model.slot_period)
    # P(next=1 | prev) = p1 + (prev - p1) * exp(-r*T), for prev = 1 and prev = 0
    stays_busy, turns_busy = u < p1 + (1.0 - p1) * decay, u < p1 - p1 * decay
    states = np.empty(u.shape, dtype=np.uint8)
    for t in range(len(u)):
        states[t] = u[t] < p1 if previous is None else np.where(previous, stays_busy[t], turns_busy[t])
        previous = states[t]
    return states if slots is not None else states[0]


@dataclass(frozen=True, eq=False)
class DetectorProfile:
    """Per-channel detector error rates of one sensing user.

    false_alarm[i] = P(report 1 | channel i idle), miss[i] = P(report 0 |
    channel i busy).  Both in [0, 1].
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


def sense(
    states: np.ndarray,
    profile: DetectorProfile | Sequence[DetectorProfile],
    rng: np.random.Generator,
) -> np.ndarray:
    """One user's noisy sensing report for a true state vector, or one
    report per row of a (slots, M) stack of them.

    Busy channels are missed with probability miss[i]; idle channels raise a
    false alarm with probability false_alarm[i].  A stack is sensed from the
    same random numbers as one call per row, in row order.

    Given a sequence of N users' profiles in place of one, every user senses
    the same truth: the result is (N, M) for a state vector and (slots, N, M)
    for a stack, drawn in (slot, user, channel) order, so a stack is again
    sensed from the same random numbers as one call per slot.  When every
    entry is one shared profile object its rows serve every user as they
    are; otherwise the profiles are stacked into (N, M) tables.

    Each uniform u is compared with both rates, and a busy channel keeps
    the miss test: errors are u < false_alarm, then u < miss where busy,
    with no float table of per-cell rates.
    """
    states = np.asarray(states, dtype=np.uint8)
    users = ()
    if isinstance(profile, DetectorProfile):
        miss, false_alarm = profile.miss, profile.false_alarm
    elif profile and all(p is profile[0] for p in profile):
        miss, false_alarm, users = profile[0].miss, profile[0].false_alarm, (len(profile),)
    else:
        channels = {p.num_channels for p in profile}
        if len(channels) != 1:
            raise ValueError(f"sense needs profiles of one channel count, got {sorted(channels)}")
        miss = np.array([p.miss for p in profile])
        false_alarm = np.array([p.false_alarm for p in profile])
        users = (len(profile),)
    width = miss.shape[-1]
    if states.ndim not in (1, 2) or states.shape[-1] != width:
        raise ValueError(f"states has shape {states.shape}, profile has {width} channels")
    if states.max(initial=0) > 1:
        raise ValueError("state entries must be 0 or 1")
    u = rng.random((*states.shape[:-1], *users, width))
    if users:  # every user senses the same truth
        states = states[..., None, :]
    errors = u < false_alarm
    missed = u < miss
    missed ^= errors
    missed &= states.view(bool)
    errors ^= missed  # u < miss where busy
    return np.bitwise_xor(states, errors.view(np.uint8))
