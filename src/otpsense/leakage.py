"""Exact information-leakage analysis of published ciphertexts.

How much does an eavesdropper that senses nothing learn about channel i from
the ciphertext bits it overhears?  Everything here is exact enumeration over
the tiny per-bit alphabets, no sampling: the channel state C_i is Bernoulli
with the stationary busy probability, each sender's report bit follows its
detector profile, pad bits are uniform over the public subset, and the
masking level is the mutual information I(C_i ; E_i) in bits.

The subset property that kills the leak is complement closure: it forces
every pad bit to be marginally Bernoulli(1/2) (`xi_profile` == 0.5), which
makes the ciphertext bit an unbiased coin regardless of the state.  The
converse does not hold for arbitrary pad collections (a set can hit
xi == 0.5 everywhere without containing complements), but zero per-bit
leakage needs only xi == 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import PadSubset
from .spectrum import DetectorProfile

# joint enumeration is 2**N outcomes; past 20 senders this stops being exact
# analysis and starts being a memory bug
MAX_JOINT_SENDERS = 20


def xi_profile(subset: PadSubset) -> np.ndarray:
    """Per-position probability that a uniformly drawn pad bit is zero.

    Returns
    -------
    numpy.ndarray
        Shape (length,) read-only float vector, cached on the subset; 0.5
        everywhere for complement-closed subsets.
    """
    return subset.xi


def _report_one(profile: DetectorProfile, channel: int) -> np.ndarray:
    """[P(R=1 | idle), P(R=1 | busy)] for one channel of one sender."""
    return np.array([profile.false_alarm[channel], 1.0 - profile.miss[channel]])


def _cipher_one(xi: float, report_one: np.ndarray) -> np.ndarray:
    """[P(E=1 | idle), P(E=1 | busy)] after XOR with an independent pad bit
    that is zero with probability xi."""
    return xi * report_one + (1.0 - xi) * (1.0 - report_one)


def _mutual_information(p_state: np.ndarray, p_obs_given_state: np.ndarray) -> float:
    """I(state ; observation) in bits for a finite joint distribution.

    Parameters
    ----------
    p_state : (S,) prior.
    p_obs_given_state : (S, K) rows of conditional observation laws.
    """
    joint = p_state[:, None] * p_obs_given_state
    p_obs = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log2(joint) - np.log2(p_state[:, None] * p_obs)
        log_ratio = np.where(joint > 0, log_ratio, 0.0)
    # exact zeros can round to ~ -1e-17; information is never negative
    return max(float((joint * log_ratio).sum()), 0.0)


def masking_level(
    subset: PadSubset,
    occupancy: float,
    profile: DetectorProfile,
    channel: int,
) -> float:
    """Mutual information I(C_i ; E_i) leaked by one sender's ciphertext bit.

    Parameters
    ----------
    subset : public pad subset the sender draws from.
    occupancy : stationary busy probability of the channel, in [0, 1].
    profile : the sender's detector profile.
    channel : channel index i.

    Returns
    -------
    float
        Leakage in bits; 0 <= value <= 1, exactly 0 when the pad bit is
        unbiased (xi == 0.5).
    """
    _check_channel(subset, profile, channel, occupancy)
    xi = xi_profile(subset)[channel]
    p_state = np.array([1.0 - occupancy, occupancy])
    e1 = _cipher_one(xi, _report_one(profile, channel))
    return _mutual_information(p_state, np.column_stack([1.0 - e1, e1]))


def joint_masking_level(
    subset: PadSubset,
    occupancy: float,
    profiles: list[DetectorProfile],
    channel: int,
) -> float:
    """Leakage about channel i from the ciphertext bits of several senders.

    Each sender draws its pad independently from the same subset, so the
    ciphertext bits are conditionally independent given the state and the
    joint law is a product; the 2**N outcome space is enumerated exactly.

    Raises
    ------
    ValueError
        More than MAX_JOINT_SENDERS profiles, or none.
    """
    if not 1 <= len(profiles) <= MAX_JOINT_SENDERS:
        raise ValueError(f"need 1..{MAX_JOINT_SENDERS} senders, got {len(profiles)}")
    for profile in profiles:
        _check_channel(subset, profile, channel, occupancy)
    xi = xi_profile(subset)[channel]
    p_state = np.array([1.0 - occupancy, occupancy])
    # build P(e_1..e_N | state) over all 2**N outcome vectors, one sender at
    # a time: outcome index grows its binary expansion least-significant first
    cond = np.ones((2, 1))
    for profile in profiles:
        e1 = _cipher_one(xi, _report_one(profile, channel))[:, None]
        cond = np.concatenate([cond * (1.0 - e1), cond * e1], axis=1)
    return _mutual_information(p_state, cond)


def _check_channel(subset, profile, channel, occupancy) -> None:
    if not 0 <= occupancy <= 1:
        raise ValueError(f"occupancy must lie in [0, 1], got {occupancy}")
    if profile.num_channels != subset.length:
        raise ValueError(
            f"profile covers {profile.num_channels} channels, subset pads {subset.length}"
        )
    if not 0 <= channel < subset.length:
        raise ValueError(f"channel {channel} out of range for length {subset.length}")


@dataclass(frozen=True, eq=False)
class LeakageReport:
    """Exact leakage summary for a subset and a set of senders.

    Attributes
    ----------
    per_channel_mi : (N, M) array, I(C_i ; E_i^x) per sender x and channel i.
    joint_mi : (M,) array, I(C_i ; all senders' bits) per channel.
    xi : (M,) array from `xi_profile`.
    """

    per_channel_mi: np.ndarray
    joint_mi: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        if (self.per_channel_mi < 0).any() or (self.joint_mi < 0).any():
            raise ValueError("mutual information cannot be negative")
        if (self.joint_mi + 1e-9 < self.per_channel_mi.max(axis=0)).any():
            raise ValueError("joint leakage cannot fall below any single sender's")

    def rows(self) -> list[dict]:
        """One record per channel, ready for tabular output."""
        out = []
        for i in range(self.joint_mi.size):
            row = {"channel": i, "joint_mi": float(self.joint_mi[i]), "xi": float(self.xi[i])}
            for x in range(self.per_channel_mi.shape[0]):
                row[f"sender{x}_mi"] = float(self.per_channel_mi[x, i])
            out.append(row)
        return out


def leakage_report(
    subset: PadSubset,
    occupancy,
    profiles: list[DetectorProfile],
) -> LeakageReport:
    """Evaluate per-sender and joint masking levels on every channel.

    `occupancy` may be a scalar or a per-channel vector.
    """
    m = subset.length
    occ = np.broadcast_to(np.asarray(occupancy, dtype=float), (m,))
    per = np.empty((len(profiles), m))
    joint = np.empty(m)
    for i in range(m):
        for x, profile in enumerate(profiles):
            per[x, i] = masking_level(subset, occ[i], profile, i)
        joint[i] = joint_masking_level(subset, occ[i], profiles, i)
    return LeakageReport(per, joint, xi_profile(subset))
