"""Exact information-leakage analysis of published ciphertexts.

How much does an eavesdropper that senses nothing learn about channel i from
the ciphertext bits it overhears?  Everything here is exact, no sampling:
the channel state C_i is Bernoulli with the stationary busy probability,
each sender's report bit follows its detector profile, pad bits are uniform
over the public subset, and the masking level is the mutual information
I(C_i ; E_i) in bits.

The subset property that kills the leak is complement closure: it forces
every pad bit to be marginally Bernoulli(1/2) (`xi_profile` == 0.5), which
makes the ciphertext bit an unbiased coin regardless of the state.  The
converse does not hold for arbitrary pad collections (a set can hit
xi == 0.5 everywhere without containing complements), but zero per-bit
leakage needs only xi == 0.5.  Such fair-coin channels, every channel of a
complement-closed subset, leak exactly 0 for any population and are
reported as 0.0 without entering the kernel below (which gives 0.0 on them
too); inputs are still validated on every channel.

Several senders draw their pads independently, so their ciphertext bits are
conditionally independent given the state.  Senders with equal detector
profiles (compared by value) share one ciphertext law e, and within such a
group of n the count of 1-bits is a sufficient statistic for the state: it
is Binomial(n, e), and the mutual information of the counts equals that of
the bit vectors.  The joint law is the outer product of the groups'
binomial pmfs, so a homogeneous population needs n + 1 outcomes instead of
2**n, and one where every sender differs needs 2**n as before.  The
outcome table, prod(n_g + 1) over groups, is capped at MAX_JOINT_OUTCOMES
when some channel needs the kernel.
Large groups make outcome laws as small as pf**n, subnormal or zero, so the
ratio of an outcome's two state laws is clipped to [2**-1000, 2**1000]
before its logarithms are taken; that moves no term by more than 2**-989
bits.
Every quantity is computed for all channels at once by one kernel, in
channel chunks of bounded size; `masking_level` and `joint_masking_level`
are its one-channel views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import PadSubset
from .spectrum import DetectorProfile

# the count-outcome table has prod(n_g + 1) rows per channel; past 2**20
# (20 distinct senders) it stops being exact analysis and starts being a
# memory bug
MAX_JOINT_OUTCOMES = 2 ** 20

# entries per float temporary (state x channel x outcome) in the kernel
LEAK_CHUNK = 2 ** 15


def xi_profile(subset: PadSubset) -> np.ndarray:
    """Per-position probability that a uniformly drawn pad bit is zero.

    Returns
    -------
    numpy.ndarray
        Shape (length,) read-only float vector, cached on the subset; 0.5
        everywhere for complement-closed subsets.
    """
    return subset.xi


def _log_comb(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n."""
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    return log_fact[n] - log_fact - log_fact[::-1]


def _mutual_information(laws: np.ndarray, counts, occupancy: np.ndarray) -> np.ndarray:
    """I(C_i ; ciphertext bits) in bits for every channel i.

    Parameters
    ----------
    laws : (G, 2, M) P(E=1 | idle), P(E=1 | busy) of each sender group.
    counts : (G,) senders per group, each >= 1.
    occupancy : (M,) busy probabilities.
    """
    m = occupancy.size
    counts = [int(n) for n in counts]
    sizes = [n + 1 for n in counts]
    # every group's counts side by side: count k of a group of n, log C(n, k)
    k = np.concatenate([np.arange(size) for size in sizes])
    n = np.repeat(counts, sizes)
    group = np.repeat(np.arange(len(counts)), sizes)
    log_comb = np.concatenate([_log_comb(c) for c in counts])
    step = max(1, LEAK_CHUNK // (2 * math.prod(sizes)))
    out = np.empty(m)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        # (2, channels, sum of sizes) in C order, so that every channel's
        # outcomes are summed in the same order whatever the chunk
        law = np.moveaxis(laws[group, :, lo:hi], 0, -1).copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            # Binomial(n, law) pmfs; 0 * log(0) is 0, as a certain bit makes
            # every other count impossible
            log_pmf = (log_comb + np.where(k > 0, k * np.log(law), 0.0)
                       + np.where(k < n, (n - k) * np.log1p(-law), 0.0))
        # P(counts | state): (2, channels, outcomes), last group's count varying fastest
        table = np.ones((2, hi - lo, 1))
        for pmf in np.split(np.exp(log_pmf), np.cumsum(sizes)[:-1], axis=-1):
            table = (table[..., None] * pmf[..., None, :]).reshape(2, hi - lo, -1)
        busy = occupancy[lo:hi, None]
        idle = 1.0 - busy
        joint_idle, joint_busy = idle * table[0], busy * table[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # P(outcome | state) / P(outcome) as 1 / (idle + busy * ratio) and
            # 1 / (idle / ratio + busy): equal state laws give ratio 1 and
            # idle + busy == 1 exactly, so closed subsets leak exactly 0.  The
            # clip keeps both logarithms finite when one law is subnormal; it
            # moves only terms weighted by a law below 2**-1000, by less than
            # 2**-989 bits each
            ratio = np.clip(table[1] / table[0], 2.0 ** -1000, 2.0 ** 1000)
            mi = (np.where(joint_idle > 0, joint_idle * -np.log2(idle + busy * ratio), 0.0)
                  + np.where(joint_busy > 0, joint_busy * -np.log2(idle / ratio + busy), 0.0))
        out[lo:hi] = mi.sum(axis=-1)
    # rounding can leave -0.0 or ~ -1e-17; information is never negative
    return np.where(out > 0, out, 0.0)


def _senders(subset, occupancy, profiles, channels: slice):
    """Validated kernel inputs on `channels`: occupancy (C,), the (C,) mask
    of leaky channels (xi != 1/2), ciphertext laws (D, 2, L) of the D
    distinct profiles on the L leaky channels, their sender counts, and
    each sender's index among them."""
    xi = subset.xi[channels]
    occ = np.broadcast_to(np.asarray(occupancy, dtype=float), xi.shape)
    if not ((occ >= 0) & (occ <= 1)).all():
        raise ValueError(f"occupancy must lie in [0, 1], got {occupancy}")
    if not profiles:
        raise ValueError("need at least one sender")
    distinct: list[DetectorProfile] = []
    group_of: dict[tuple[bytes, bytes], int] = {}  # profile values -> index in distinct
    index = np.empty(len(profiles), dtype=np.intp)
    for x, profile in enumerate(profiles):
        key = (profile.false_alarm.tobytes(), profile.miss.tobytes())
        if key not in group_of:
            group_of[key] = len(distinct)
            distinct.append(profile)
        index[x] = group_of[key]
    counts = np.bincount(index)
    outcomes = math.prod(int(n) + 1 for n in counts)
    leaky = xi != 0.5
    if leaky.any() and outcomes > MAX_JOINT_OUTCOMES:
        raise ValueError(
            f"{len(profiles)} senders in {len(distinct)} distinct profiles need {outcomes} "
            f"count outcomes, past the {MAX_JOINT_OUTCOMES} of exact analysis"
        )
    for profile in distinct:
        if profile.num_channels != subset.length:
            raise ValueError(
                f"profile covers {profile.num_channels} channels, subset pads {subset.length}"
            )
    report_one = np.array([[p.false_alarm[channels][leaky], 1.0 - p.miss[channels][leaky]]
                           for p in distinct])
    # XOR with an independent pad bit that is zero with probability xi
    laws = xi[leaky] * report_one + (1.0 - xi[leaky]) * (1.0 - report_one)
    return occ, leaky, laws, counts, index


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
    return joint_masking_level(subset, occupancy, [profile], channel)


def joint_masking_level(
    subset: PadSubset,
    occupancy: float,
    profiles: list[DetectorProfile],
    channel: int,
) -> float:
    """Leakage about channel i from the ciphertext bits of several senders.

    Each sender draws its pad independently from the same subset, so the
    ciphertext bits are conditionally independent given the state; the law
    of the per-profile 1-bit counts is evaluated exactly.

    Raises
    ------
    ValueError
        No profiles, or a count-outcome table past MAX_JOINT_OUTCOMES
        (more than 20 senders when all differ) on a channel with
        xi != 1/2.
    """
    if not 0 <= channel < subset.length:
        raise ValueError(f"channel {channel} out of range for length {subset.length}")
    occ, leaky, laws, counts, _ = _senders(subset, occupancy, profiles, slice(channel, channel + 1))
    return float(_mutual_information(laws, counts, occ)[0]) if leaky[0] else 0.0


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

    `occupancy` may be a scalar or a per-channel vector.  The per-sender
    levels are evaluated once per distinct profile.  Fair-coin channels
    (xi == 1/2) are 0.0 without the kernel, so a complement-closed subset
    costs one validation pass whatever the number of senders.
    """
    occ, leaky, laws, counts, index = _senders(subset, occupancy, profiles, slice(None))
    d = laws.shape[0]
    alone, joint = np.zeros((d, occ.size)), np.zeros(occ.size)
    if leaky.any():
        # the kernel sums each channel on its own, so a channel's value does
        # not depend on which others it runs beside
        live = occ[leaky]
        # every distinct sender alone, its leaky channels laid end to end
        alone[:, leaky] = _mutual_information(
            laws.transpose(1, 0, 2).reshape(1, 2, -1), (1,), np.tile(live, d)
        ).reshape(d, -1)
        joint[leaky] = _mutual_information(laws, counts, live)
    return LeakageReport(alone[index], joint, subset.xi)
