"""Leakage measures, checked against a dict-based enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from otpsense import leakage
from otpsense.leakage import (
    MAX_JOINT_OUTCOMES,
    LeakageReport,
    joint_masking_level,
    leakage_report,
    masking_level,
    xi_profile,
)
from otpsense.protocol import PadSubset, generate_pairs, generate_subset
from otpsense.spectrum import DetectorProfile

from oracles import is_secure_pair_closed


def oracle_single_mi(subset, occupancy, profile, channel):
    """I(state; cipher bit) by direct joint-distribution enumeration over
    (state, report bit, pad row)."""
    pf = profile.false_alarm[channel]
    pm = profile.miss[channel]
    joint = {}
    for state in (0, 1):
        ps = occupancy if state else 1 - occupancy
        for report_bit in (0, 1):
            if state:
                pr = 1 - pm if report_bit else pm
            else:
                pr = pf if report_bit else 1 - pf
            for pad in subset.pads:
                e = report_bit ^ int(pad[channel])
                joint[state, e] = joint.get((state, e), 0.0) + ps * pr / subset.size
    return _mi_from_dict(joint)


def oracle_joint_mi(subset, occupancy, profiles, channel):
    """I(state; all senders' cipher bits), senders independent given state."""
    joint = {}
    n = len(profiles)
    for state in (0, 1):
        ps = occupancy if state else 1 - occupancy
        # per-sender P(E=1 | state), marginalizing its own pad draw
        pe1 = []
        for prof in profiles:
            pr1 = (1 - prof.miss[channel]) if state else prof.false_alarm[channel]
            val = sum((pr1 if int(pad[channel]) == 0 else 1 - pr1)
                      for pad in subset.pads) / subset.size
            pe1.append(val)
        for es in itertools.product((0, 1), repeat=n):
            p = ps
            for e, q in zip(es, pe1):
                p *= q if e else 1 - q
            joint[state, es] = joint.get((state, es), 0.0) + p
    return _mi_from_dict(joint)


def reference_joint_mi(subset, occupancy, profiles, channel):
    """I(state; all senders' cipher bits) over all 2**N outcome vectors,
    built one sender at a time (the enumeration the count kernel replaced)."""
    xi = subset.xi[channel]
    cond = np.ones((2, 1))
    for prof in profiles:
        report_one = np.array([prof.false_alarm[channel], 1.0 - prof.miss[channel]])
        e1 = (xi * report_one + (1.0 - xi) * (1.0 - report_one))[:, None]
        cond = np.concatenate([cond * (1.0 - e1), cond * e1], axis=1)
    joint = np.array([1.0 - occupancy, occupancy])[:, None] * cond
    indep = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0)
    seen = joint > 0
    return max(float((joint[seen] * np.log2(joint[seen] / indep[seen])).sum()), 0.0)


def log_domain_group_mi(subset, occupancy, groups, channel):
    """I(state; per-group 1-bit counts) for `groups` of (profile, count),
    every probability kept as a logarithm so that no table entry underflows
    or overflows, however many senders."""
    xi = float(subset.xi[channel])
    laws = []  # per group: log P(count = k | state) for k = 0..n, per state
    for prof, n in groups:
        per_state = []
        for report_one in (prof.false_alarm[channel], 1.0 - prof.miss[channel]):
            e1 = xi * report_one + (1.0 - xi) * (1.0 - report_one)
            per_state.append([
                math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + (k * math.log(e1) if k else 0.0)
                + ((n - k) * math.log1p(-e1) if k < n else 0.0)
                if (e1 > 0 or k == 0) and (e1 < 1 or k == n) else -math.inf
                for k in range(n + 1)
            ])
        laws.append(per_state)
    log_state = [math.log(1.0 - occupancy) if occupancy < 1 else -math.inf,
                 math.log(occupancy) if occupancy > 0 else -math.inf]
    terms = []
    for ks in itertools.product(*(range(n + 1) for _, n in groups)):
        cond = [sum(law[s][k] for law, k in zip(laws, ks)) for s in (0, 1)]
        joint = [log_state[s] + cond[s] for s in (0, 1)]
        top = max(joint)
        if top == -math.inf:
            continue
        log_marginal = top + math.log(sum(math.exp(j - top) for j in joint))
        for s in (0, 1):
            if joint[s] > -math.inf:
                terms.append(math.exp(joint[s]) * (joint[s] - log_state[s] - log_marginal))
    return max(math.fsum(terms) / math.log(2), 0.0)


def _mi_from_dict(joint):
    mi = 0.0
    for (state, obs), p in joint.items():
        if p <= 0:
            continue
        p_s = sum(v for (s, _), v in joint.items() if s == state)
        p_o = sum(v for (_, o), v in joint.items() if o == obs)
        mi += p * math.log2(p / (p_s * p_o))
    return max(mi, 0.0)


def test_xi_profile_examples():
    assert xi_profile(PadSubset([[1, 0]])).tolist() == [0.0, 1.0]
    sub = generate_subset(6, 3, np.random.default_rng(0))
    assert np.allclose(xi_profile(sub), 0.5)


def test_closed_subset_masks_perfectly():
    rng = np.random.default_rng(1)
    profile = DetectorProfile.homogeneous(6, 0.1, 0.1)
    for phi in (1, 2, 3, 6):
        sub = generate_subset(6, phi, rng)
        for channel in range(6):
            assert masking_level(sub, 0.3, profile, channel) <= 1e-12


def test_degenerate_subset_leaks_fully():
    # a single known pad hides nothing: the cipher bit is the report bit,
    # a BSC(0.1) view of a fair-coin state
    sub = PadSubset([[0]])
    profile = DetectorProfile([0.1], [0.1])
    mi = masking_level(sub, 0.5, profile, 0)
    h = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert mi == pytest.approx(1 - h(0.1), abs=1e-12)
    assert mi == pytest.approx(0.5310044064107188, abs=1e-12)


def test_perfect_detector_unmasked_leaks_one_bit():
    sub = PadSubset([[1]])
    profile = DetectorProfile([0.0], [0.0])
    assert masking_level(sub, 0.5, profile, 0) == pytest.approx(1.0, abs=1e-12)


def test_masking_level_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    profile = DetectorProfile(rng.uniform(0, 0.4, 5), rng.uniform(0, 0.4, 5))
    occ = rng.uniform(0.1, 0.9, 5)
    for pads in ([[0, 1, 1, 0, 1]],
                 [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1]],
                 [[0, 0, 1, 1, 0], [0, 1, 0, 1, 1], [1, 0, 1, 0, 0]]):
        sub = PadSubset(pads)
        for channel in range(5):
            got = masking_level(sub, occ[channel], profile, channel)
            want = oracle_single_mi(sub, occ[channel], profile, channel)
            assert got == pytest.approx(want, abs=1e-12)


def test_parity_subset_balances_without_closure():
    # even-parity rows: every column is half zeros, yet no complement pairs
    sub = PadSubset([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.allclose(xi_profile(sub), 0.5)
    assert not is_secure_pair_closed(sub)
    profile = DetectorProfile.homogeneous(3, 0.1, 0.1)
    for channel in range(3):
        assert masking_level(sub, 0.3, profile, channel) <= 1e-12


def test_joint_single_sender_reduces_to_masking_level():
    rng = np.random.default_rng(3)
    sub = PadSubset([[0, 1, 0], [1, 1, 1], [0, 0, 1]])
    profile = DetectorProfile(rng.uniform(0, 0.3, 3), rng.uniform(0, 0.3, 3))
    for channel in range(3):
        single = masking_level(sub, 0.4, profile, channel)
        joint = joint_masking_level(sub, 0.4, [profile], channel)
        assert joint == pytest.approx(single, abs=1e-12)


def test_joint_masking_level_frozen_two_bsc():
    # two unmasked senders observing the same fair coin through BSC(0.1):
    # the pair of reports reveals more than either alone
    sub = PadSubset([[0]])
    profile = DetectorProfile([0.1], [0.1])
    joint = joint_masking_level(sub, 0.5, [profile, profile], 0)
    assert joint == pytest.approx(0.7420858585497174, abs=1e-12)
    assert joint > masking_level(sub, 0.5, profile, 0)


def test_joint_masking_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    profiles = [DetectorProfile(rng.uniform(0, 0.3, 2), rng.uniform(0, 0.3, 2))
                for _ in range(3)]
    for pads in ([[0, 1]], [[0, 0], [1, 1]], [[0, 1], [1, 0], [1, 1]]):
        sub = PadSubset(pads)
        for channel in range(2):
            occ = float(rng.uniform(0.2, 0.8))
            got = joint_masking_level(sub, occ, profiles, channel)
            want = oracle_joint_mi(sub, occ, profiles, channel)
            assert got == pytest.approx(want, abs=1e-12)


def test_joint_masking_zero_when_closed():
    rng = np.random.default_rng(5)
    profiles = [DetectorProfile.homogeneous(4, 0.1, 0.05) for _ in range(4)]
    for phi in (1, 2, 4):
        sub = generate_subset(4, phi, rng)
        for channel in range(4):
            assert joint_masking_level(sub, 0.4, profiles, channel) <= 1e-12


def test_joint_masking_monotone_in_senders():
    sub = PadSubset([[0, 1]])
    profile = DetectorProfile.homogeneous(2, 0.15, 0.1)
    vals = [joint_masking_level(sub, 0.5, [profile] * n, 0) for n in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 + 1e-12 for v in vals)


def test_joint_masking_sender_cap():
    # identical senders form one count group of n + 1 outcomes, so 64 of them
    # are exact and carry the monotone trend on
    sub = PadSubset([[0, 1]])
    profile = DetectorProfile.homogeneous(2, 0.15, 0.1)
    eight = joint_masking_level(sub, 0.5, [profile] * 8, 0)
    many = joint_masking_level(sub, 0.5, [profile] * 64, 0)
    assert eight < many <= 1.0 + 1e-12
    # 21 distinct senders need 2**21 outcomes, past the table bound
    assert MAX_JOINT_OUTCOMES == 2 ** 20
    distinct = [DetectorProfile.homogeneous(2, 0.01 * (x + 1), 0.1) for x in range(21)]
    with pytest.raises(ValueError):
        joint_masking_level(sub, 0.5, distinct, 0)
    with pytest.raises(ValueError):
        joint_masking_level(sub, 0.5, [], 0)


@pytest.mark.parametrize("pf, pm, n", [(1e-4, 0.1, 80), (0.03, 0.1, 210), (0.1, 1e-4, 80)])
def test_large_groups_with_vanishing_outcome_laws(pf, pm, n):
    # on a single pad the all-ones count has P(. | idle) = pf**n, subnormal
    # while P(. | busy) is not; the kernel must not divide its way to inf
    sub = PadSubset([[0, 1]])
    profile = DetectorProfile.homogeneous(2, pf, pm)
    other = DetectorProfile.homogeneous(2, 0.2, 0.05)
    # the log-domain reference agrees with enumeration where that is feasible
    assert log_domain_group_mi(sub, 0.3, [(profile, 3), (other, 2)], 1) == pytest.approx(
        oracle_joint_mi(sub, 0.3, [profile] * 3 + [other] * 2, 1), abs=1e-12)
    for occupancy in (0.5, 0.1, 0.97):
        rep = leakage_report(sub, occupancy, [profile] * n + [other] * 2)
        for ch in range(2):
            alone = log_domain_group_mi(sub, occupancy, [(profile, 1)], ch)
            joint = log_domain_group_mi(sub, occupancy, [(profile, n), (other, 2)], ch)
            assert rep.per_channel_mi[0, ch] == pytest.approx(alone, abs=1e-12)
            assert rep.joint_mi[ch] == pytest.approx(joint, abs=1e-12)
            assert joint_masking_level(sub, occupancy, [profile] * n, ch) == pytest.approx(
                log_domain_group_mi(sub, occupancy, [(profile, n)], ch), abs=1e-12)


def _population(rng, length, size):
    """Up to `size` senders: a few repeated detector classes, or all distinct;
    every sender is its own object, so grouping must compare values."""
    classes = [(rng.uniform(0, 0.4, length), rng.uniform(0, 0.4, length))
               for _ in range(int(rng.integers(1, 4)) if rng.random() < 0.6 else size)]
    picks = rng.integers(len(classes), size=size) if len(classes) < size else range(size)
    return [DetectorProfile(classes[c][0].copy(), classes[c][1].copy()) for c in picks]


def _leaky_and_closed_subsets(rng, length):
    closed = generate_subset(length, 3, rng)
    # pads keeping the first pad's block 0: constant bits there, fair coins elsewhere
    keep = (closed.pads[:, :3] == closed.pads[0, :3]).all(axis=1)
    return [closed,
            PadSubset(closed.pads[keep], closed.block_length, closed.num_blocks),
            PadSubset(closed.pads[:1]),
            PadSubset(rng.integers(0, 2, (1, length)))]


@pytest.mark.parametrize("chunk", [leakage.LEAK_CHUNK, 100, 40, 7])
def test_count_kernel_matches_enumeration(monkeypatch, chunk):
    # chunks hold chunk // (2 * outcomes) channels: 100 cuts the senders-alone
    # pass (2 outcomes) into 25-channel pieces across sender boundaries, 40
    # cuts the 10 channels 6 + 4, 4 + 4 + 2 or 3 + 3 + 3 + 1 for one class of
    # 2..5 senders, and 7 leaves one channel per chunk
    monkeypatch.setattr(leakage, "LEAK_CHUNK", chunk)
    rng = np.random.default_rng(8)
    length = 10
    for trial in range(12):
        profiles = _population(rng, length, int(rng.integers(1, 13)))
        occupancy = rng.uniform(0.05, 0.95, length)
        occupancy[trial % length] = float(trial % 2)  # a known state leaks nothing
        for sub in _leaky_and_closed_subsets(rng, length):
            rep = leakage_report(sub, occupancy, profiles)
            for ch in range(length):
                want = reference_joint_mi(sub, occupancy[ch], profiles, ch)
                assert rep.joint_mi[ch] == pytest.approx(want, abs=1e-12)
                for x, prof in enumerate(profiles):
                    alone = reference_joint_mi(sub, occupancy[ch], [prof], ch)
                    assert rep.per_channel_mi[x, ch] == pytest.approx(alone, abs=1e-12)
                if len(profiles) <= 5:
                    want = oracle_joint_mi(sub, occupancy[ch], profiles, ch)
                    assert rep.joint_mi[ch] == pytest.approx(want, abs=1e-12)


def test_count_kernel_values_do_not_depend_on_the_chunk(monkeypatch):
    rng = np.random.default_rng(9)
    profiles = _population(rng, 10, 9)
    occupancy = rng.uniform(0.05, 0.95, 10)
    sub = _leaky_and_closed_subsets(rng, 10)[1]
    whole = leakage_report(sub, occupancy, profiles)
    singles = [joint_masking_level(sub, occupancy[ch], profiles, ch) for ch in range(10)]
    assert whole.joint_mi.tolist() == singles
    monkeypatch.setattr(leakage, "LEAK_CHUNK", 7)
    assert np.array_equal(leakage_report(sub, occupancy, profiles).joint_mi, whole.joint_mi)



def full_kernel(subset, occupancy, profiles):
    """`leakage_report`'s arrays with every channel, fair coin or not, put
    through the kernel."""
    xi = subset.xi
    occ = np.broadcast_to(np.asarray(occupancy, dtype=float), xi.shape)
    report_one = np.array([[p.false_alarm, 1.0 - p.miss] for p in profiles])
    laws = xi * report_one + (1.0 - xi) * (1.0 - report_one)
    alone = np.array([leakage._mutual_information(law[None], (1,), occ) for law in laws])
    return alone, leakage._mutual_information(laws, np.ones(len(profiles), dtype=int), occ)


def test_fair_coin_channels_skip_the_kernel_bit_for_bit(monkeypatch):
    # on a generated subset every channel is a fair coin: the report never
    # enters the kernel, and its zeros are the kernel's, bit for bit
    rng = np.random.default_rng(10)
    sub = generate_subset(12, 5, rng)
    draws = []
    for _ in range(500):
        profiles = [DetectorProfile(rng.uniform(0, 1, 12), rng.uniform(0, 1, 12))
                    for _ in range(int(rng.integers(1, 4)))]
        occupancy = rng.uniform(0, 1, 12) if rng.random() < 0.5 else float(rng.uniform(0, 1))
        draws.append((profiles, occupancy, full_kernel(sub, occupancy, profiles)))

    def kernel(*args):
        raise AssertionError("a fair-coin channel entered the kernel")
    monkeypatch.setattr(leakage, "_mutual_information", kernel)
    for profiles, occupancy, (alone, joint) in draws:
        rep = leakage_report(sub, occupancy, profiles)
        assert rep.per_channel_mi.tobytes() == alone.tobytes()
        assert rep.joint_mi.tobytes() == joint.tobytes()
    # validation still covers every channel and sender
    with pytest.raises(ValueError):
        leakage_report(sub, 1.5, profiles)
    with pytest.raises(ValueError):
        leakage_report(sub, 0.5, profiles + [DetectorProfile.homogeneous(11, 0.1, 0.1)])


def test_closed_subsets_have_no_distinct_sender_cap():
    # 21 distinct senders would need 2**21 count outcomes, but no channel of
    # a generated subset needs the kernel
    sub = generate_subset(10, 3, np.random.default_rng(11))
    distinct = [DetectorProfile.homogeneous(10, 0.01 * (x + 1), 0.1) for x in range(21)]
    rep = leakage_report(sub, 0.3, distinct)
    assert not rep.per_channel_mi.any() and not rep.joint_mi.any()
    assert joint_masking_level(sub, 0.3, distinct, 4) == 0.0
    # one leaky channel brings the cap back
    with pytest.raises(ValueError, match="count outcomes"):
        leakage_report(PadSubset(sub.pads[:2]), 0.3, distinct)


def test_restricted_subset_channels_equal_their_one_channel_kernel_calls():
    # the benchmark's restricted subset: pads keeping the first pad's block
    # 0, so only block 0's channels reach the kernel, beside each other
    rng = np.random.default_rng(12)
    closed = generate_subset(60, 5, rng)
    keep = (closed.pads[:, :5] == closed.pads[0, :5]).all(axis=1)
    sub = PadSubset(closed.pads[keep], closed.block_length, closed.num_blocks)
    occupancy = np.linspace(0.2, 0.8, 60)
    profiles = [DetectorProfile.homogeneous(60, fa, miss)
                for fa, miss, count in ((0.1, 0.1, 5), (0.05, 0.2, 5), (0.2, 0.05, 4))
                for _ in range(count)]
    rep = leakage_report(sub, occupancy, profiles)
    for ch in range(60):
        assert rep.joint_mi[ch] == joint_masking_level(sub, occupancy[ch], profiles, ch), ch
        for x, profile in enumerate(profiles):
            assert rep.per_channel_mi[x, ch] == masking_level(sub, occupancy[ch], profile, ch)
    assert (rep.joint_mi[:5] > 0).all() and not rep.joint_mi[5:].any()

def test_masking_level_validation():
    sub = generate_pairs(2, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        masking_level(sub, 1.5, DetectorProfile.homogeneous(2, 0.1, 0.1), 0)
    with pytest.raises(ValueError):
        masking_level(sub, 0.5, DetectorProfile.homogeneous(3, 0.1, 0.1), 0)
    with pytest.raises(ValueError):
        masking_level(sub, 0.5, DetectorProfile.homogeneous(2, 0.1, 0.1), 2)


def test_leakage_report_contents():
    rng = np.random.default_rng(6)
    sub = PadSubset([[0, 1, 1]])  # bare single pad leaks on every channel
    profiles = [DetectorProfile.homogeneous(3, 0.1, 0.1),
                DetectorProfile.homogeneous(3, 0.2, 0.2)]
    rep = leakage_report(sub, 0.5, profiles)
    assert rep.per_channel_mi.shape == (2, 3)
    assert rep.joint_mi.shape == (3,)
    assert np.all(rep.per_channel_mi > 0.1)
    assert np.all(rep.joint_mi >= rep.per_channel_mi.max(axis=0) - 1e-12)
    assert np.allclose(rep.per_channel_mi[0], 0.5310044064107188)
    rows = rep.rows()
    assert len(rows) == 3
    assert set(rows[0]) == {"channel", "joint_mi", "xi", "sender0_mi", "sender1_mi"}
    assert rows[1]["channel"] == 1

    closed = generate_subset(3, 1, rng)
    quiet = leakage_report(closed, 0.5, profiles)
    assert np.all(quiet.per_channel_mi <= 1e-12)
    assert np.all(quiet.joint_mi <= 1e-12)
    assert np.allclose(quiet.xi, 0.5)


def test_leakage_report_invariants():
    with pytest.raises(ValueError):
        LeakageReport(per_channel_mi=np.full((2, 3), -0.1),
                      joint_mi=np.zeros(3),
                      xi=np.full(3, 0.5))
    with pytest.raises(ValueError):
        LeakageReport(per_channel_mi=np.full((2, 3), 0.5),
                      joint_mi=np.full(3, 0.3),
                      xi=np.full(3, 0.5))
