"""Decision fusion and sensing metrics."""

import itertools
import math

import numpy as np
import pytest

from otpsense.fusion import FusionRule, SensingMetrics, fuse, score


def binomial_tail(n, k, p):
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1))


@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (9, 5)])
def test_majority_threshold(n, k):
    assert FusionRule.majority(n).threshold == k


def test_fuse_worked_example():
    rule = FusionRule(threshold=2, num_reports=3)
    reports = np.array([[1, 0, 0],
                        [1, 1, 0],
                        [0, 1, 0]], dtype=np.uint8)
    assert fuse(reports, rule).tolist() == [1, 1, 0]


def test_fuse_exhaustive_against_direct_count():
    rule = FusionRule.majority(3)
    for rows in itertools.product(itertools.product((0, 1), repeat=2), repeat=3):
        reports = np.array(rows, dtype=np.uint8)
        want = (reports.sum(axis=0) >= 2).astype(np.uint8)
        assert np.array_equal(fuse(reports, rule), want)


def test_fuse_validation():
    rule = FusionRule(threshold=2, num_reports=3)
    with pytest.raises(ValueError):
        fuse(np.zeros((2, 4), dtype=np.uint8), rule)
    with pytest.raises(ValueError):
        FusionRule(threshold=0, num_reports=3)
    with pytest.raises(ValueError):
        FusionRule(threshold=4, num_reports=3)


def test_fuse_stack_matches_per_user_calls():
    rng = np.random.default_rng(4)
    own = rng.integers(0, 2, size=(4, 9), dtype=np.uint8)
    received = rng.integers(0, 2, size=(4, 5, 9), dtype=np.uint8)
    for include_self in (True, False):
        stack = np.concatenate([own[:, None], received], axis=1) if include_self else received
        n = stack.shape[1]
        for rule in (FusionRule.majority(n), FusionRule(2, n), FusionRule(n, n)):
            fused = fuse(stack, rule)
            assert fused.shape == (4, 9)
            assert np.array_equal(fused, np.stack([fuse(rows, rule) for rows in stack]))
    with pytest.raises(ValueError):
        fuse(received, FusionRule.majority(6))  # 5 reports per user, not 6
    with pytest.raises(ValueError):
        fuse(np.full((4, 5, 9), 2), FusionRule.majority(5))


def test_fused_false_alarm_matches_binomial_tail():
    # 5 independent detectors, pf = 0.1, majority 3: tail = 0.00856
    rng = np.random.default_rng(0)
    n, pf, k = 5, 0.1, 3
    trials = 200000
    reports = (rng.random((n, trials)) < pf).astype(np.uint8)
    fused = fuse(reports, FusionRule.majority(n))
    want = binomial_tail(n, k, pf)
    assert want == pytest.approx(0.00856, abs=1e-5)
    got = fused.mean()
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(got - want) < 3 * sigma


def test_fused_miss_matches_binomial_tail():
    rng = np.random.default_rng(1)
    n, pm, k = 5, 0.1, 3
    trials = 200000
    reports = (rng.random((n, trials)) >= pm).astype(np.uint8)
    fused = fuse(reports, FusionRule.majority(n))
    want_miss = binomial_tail(n, n - k + 1, pm)
    got_miss = 1 - fused.mean()
    sigma = math.sqrt(want_miss * (1 - want_miss) / trials)
    assert abs(got_miss - want_miss) < 3 * sigma


def test_fuse_permutation_invariant():
    rng = np.random.default_rng(2)
    reports = (rng.random((7, 40)) < 0.5).astype(np.uint8)
    rule = FusionRule.majority(7)
    base = fuse(reports, rule)
    for _ in range(10):
        perm = rng.permutation(7)
        assert np.array_equal(fuse(reports[perm], rule), base)


def test_fuse_monotone_in_threshold():
    rng = np.random.default_rng(3)
    reports = (rng.random((6, 500)) < 0.4).astype(np.uint8)
    rates = [fuse(reports, FusionRule(k, 6)).mean() for k in range(1, 7)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_score_worked_example():
    truth = np.array([[0, 1, 0, 1],
                      [0, 0, 1, 1]], dtype=np.uint8)
    decided = np.array([[1, 1, 0, 0],
                        [0, 0, 1, 1]], dtype=np.uint8)
    m = score(decided, truth)
    assert m.false_alarms.tolist() == [1, 0, 0, 0]
    assert m.idle_slots.tolist() == [2, 1, 1, 0]
    assert m.misses.tolist() == [0, 0, 0, 1]
    assert m.busy_slots.tolist() == [0, 1, 1, 2]
    assert m.false_positive_rate == pytest.approx(1 / 4)
    assert m.false_negative_rate == pytest.approx(1 / 4)


def test_score_accumulates_over_add():
    rng = np.random.default_rng(4)
    truth = (rng.random((20, 6)) < 0.5).astype(np.uint8)
    decided = (rng.random((20, 6)) < 0.5).astype(np.uint8)
    whole = score(decided, truth)
    part = score(decided[:7], truth[:7]) + score(decided[7:], truth[7:])
    assert np.array_equal(whole.false_alarms, part.false_alarms)
    assert np.array_equal(whole.idle_slots, part.idle_slots)
    assert np.array_equal(whole.misses, part.misses)
    assert np.array_equal(whole.busy_slots, part.busy_slots)


def test_score_zero_denominators():
    truth = np.ones((3, 2), dtype=np.uint8)
    decided = np.ones((3, 2), dtype=np.uint8)
    m = score(decided, truth)
    assert m.false_positive_rate == 0.0
    assert m.false_negative_rate == 0.0


def test_score_validation():
    with pytest.raises(ValueError):
        score(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        score(np.zeros((0, 3), dtype=np.uint8), np.zeros((0, 3), dtype=np.uint8))


def test_metrics_addition_requires_matching_channels():
    a = score(np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 2), dtype=np.uint8))
    b = score(np.zeros((1, 3), dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        a + b
