"""End-to-end acceptance checks for the package's headline claims.

One test per claim, each printing a single PASS/FAIL line with the measured
numbers (run pytest with -s or read captured output).  Monte Carlo checks use
fixed seeds, so reruns are deterministic; statistical tolerances are 3 sigma
for point estimates and 2 sigma for trend comparisons, with the trial counts
stated inline.  Each test also enforces its wall-clock budget.
"""

import itertools
import time

import numpy as np

from otpsense import output
from otpsense.bits import xor
from otpsense.fusion import FusionRule, fuse
from otpsense.leakage import joint_masking_level, masking_level, xi_profile
from otpsense.protocol import (
    PadSubset,
    agreement_probability,
    generate_pairs,
    generate_subset,
    predict_success_rate,
    recover_pad,
    recover_pads,
)
from otpsense.adversary import pes_act
from otpsense.simulate import Scenario, UserSpec, run_experiment, run_simulation
from otpsense.spectrum import DetectorProfile

from oracles import is_secure_pair_closed, pad_posterior


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{name}] {status} {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert in_time, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


def _random_closed_subset(rng: np.random.Generator) -> PadSubset:
    m = int(rng.integers(1, 13))
    if rng.random() < 0.5:
        return generate_subset(m, int(rng.integers(1, m + 1)), rng)
    max_pairs = min(4, 2 ** max(m - 1, 0))
    return generate_pairs(m, int(rng.integers(1, max_pairs + 1)), rng)


def _mc_success_rate(m, eta, trials, rng, pairs=1):
    """Monte Carlo pad recovery rate between two users whose reports agree
    per channel with probability eta.  One pair subset serves every trial,
    drawn as arrays and recovered in one `recover_pads` call; with pairs > 1
    each trial draws a fresh subset and recovers alone."""
    if pairs == 1:
        sub = generate_pairs(m, pairs, rng)
        sender = (rng.random((trials, m)) < 0.5).astype(np.uint8)
        pad = sub.pads[rng.integers(sub.size, size=trials)]
        cipher = np.bitwise_xor(sender, pad)
        own = np.bitwise_xor(sender, (rng.random((trials, m)) >= eta).astype(np.uint8))
        hits = (recover_pads(own, cipher, sub, rng) == pad).all(axis=1)
        return int(hits.sum()) / trials
    hits = 0
    for _ in range(trials):
        sub = generate_pairs(m, pairs, rng)
        sender = (rng.random(m) < 0.5).astype(np.uint8)
        pad = sub.pads[rng.integers(sub.size)]
        cipher = np.bitwise_xor(sender, pad)
        own = np.bitwise_xor(sender, (rng.random(m) >= eta).astype(np.uint8))
        hits += bool(np.array_equal(recover_pad(own, cipher, sub, rng), pad))
    return hits / trials


def test_zero_leakage_for_closed_subsets():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    priors = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst_single = 0.0
    for _ in range(200):
        sub = _random_closed_subset(rng)
        assert is_secure_pair_closed(sub)
        profile = DetectorProfile(rng.uniform(0, 0.5, sub.length),
                                  rng.uniform(0, 0.5, sub.length))
        for p1 in priors:
            for ch in range(sub.length):
                worst_single = max(worst_single, masking_level(sub, p1, profile, ch))
    worst_joint = 0.0
    for _ in range(40):
        sub = _random_closed_subset(rng)
        senders = int(rng.integers(2, 9))
        profiles = [DetectorProfile(rng.uniform(0, 0.5, sub.length),
                                    rng.uniform(0, 0.5, sub.length))
                    for _ in range(senders)]
        for p1 in priors:
            for ch in range(sub.length):
                worst_joint = max(worst_joint, joint_masking_level(sub, p1, profiles, ch))
    ok = worst_single <= 1e-12 and worst_joint <= 1e-12
    _report("zero leakage", ok,
            f"200 closed subsets, max single MI {worst_single:.2e}, "
            f"max joint MI (<=8 senders) {worst_joint:.2e}, tolerance 1e-12",
            time.perf_counter() - t0, 60)


def test_recovery_rate_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    trials = 100_000
    worst_z = 0.0
    for eta in (0.6, 0.82, 0.95):
        for m in (1, 3, 5, 9, 21):
            got = _mc_success_rate(m, eta, trials, rng)
            want = predict_success_rate(m, eta)
            sigma = np.sqrt(max(want * (1 - want), 1e-12) / trials)
            worst_z = max(worst_z, abs(got - want) / sigma)
    # independent cross-check: the closed form equals brute-force enumeration
    enum_err = 0.0
    for m in range(1, 16):
        etas = rng.uniform(0.5, 0.99, m)
        total = sum(
            np.prod(np.where(pattern, etas, 1 - etas))
            for pattern in itertools.product((0, 1), repeat=m)
            if sum(pattern) >= -(-m // 2)
        )
        enum_err = max(enum_err, abs(predict_success_rate(m, etas) - total))
    ok = worst_z <= 3.0 and enum_err <= 1e-12
    _report("recovery rate formula", ok,
            f"MC vs closed form: worst |z| {worst_z:.2f} (3 sigma, 1e5 trials, "
            f"odd M 1..21, eta 0.6/0.82/0.95); enumeration M<=15 err {enum_err:.1e}",
            time.perf_counter() - t0, 300)


def test_recovery_rate_grows_with_band_width():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    eta = float(agreement_probability(DetectorProfile([0.1], [0.1]),
                                      DetectorProfile([0.1], [0.1]), 0.5)[0])
    assert abs(eta - 0.82) < 1e-12
    trials = 10_000
    ms = list(range(1, 30, 2))
    rates = [_mc_success_rate(m, eta, trials, rng) for m in ms]
    sigmas = [np.sqrt(max(r * (1 - r), 1e-9) / trials) for r in rates]
    wide_ok = all(r > 0.99 for m, r in zip(ms, rates) if m >= 21)
    mono_ok = all(
        rates[i + 1] >= rates[i] - 2 * np.hypot(sigmas[i], sigmas[i + 1])
        for i in range(len(ms) - 1)
    )
    ok = wide_ok and mono_ok
    _report("recovery vs band width", ok,
            f"eta 0.82, odd M 1..29 at 1e4 trials: rate(21)={rates[ms.index(21)]:.4f}, "
            f"rate(29)={rates[-1]:.4f}, all M>=21 above 0.99: {wide_ok}, "
            f"monotone within 2 sigma: {mono_ok}",
            time.perf_counter() - t0, 120)


def test_recovery_rate_falls_with_extra_pairs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    trials = 10_000
    eta = 0.55  # noisy detectors keep the comparison away from saturation
    qs = (1, 2, 4, 10)
    rates = [_mc_success_rate(100, eta, trials, rng, pairs=q) for q in qs]
    sigmas = [np.sqrt(max(r * (1 - r), 1e-9) / trials) for r in rates]
    ok = all(
        rates[i + 1] <= rates[i] + 2 * np.hypot(sigmas[i], sigmas[i + 1])
        for i in range(len(qs) - 1)
    )
    detail = ", ".join(f"{q} pairs: {r:.4f}" for q, r in zip(qs, rates))
    _report("recovery vs subset size", ok,
            f"M=100, eta 0.55, 1e4 trials, non-increasing within 2 sigma: {detail}",
            time.perf_counter() - t0, 120)


def test_plaintext_fusion_baseline_and_selfish_degradation():
    t0 = time.perf_counter()
    sc = Scenario(
        num_channels=100,
        users=(UserSpec(false_alarm=0.1, miss=0.1),) * 5,
        pairs=1,
        rounds=20_000,
        seed=11,
        encrypted=False,
        selfish_role="ees",
    )
    rows = run_experiment(sc, [("selfish", [0, 1, 2, 3])])
    fp = [r["false_positive_rate"] for r in rows]
    fn = [r["false_negative_rate"] for r in rows]
    # ~1e6 idle and ~1e6 busy slot-channel pairs per point
    sigma = [np.sqrt(max(p * (1 - p), 1e-9) / 1e6) for p in fp]
    base_ok = abs(fp[0] - 0.00856) <= 0.001
    fp_ok = all(fp[i + 1] >= fp[i] - 2 * np.hypot(sigma[i], sigma[i + 1])
                for i in range(3))
    fn_ok = all(fn[i + 1] >= fn[i] - 2e-3 for i in range(3))
    ok = base_ok and fp_ok and fn_ok
    _report("plaintext fusion baseline", ok,
            f"5 users majority: FP by selfish count {[f'{p:.5f}' for p in fp]} "
            f"(0 selfish target 0.00856 +/- 0.001), FN {[f'{p:.5f}' for p in fn]}, "
            f"both non-decreasing",
            time.perf_counter() - t0, 180)


def test_encrypted_fusion_matches_plaintext_baseline():
    t0 = time.perf_counter()
    base = dict(
        num_channels=30,
        users=(UserSpec(false_alarm=0.1, miss=0.1),) * 5,
        pairs=1,
        rounds=6_000,
        seed=5,
    )
    enc = run_simulation(Scenario(encrypted=True, **base))
    plain = run_simulation(Scenario(encrypted=False, **base))
    # identical seeds really do give the identical channel truth
    assert np.array_equal(enc.metrics.idle_slots, plain.metrics.idle_slots)
    assert np.array_equal(enc.metrics.busy_slots, plain.metrics.busy_slots)
    dfp = abs(enc.metrics.false_positive_rate - plain.metrics.false_positive_rate)
    dfn = abs(enc.metrics.false_negative_rate - plain.metrics.false_negative_rate)
    ok = dfp <= 0.01 and dfn <= 0.01
    _report("encrypted vs plaintext fusion", ok,
            f"M=30, 6000 rounds, same seed: |dFP| {dfp:.5f}, |dFN| {dfn:.5f}, "
            f"tolerance 0.01; pad recovery rate {enc.honest_recovery_rate:.4f}",
            time.perf_counter() - t0, 180)


def test_partial_sensing_attacker_bounded_by_block_guessing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    sub = generate_subset(20, 5, rng)
    assert sub.num_blocks == 4 and sub.size == 16
    mask = np.arange(5)  # the attacker's detector covers only block 0
    trials = 100_000
    hits = 0
    for _ in range(trials):
        truth = (rng.random(20) < 0.5).astype(np.uint8)
        report = np.bitwise_xor(truth, (rng.random(20) < 0.1).astype(np.uint8))
        sensed = np.bitwise_xor(truth, (rng.random(20) < 0.1).astype(np.uint8))
        pad = sub.pads[rng.integers(16)]
        cipher = np.bitwise_xor(report, pad)
        out = pes_act(mask, sensed, cipher, sub, rng, true_pad=pad)
        hits += bool(out.pad_recovered)
    freq = hits / trials
    block_rate = predict_success_rate(5, 0.82)
    bound = 2 ** -3 * block_rate + 0.02
    expected = block_rate / 8  # voted block times three coin-flip blocks
    sigma = np.sqrt(expected * (1 - expected) / trials)
    ok = freq <= bound and abs(freq - expected) <= 3 * sigma
    _report("partial sensing bound", ok,
            f"phi=5 M=20, attacker senses 5 of 20 channels: full-pad rate "
            f"{freq:.4f} <= bound {bound:.4f}, analytic {expected:.4f} within 3 sigma",
            time.perf_counter() - t0, 120)


def test_property_suite_and_determinism():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)

    # pad application is an involution, exhaustively per length
    for m in range(1, 13):
        reports = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.uint8)
        pad = (rng.random(m) < 0.5).astype(np.uint8)
        roundtrip = np.bitwise_xor(np.bitwise_xor(reports, pad), pad)
        assert np.array_equal(roundtrip, reports)

    # every generated subset is complement-closed and bit-balanced; dropping
    # any one member breaks both, while balance alone does not imply closure
    for _ in range(60):
        sub = _random_closed_subset(rng)
        assert is_secure_pair_closed(sub)
        assert np.allclose(xi_profile(sub), 0.5)
    big = generate_subset(6, 3, rng)
    clipped = PadSubset(big.pads[1:], big.block_length, big.num_blocks)
    assert not is_secure_pair_closed(clipped)
    assert not np.isclose(xi_profile(clipped), 0.5).any()
    parity = PadSubset([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.allclose(xi_profile(parity), 0.5) and not is_secure_pair_closed(parity)

    # the likelihood score is maximized by own_report xor ciphertext over the
    # full candidate space, exhaustively per length
    for m in range(1, 11):
        eta = rng.uniform(0.55, 0.95, m)
        own = (rng.random(m) < 0.5).astype(np.uint8)
        cipher = (rng.random(m) < 0.5).astype(np.uint8)
        target = np.bitwise_xor(own, cipher)
        best = max(
            (np.array(c, dtype=np.uint8) for c in itertools.product((0, 1), repeat=m)),
            key=lambda c: pad_posterior(own, cipher, eta, c),
        )
        assert np.array_equal(best, target)

    # fusion cares about counts, not report order
    reports = (rng.random((7, 25)) < 0.5).astype(np.uint8)
    rule = FusionRule.majority(7)
    fused = fuse(reports, rule)
    for _ in range(5):
        assert np.array_equal(fuse(reports[rng.permutation(7)], rule), fused)

    # identical configs render byte-identical experiment outputs
    sc = Scenario(num_channels=12, users=(UserSpec(),) * 3, pairs=1,
                  rounds=40, seed=9)
    sweep = [("pairs", [1, 2])]
    meta = {"tool": "otpsense", "seed": 9}
    text_a = output.render(run_experiment(sc, sweep), meta, "csv")
    text_b = output.render(run_experiment(sc, sweep), meta, "csv")
    assert text_a == text_b
    deterministic = text_a == text_b

    _report("property suite", True,
            f"xor involution M<=12, closure+balance of generated subsets, "
            f"score argmax M<=10, fusion permutation invariance, "
            f"byte-identical reruns: {deterministic}",
            time.perf_counter() - t0, 120)
