"""Scenario plumbing and round engine behaviour."""

import copy
import dataclasses
import json
import mmap
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from otpsense import adversary, fusion, leakage, protocol, simulate, spectrum
from otpsense.fusion import FusionRule, fuse
from otpsense.simulate import (
    Scenario,
    UserSpec,
    apply_sweep,
    build_subset,
    channel_model,
    config_hash,
    detector_profiles,
    run_experiment,
    run_simulation,
    scenario_from_dict,
    scenario_to_dict,
    sweep_from_dict,
    _designated_recipient,
    _spawn_streams,
    _State,
)
from otpsense.spectrum import stationary_occupancy
from test_golden import DIGESTS, SCENARIOS, summary_digest


def small_scenario(**overrides):
    base = dict(num_channels=12, users=(UserSpec(),) * 3, pairs=1, rounds=8, seed=7)
    base.update(overrides)
    return Scenario(**base)


# ---- scenario validation ------------------------------------------------


def test_scenario_defaults_are_valid():
    sc = Scenario()
    assert sc.num_channels == 100 and len(sc.users) == 5 and sc.encrypted


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(users=())
    with pytest.raises(ValueError):
        Scenario(users=(UserSpec(role="ees"),))
    with pytest.raises(ValueError):
        small_scenario(rounds=0)
    with pytest.raises(ValueError):
        small_scenario(num_channels=0)
    for bad in (0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="omega"):
            small_scenario(omega=bad)
    with pytest.raises(ValueError):
        small_scenario(selfish_role="honest")
    with pytest.raises(ValueError):
        small_scenario(pairs=None, phi=None, p_target=None)
    with pytest.raises(ValueError):
        small_scenario(fusion_threshold=0)
    # three users each fuse their own report and two received ones
    assert small_scenario(fusion_threshold=3).fusion_threshold == 3
    with pytest.raises(ValueError, match="fusion_threshold"):
        small_scenario(fusion_threshold=4)
    with pytest.raises(ValueError, match="fusion_threshold"):
        small_scenario(fusion_threshold=3, include_self=False)
    with pytest.raises(ValueError):
        small_scenario(users=(UserSpec(),), include_self=False)
    with pytest.raises(ValueError):
        small_scenario(users=(UserSpec(), UserSpec(role="pes", sensed_channels=99)))
    with pytest.raises(ValueError):
        UserSpec(role="freeloader")
    with pytest.raises(ValueError):
        UserSpec(sensed_channels=-1)


def test_subset_precedence():
    rng = np.random.default_rng(0)
    by_pairs = build_subset(small_scenario(pairs=3), rng)
    assert by_pairs.size == 6 and by_pairs.num_blocks == 1

    by_phi = build_subset(small_scenario(phi=3), rng)
    assert by_phi.block_length == 3 and by_phi.num_blocks == 4

    # p_target wins over both; eta = 0.82 for the default detectors on a
    # balanced channel, so 0.95 needs blocks of 5
    sized = build_subset(small_scenario(phi=3, p_target=0.95), rng)
    assert sized.block_length == 5

    widened = build_subset(small_scenario(phi=3, omega=2.0), rng)
    assert widened.block_length == 6

    clamped = build_subset(small_scenario(phi=10, omega=5.0), rng)
    assert clamped.block_length == 12  # cannot exceed the band


def test_channel_model_and_profiles_shapes():
    sc = small_scenario(users=(UserSpec(false_alarm=0.2), UserSpec(miss=(0.1,) * 12), UserSpec()))
    model = channel_model(sc)
    assert model.num_channels == 12
    profs = detector_profiles(sc)
    assert len(profs) == 3
    assert np.allclose(profs[0].false_alarm, 0.2)
    assert np.allclose(profs[1].miss, 0.1)


def test_equal_user_specs_share_one_read_only_profile():
    noisy = UserSpec(false_alarm=0.2)
    sc = small_scenario(users=(UserSpec(), noisy, UserSpec(), UserSpec(role="ees"), noisy))
    profs = detector_profiles(sc)
    assert profs[0] is profs[2] and profs[1] is profs[4]
    assert len({id(p) for p in profs}) == 3  # honest, noisy, and the ees spec
    for p in profs:
        for rates in (p.false_alarm, p.miss):
            with pytest.raises(ValueError):
                rates[0] = 0.5


def test_equal_specs_share_one_profile_across_scenarios():
    noisy = UserSpec(false_alarm=0.2)
    one = small_scenario(users=(UserSpec(), noisy, UserSpec()))
    other = small_scenario(users=(UserSpec(false_alarm=0.2), UserSpec()), seed=3, rounds=2)
    first, second = detector_profiles(one), detector_profiles(other)
    assert first[1] is second[0] and first[0] is second[1]
    wider = detector_profiles(small_scenario(users=(noisy,) * 2, num_channels=13))
    assert wider[0] is not first[1] and wider[0].num_channels == 13


def test_list_tuple_and_array_rates_run_alike():
    rates = [0.1, 0.2, 0.1, 0.1]
    rate_on = [50.0, 40.0, 50.0, 60.0]
    summaries, configs = [], []
    for kind in (list, tuple, np.array):
        spec = UserSpec(false_alarm=kind(rates), miss=kind(rates))
        assert spec.false_alarm == spec.miss == tuple(rates)
        sc = Scenario(users=(spec,) * 3, rate_on=kind(rate_on), num_channels=4, rounds=20, seed=5)
        assert sc.rate_on == tuple(rate_on)
        summaries.append(run_simulation(sc))
        configs.append(json.dumps(scenario_to_dict(sc)))
    assert same(summaries[0], summaries[1]) and same(summaries[0], summaries[2])
    assert configs[0] == configs[1] == configs[2]
    # a numpy scalar or 0-d array is stored as the plain float
    plain = Scenario(users=(UserSpec(false_alarm=0.2),) * 3, num_channels=4, rounds=20, seed=5)
    for scalar in (np.array, np.float64):
        sc = Scenario(users=(UserSpec(false_alarm=scalar(0.2)),) * 3, rate_on=scalar(50.0),
                      num_channels=4, rounds=20, seed=5)
        assert type(sc.users[0].false_alarm) is float and type(sc.rate_on) is float
        assert same(run_simulation(sc), run_simulation(plain))
        assert json.dumps(scenario_to_dict(sc)) == json.dumps(scenario_to_dict(plain))
    with pytest.raises(ValueError, match="false_alarm"):
        UserSpec(false_alarm=[[0.1, 0.2]])


# ---- round engine -------------------------------------------------------


def run_one_round(sc):
    """The round engine on a chunk of one round, from a fresh start."""
    return simulate._run_rounds(*start(sc), 1)


def test_round_shapes_and_full_mesh():
    sc = small_scenario()
    rr = run_one_round(sc)
    n, m = 3, 12
    assert rr.truth.shape == (1, m)
    assert rr.reports.shape == rr.ciphertexts.shape == rr.pads.shape == (1, n, m)
    assert rr.recovery_success.shape == (1, n, n)
    assert rr.decisions.shape == (1, n, m)  # every user is honest


def test_round_ciphertext_is_report_xor_pad():
    rr = run_one_round(small_scenario())
    assert np.array_equal(rr.ciphertexts, np.bitwise_xor(rr.reports, rr.pads))


def test_round_plaintext_shares_reports():
    rr = run_one_round(small_scenario(encrypted=False))
    assert rr.pads is None and rr.recovery_success is None
    assert np.array_equal(rr.ciphertexts, rr.reports)


def test_round_fuses_each_honest_user_like_a_per_user_call():
    users = (UserSpec(), UserSpec(role="ees"), UserSpec(false_alarm=0.3), UserSpec())
    for include_self in (True, False):
        for threshold in (None, 2):
            sc = small_scenario(users=users, encrypted=False, include_self=include_self,
                                fusion_threshold=threshold)
            rr = run_one_round(sc)
            assert rr.decisions.shape == (1, 3, 12)
            for r, decision in zip((0, 2, 3), rr.decisions[0]):
                rows = [rr.ciphertexts[0, s] for s in range(4) if s != r]
                if include_self:
                    rows = [rr.reports[0, r]] + rows
                rule = (FusionRule(threshold, len(rows)) if threshold is not None
                        else FusionRule.majority(len(rows)))
                assert np.array_equal(decision, fuse(np.stack(rows), rule))


def test_recovery_matrix_excludes_self():
    recovery = run_one_round(small_scenario()).recovery_success[0]
    assert np.isnan(np.diag(recovery)).all()
    off_diag = recovery[~np.eye(3, dtype=bool)]
    assert not np.isnan(off_diag).any()  # every honest pad is attributable
    assert set(np.unique(off_diag)) <= {0.0, 1.0}


def test_ees_copies_an_honest_ciphertext_and_inherits_pad():
    sc = small_scenario(users=(UserSpec(), UserSpec(), UserSpec(role="ees")))
    rr = run_one_round(sc)
    ciphertexts, pads, attacks = rr.ciphertexts[0], rr.pads[0], rr.attacks
    assert any(np.array_equal(ciphertexts[2], ciphertexts[j]) for j in (0, 1))
    src = 0 if np.array_equal(ciphertexts[2], ciphertexts[0]) else 1
    assert np.array_equal(pads[2], pads[src])
    assert attacks[2].rounds.tolist() == [True]
    assert attacks[2].outcome.channels_sensed == 0


def test_pes_round_outcome():
    sc = small_scenario(
        users=(UserSpec(), UserSpec(), UserSpec(role="pes", sensed_channels=4)),
        phi=4, pairs=None,
    )
    rr = run_one_round(sc)
    assert rr.attacks[2].rounds.tolist() == [True]
    assert rr.attacks[2].outcome.channels_sensed == 4
    # the published report carries the honestly sensed prefix
    assert rr.reports[0, 2].shape == (12,)


def test_history_user_attacks_on_odd_rounds_only():
    sc = small_scenario(
        users=(UserSpec(), UserSpec(), UserSpec(role="history")),
        rounds=9, num_channels=15,
    )
    summary = run_simulation(sc)
    assert summary.attacker_attempts == {2: 4}  # rounds 1, 3, 5, 7


def test_run_simulation_deterministic():
    sc = small_scenario(rounds=12)
    a = run_simulation(sc)
    b = run_simulation(sc)
    assert a.metrics.false_positive_rate == b.metrics.false_positive_rate
    assert a.metrics.false_negative_rate == b.metrics.false_negative_rate
    assert a.honest_recovery_rate == b.honest_recovery_rate
    assert a.attacker_success == b.attacker_success
    assert np.array_equal(a.ees_contingency, b.ees_contingency)
    c = run_simulation(small_scenario(rounds=12, seed=8))
    assert not np.array_equal(
        a.metrics.false_alarms + a.metrics.misses,
        c.metrics.false_alarms + c.metrics.misses,
    )


def test_encrypted_and_plaintext_see_identical_truth_and_noise():
    enc = run_simulation(small_scenario(rounds=30))
    plain = run_simulation(small_scenario(rounds=30, encrypted=False))
    assert np.array_equal(enc.metrics.idle_slots, plain.metrics.idle_slots)
    assert np.array_equal(enc.metrics.busy_slots, plain.metrics.busy_slots)
    assert plain.honest_recovery_rate is None
    assert plain.mean_masking_level is None
    assert enc.mean_masking_level == 0.0


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 64),
    construction=st.sampled_from(["pairs", "phi", "p_target"]),
    pairs=st.integers(1, 8),
    phi=st.integers(1, 64),
    p_target=st.floats(0.5, 0.999),
    omega=st.floats(1.0, 4.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_every_built_subset_masks_every_channel(m, construction, pairs, phi, p_target, omega,
                                                seed):
    # every pad bit of every subset a scenario builds is a fair coin, which
    # is why an encrypted run reports a mean masking level of exactly 0.0
    subset = {"pairs": dict(pairs=min(pairs, 2 ** (m - 1))),
              "phi": dict(pairs=None, phi=min(phi, m)),
              "p_target": dict(pairs=None, p_target=p_target)}[construction]
    sc = Scenario(num_channels=m, omega=omega, seed=seed, **subset)
    built = build_subset(sc, simulate._subset_stream(seed))
    assert built.xi.dtype == float and (built.xi == 0.5).all()


def test_simulation_never_lists_a_described_subset(monkeypatch):
    # 100 channels at phi=5 is 20 blocks, 2**20 pads: every role draws and
    # votes on the subset's description alone
    built, generate = [], protocol.generate_subset

    def spy(*args, **kwargs):
        built.append(generate(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(protocol, "generate_subset", spy)
    users = (UserSpec(),) * 3 + (UserSpec(role="pes", sensed_channels=40), UserSpec(role="ees"),
                                 UserSpec(role="history"))
    summary = run_simulation(small_scenario(num_channels=100, users=users, phi=5, pairs=None,
                                            rounds=4))
    assert len(built) == 1 and built[0].num_blocks == 20
    assert "pads" not in vars(built[0])
    assert summary.honest_recovery_rate is not None and summary.mean_masking_level == 0.0
    assert sorted(summary.attacker_attempts) == [3, 4, 5]


def test_ees_success_rate_matches_uniform_guess():
    # subset of 4 pads -> decode succeeds 1/4 of the time
    sc = small_scenario(
        users=(UserSpec(), UserSpec(), UserSpec(role="ees")),
        phi=6, pairs=None, rounds=2000, num_channels=12,
    )
    summary = run_simulation(sc)
    rate = summary.attacker_success[2]
    assert abs(rate - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 2000)
    assert summary.attacker_attempts[2] == 2000
    assert summary.ees_contingency.sum() == 2000 * 12


def test_honest_recovery_rate_high_on_wide_blocks():
    sc = small_scenario(num_channels=21, phi=21, pairs=None, rounds=60)
    summary = run_simulation(sc)
    assert summary.honest_recovery_rate > 0.98
    assert summary.target_recovery_rate > 0.95
    assert summary.row()["honest_recovery_rate"] == summary.honest_recovery_rate


def test_designated_recipient_is_first_honest():
    sc = small_scenario(users=(UserSpec(role="ees"), UserSpec(), UserSpec()))
    assert _designated_recipient(sc) == 1


# ---- sweeps -------------------------------------------------------------


def test_apply_sweep_fields():
    sc = small_scenario()
    assert apply_sweep(sc, {"channels": 30}).num_channels == 30
    assert apply_sweep(sc, {"rounds": 5}).rounds == 5
    assert apply_sweep(sc, {"slot_period": 0.5}).slot_period == 0.5
    swept = apply_sweep(sc, {"phi": 3})
    assert swept.phi == 3 and swept.pairs is None
    swept = apply_sweep(sc, {"pairs": 4})
    assert swept.pairs == 4 and swept.phi is None
    assert apply_sweep(sc, {"phi": np.int64(3)}).phi == 3
    for name, value in (("phi", 2.5), ("channels", float("inf")), ("rounds", 5.0), ("selfish", 1.5)):
        with pytest.raises(ValueError, match=name):
            apply_sweep(sc, {name: value})


def test_apply_sweep_selfish():
    sc = small_scenario(selfish_role="history")
    swept = apply_sweep(sc, {"selfish": 2})
    assert [u.role for u in swept.users] == ["honest", "history", "history"]
    with pytest.raises(ValueError):
        apply_sweep(sc, {"selfish": 3})  # nobody honest left
    with pytest.raises(ValueError, match="selfish"):
        apply_sweep(sc, {"selfish": -1})  # would run none but report -1
    with pytest.raises(ValueError):
        apply_sweep(swept, {"selfish": 1})  # base must be all honest
    with pytest.raises(ValueError):
        apply_sweep(sc, {"bandwidth": 1})


def test_run_experiment_rows_and_worker_equivalence():
    sc = small_scenario(rounds=6)
    sweep = [("pairs", [1, 2]), ("rounds", [4, 6])]
    rows = run_experiment(sc, sweep)
    assert len(rows) == 4
    assert [(r["pairs"], r["rounds"]) for r in rows] == [(1, 4), (1, 6), (2, 4), (2, 6)]
    assert [r["point"] for r in rows] == [0, 1, 2, 3]
    parallel = run_experiment(sc, sweep, workers=2)
    assert parallel == rows


def test_run_experiment_validation():
    sc = small_scenario()
    with pytest.raises(ValueError):
        run_experiment(sc, [])
    with pytest.raises(ValueError):
        run_experiment(sc, [("pairs", [1]), ("phi", [2]), ("rounds", [3])])
    with pytest.raises(ValueError):
        run_experiment(sc, [("pairs", [1]), ("pairs", [2])])
    with pytest.raises(ValueError):
        run_experiment(sc, [("bandwidth", [1])])
    with pytest.raises(ValueError):
        run_experiment(sc, [("pairs", [])])
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(sc, [("pairs", [1])], workers=workers)


def test_run_experiment_rejects_a_bad_point_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr(simulate, "run_simulation", lambda sc: ran.append(sc))
    cases = [
        (small_scenario(), [("selfish", [0, 1, 3])], "selfish"),
        # per-channel rates that fit only the first point's band
        (small_scenario(rate_on=(50.0,) * 12), [("channels", [12, 6])], "rate_on"),
        (small_scenario(), [("phi", [3, 0])], "block_length"),
        (small_scenario(), [("pairs", [1, 5000])], "pairs"),
        # p_target against an honest pair that agrees less often than a coin
        (small_scenario(p_target=0.9, users=(UserSpec(), UserSpec(false_alarm=0.6, miss=0.6))),
         [("rounds", [4, 8])], "eta"),
    ]
    for sc, sweep, word in cases:
        with pytest.raises(ValueError, match=word):
            run_experiment(sc, sweep)
    assert ran == []


def test_run_experiment_clamps_workers_to_points(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    sc = small_scenario(rounds=4)
    sweep = [("pairs", [1, 2])]
    assert run_experiment(sc, sweep, workers=8) == run_experiment(sc, sweep, workers=1)
    # two points: one forked worker, and the caller runs points too
    assert len(forks) == 1


def test_run_experiment_runs_serially_without_fork(monkeypatch):
    sc = small_scenario(rounds=4)
    sweep = [("pairs", [1, 2]), ("rounds", [4, 6])]
    rows = run_experiment(sc, sweep, workers=2)
    monkeypatch.delattr(os, "fork")
    assert run_experiment(sc, sweep, workers=2) == rows


def run_fake_points(monkeypatch, point, n):
    """run_experiment on two workers over n small points, each run by `point`."""
    monkeypatch.setattr(simulate, "_run_point", point)
    return run_experiment(small_scenario(rounds=4), [("rounds", [4] * n)], workers=2)


def test_workers_claim_points_one_at_a_time(monkeypatch):
    def point(task):
        if task[1]["point"] == 0:
            time.sleep(0.5)
        return {**task[1], "pid": os.getpid()}

    rows = run_fake_points(monkeypatch, point, 6)
    assert [r["point"] for r in rows] == list(range(6))
    # while one process sleeps on point 0 the other takes every other point;
    # a fixed split would leave points 2 and 4 queued behind point 0
    assert all(r["pid"] != rows[0]["pid"] for r in rows[1:])


def test_six_processes_claim_every_index_exactly_once():
    # the processes do nothing but claim, so they contend for the counter on
    # every call; a lost update would hand some index out twice
    n = 20000
    claims = simulate._Claims()
    runs = mmap.mmap(-1, n)

    def claim_all():
        while (i := claims.next()) < n:
            runs[i] += 1

    pids = []
    for _ in range(5):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                claim_all()
                status = 0
            finally:
                os._exit(status)
        pids.append(pid)
    try:
        claim_all()
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        claims.close()
    assert statuses == [0] * 5
    assert runs[:] == b"\1" * n


@pytest.mark.parametrize("where,error", [
    ("child", ValueError("boom")), ("caller", ValueError("boom")),
    ("caller", KeyboardInterrupt("boom")),
])
def test_a_point_that_raises_fails_the_run_and_leaves_no_child(monkeypatch, where, error):
    caller = os.getpid()

    def point(task):
        if (os.getpid() == caller) == (where == "caller"):
            raise error
        time.sleep(0.1)
        return task[1]

    with pytest.raises(type(error), match="^boom$") as raised:
        run_fake_points(monkeypatch, point, 6)
    if where == "child":
        # the worker's own traceback rides along as the cause
        assert "raise error" in str(raised.value.__cause__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_exception_that_will_not_unpickle_arrives_as_its_type_and_message(monkeypatch):
    class Unsendable(Exception):  # a local class does not pickle
        pass

    caller = os.getpid()

    def point(task):
        if os.getpid() != caller:
            raise Unsendable("boom")
        time.sleep(0.1)
        return task[1]

    with pytest.raises(RuntimeError, match="^Unsendable: boom$"):
        run_fake_points(monkeypatch, point, 4)


def test_a_worker_that_dies_without_its_rows_names_its_exit_status(monkeypatch):
    caller = os.getpid()

    def point(task):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.1)
        return task[1]

    with pytest.raises(RuntimeError, match="exited with status 3"):
        run_fake_points(monkeypatch, point, 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_whose_caller_is_killed_claims_no_more_points(tmp_path):
    log = tmp_path / "points"
    script = (
        "import os, time\n"
        "from otpsense import simulate\n"
        "def point(task):\n"
        f"    with open({str(log)!r}, 'a') as f:\n"
        "        f.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(0.2)\n"
        "    return task[1]\n"
        "simulate._run_point = point\n"
        "sc = simulate.Scenario(num_channels=12, users=(simulate.UserSpec(),) * 3, rounds=4)\n"
        "simulate.run_experiment(sc, [('rounds', [4] * 50)], workers=2)\n"
    )
    caller = subprocess.Popen([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def runs():
        return log.read_text().split() if log.exists() else []

    deadline = time.monotonic() + 30
    while len(set(runs())) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    caller.kill()
    caller.wait()
    workers = set(runs()) - {str(caller.pid)}
    assert len(workers) == 1
    worker = int(workers.pop())
    try:
        before = runs().count(str(worker))
        time.sleep(1.0)
        # it ends the point it holds, and five more would fit in the wait
        assert runs().count(str(worker)) <= before + 1
    finally:
        try:
            os.kill(worker, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_importing_the_package_leaves_the_process_pool_unloaded(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"num_channels": 12, "rounds": 4, "users": [{}] * 3,
                                  "sweep": [{"param": "pairs", "values": [1, 2, 3]}]}))
    code = (
        "import sys, otpsense.cli\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "assert otpsense.cli.main(['experiment', '--config', sys.argv[1], '--workers', '2',\n"
        "                          '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "rows.csv")],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split("\n") == ["False", "[]", ""]


def test_point_seeds_differ_across_points():
    sc = small_scenario(rounds=4)
    rows = run_experiment(sc, [("rounds", [4, 4])])
    assert rows[0]["seed"] != rows[1]["seed"]


# ---- config serialization ----------------------------------------------


def test_scenario_dict_roundtrip():
    sc = small_scenario(
        users=(UserSpec(false_alarm=0.2), UserSpec(role="pes", sensed_channels=3),
               UserSpec(miss=(0.05,) * 12)),
        rate_on=(40.0,) * 12,
        phi=4, pairs=None,
    )
    d = scenario_to_dict(sc)
    back = scenario_from_dict(d)
    assert back == sc
    assert config_hash(d) == config_hash(dict(reversed(list(d.items()))))


@pytest.mark.parametrize("rates,detector", [
    ([50, 40], [0, 0]), ([50.0, 40.0], [0.1, 0.2]), ([50, 40.5], [0, 0.2]),
])
def test_code_and_json_rate_lists_give_one_scenario_and_hash(rates, detector):
    in_code = Scenario(rate_on=rates, rate_off=rates[::-1], num_channels=2,
                       users=(UserSpec(false_alarm=detector, miss=detector),) * 2)
    from_json = scenario_from_dict(json.loads(json.dumps({
        "rate_on": rates, "rate_off": rates[::-1], "num_channels": 2,
        "users": [{"false_alarm": detector, "miss": detector}] * 2,
    })))
    assert from_json == in_code
    assert type(from_json.rate_on[0]) is float and type(from_json.users[0].miss[0]) is float
    assert (config_hash(scenario_to_dict(from_json))
            == config_hash(scenario_to_dict(in_code)))


def test_scenario_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        scenario_from_dict({"bandwidth": 3})
    with pytest.raises(ValueError):
        scenario_from_dict({"users": [{"role": "honest", "speed": 1}]})
    with pytest.raises(ValueError):
        scenario_from_dict([1, 2])
    # sweep/workers keys ride along without complaint
    sc = scenario_from_dict({"rounds": 3, "sweep": [], "workers": 4})
    assert sc.rounds == 3


def test_scenario_from_dict_rejects_wrong_json_types():
    for bad in (
        {"rounds": "10"},
        {"rounds": True},
        {"rounds": 2.5},
        {"encrypted": 1},
        {"pairs": "1"},
        {"rate_on": ["fast"]},
        {"selfish_role": None},
        {"users": {"role": "honest"}},
        {"users": [{"role": "honest", "sensed_channels": 1.5}]},
        {"users": [{"role": 3}]},
        {"workers": "2"},
    ):
        with pytest.raises(ValueError, match="must be"):
            scenario_from_dict(bad)
    # JSON integers are numbers, and null clears an optional field
    sc = scenario_from_dict({"slot_period": 1, "pairs": None, "phi": 3, "rate_on": [5, 6.5]})
    assert sc.slot_period == 1 and sc.phi == 3 and sc.rate_on == (5, 6.5)


def build_before_rounds(config: dict) -> None:
    """What `run_simulation` builds before its first round, short of the subset."""
    sc = scenario_from_dict(config)
    simulate.channel_model(sc)
    simulate.detector_profiles(sc)


def test_non_finite_numbers_are_rejected_before_any_round():
    nan, inf = float("nan"), float("inf")
    for bad in (
        {"rate_on": nan},
        {"rate_off": [50.0] * 99 + [inf]},
        {"slot_period": inf},
        {"omega": inf},
        {"omega": nan},
        {"p_target": nan},
        {"ees_modification": nan},
        {"users": [{"role": "honest", "false_alarm": nan}]},
        {"users": [{"role": "honest", "miss": [0.1] * 99 + [-inf]}]},
    ):
        with pytest.raises(ValueError):
            build_before_rounds(bad)


def _non_finite(v) -> bool:
    if isinstance(v, float):
        return not np.isfinite(v)
    if isinstance(v, dict):
        return any(_non_finite(x) for x in v.values())
    return isinstance(v, list) and any(_non_finite(x) for x in v)


_NUMBER_JSON = st.floats(-2, 400) | st.sampled_from([float("nan"), float("inf"), float("-inf")])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 400) | _NUMBER_JSON | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_USER_JSON = st.dictionaries(
    st.sampled_from(["role", "false_alarm", "miss", "sensed_channels"]),
    st.sampled_from(["honest", "pes"]) | _JSON,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(simulate._CONFIG_TYPES) + ["sweep", "bogus"]),
    _JSON | st.lists(_USER_JSON, max_size=3),
    max_size=6,
))
def test_scenario_from_dict_fuzz_raises_only_value_errors(config):
    # a config holding NaN or infinity anywhere but "sweep" is rejected
    try:
        build_before_rounds(config)
    except ValueError:
        return
    assert not _non_finite({k: v for k, v in config.items() if k != "sweep"})


def test_sweep_from_dict_parsing():
    assert sweep_from_dict({"sweep": {"param": "pairs", "values": [1, 2]}}) == [
        ("pairs", [1, 2])
    ]
    assert sweep_from_dict({"sweep": [{"param": "phi", "values": [3]}]}) == [("phi", [3])]
    with pytest.raises(ValueError):
        sweep_from_dict({})
    with pytest.raises(ValueError):
        sweep_from_dict({"sweep": [{"param": "phi"}]})
    for bad in ("phi", [{"param": ["phi"], "values": [3]}],
                [{"param": "phi", "values": 3}], [{"param": "phi", "values": [None]}]):
        with pytest.raises(ValueError):
            sweep_from_dict({"sweep": bad})


def test_summary_row_keys():
    row = run_simulation(small_scenario(rounds=4)).row()
    assert set(row) == {
        "rounds", "seed", "false_positive_rate", "false_negative_rate",
        "honest_recovery_rate", "target_recovery_rate", "mean_masking_level",
        "attacker_success_rate",
    }
    assert row["attacker_success_rate"] is None  # nobody attacked


# ---- reference engine ---------------------------------------------------
#
# The slot-by-slot engine the chunked one replaced: every stream drawn one
# round at a time, one recovery and one fusion call per round, and each
# attacker's one-round calls on its own streams, given the ground-truth pad.
# The chunked engine must reproduce it byte for byte, for every role.


@dataclasses.dataclass(frozen=True, eq=False)
class ReferenceRound:
    """What one reference round produced (arrays indexed by user)."""

    truth: np.ndarray
    reports: np.ndarray
    ciphertexts: np.ndarray
    pads: np.ndarray | None
    recovery_success: np.ndarray | None  # (N, N) float, NaN where not attempted
    decisions: dict                      # honest user index -> fused vector
    attacks: dict


def reference_round(sc, subset, model, profiles, state, streams):
    n = len(sc.users)
    m = sc.num_channels
    roles = np.array([u.role for u in sc.users])
    honest = np.flatnonzero(roles == "honest")
    truth = spectrum.sample_states(model, streams.channel, previous=state.truth)
    # one (user, channel) block of uniforms per round, each user's row
    # compared with its own miss/false-alarm table
    u = streams.sensing.random((n, m))
    sensed = np.array([truth ^ (u[i] < np.where(truth == 1, profiles[i].miss,
                                                profiles[i].false_alarm))
                       for i in range(n)], dtype=np.uint8)

    reports = np.zeros((n, m), dtype=np.uint8)
    ciphertexts = np.zeros((n, m), dtype=np.uint8)
    pads = np.zeros((n, m), dtype=np.uint8) if sc.encrypted else None
    pad_known = np.zeros(n, dtype=bool)
    attacks = {}
    target = _designated_recipient(sc)

    def publish(who, report):
        reports[who] = report
        pad_known[who] = True
        if sc.encrypted:
            ciphertexts[who], pads[who] = protocol.encrypt_report(report, subset, streams.pads)
        else:
            ciphertexts[who] = report

    history = roles == "history"
    stale = state.sensed if state.round_index % 2 == 1 else None
    own = np.flatnonzero((roles == "honest") | history)
    published = sensed if stale is None else np.where(history[:, None], stale, sensed)
    publish(own, published[own])

    copy_previous = sc.ees_copy_previous_round and state.ciphertexts is not None
    observable = state.ciphertexts if copy_previous else ciphertexts[honest]

    for i, u in enumerate(sc.users):
        if u.role == "ees":
            forged = adversary.ees_act(observable, streams.attack[i, "pick"], sc.ees_modification,
                                       streams.attack[i, "flips"])
            ciphertexts[i] = forged
            if not copy_previous and sc.ees_modification == 0.0:
                src = honest[(observable == forged).all(axis=1).argmax()]
                reports[i] = reports[src]
                if sc.encrypted:
                    pads[i] = pads[src]
                    pad_known[i] = True
            elif not sc.encrypted:
                reports[i] = forged
        elif u.role == "pes":
            mask = np.arange(u.sensed_channels)
            partial = np.zeros(m, dtype=np.uint8)
            partial[mask] = sensed[i][mask]
            if sc.encrypted:
                outcome = adversary.pes_act(mask, partial, ciphertexts[target], subset,
                                            streams.attack[i, "ties"], true_pad=pads[target])
                attacks[i] = outcome
                merged = outcome.guessed_states.copy()
            else:
                merged = reports[target].copy()
            merged[mask] = sensed[i][mask]
            publish(i, merged)

    if sc.encrypted:
        for i, u in enumerate(sc.users):
            if u.role == "ees":
                attacks[i] = adversary.ees_decode_attempt(
                    ciphertexts[target], subset, streams.attack[i, "decode"], true_pad=pads[target])
            elif u.role == "history" and stale is not None:
                attacks[i] = adversary.history_act(stale[i], ciphertexts[target], subset,
                                                   streams.attack[i, "ties"], true_pad=pads[target])

    pair_h, senders = np.nonzero(honest[:, None] != np.arange(n))
    receivers = honest[pair_h]
    received = ciphertexts[senders]
    recovery = None
    if sc.encrypted:
        got = protocol.recover_pads(reports[receivers], received, subset, streams.ties)
        received ^= got
        known = pad_known[senders]
        recovery = np.full((n, n), np.nan)
        recovery[receivers[known], senders[known]] = (got[known] == pads[senders[known]]).all(axis=1)

    plain = received.reshape(len(honest), n - 1, m)
    if sc.include_self:
        plain = np.concatenate([reports[honest, None], plain], axis=1)
    rule = (FusionRule.majority(plain.shape[1]) if sc.fusion_threshold is None
            else FusionRule(sc.fusion_threshold, plain.shape[1]))
    decisions = dict(zip(honest.tolist(), fuse(plain, rule)))

    state.truth = truth
    state.sensed = sensed
    state.ciphertexts = ciphertexts[honest]
    state.round_index += 1
    return ReferenceRound(truth=truth, reports=reports, ciphertexts=ciphertexts, pads=pads,
                          recovery_success=recovery, decisions=decisions, attacks=attacks)


def start(sc):
    streams = _spawn_streams(sc.seed, sc.users)
    subset = build_subset(sc, streams.subset) if sc.encrypted else None
    return (sc, subset, channel_model(sc), detector_profiles(sc), _State(), streams)


def reference_rounds(sc):
    args = start(sc)
    return [reference_round(*args) for _ in range(sc.rounds)]


def reference_simulation(sc):
    _, subset, model, profiles, _, _ = start(sc)
    target = _designated_recipient(sc)
    rounds = reference_rounds(sc)
    rec = np.array([r.recovery_success for r in rounds]) if sc.encrypted else None
    attack_ok, attack_all = {}, {}
    contingency = np.zeros((2, 2), dtype=np.int64)
    for rr in rounds:
        for i, outcome in rr.attacks.items():
            attack_all[i] = attack_all.get(i, 0) + 1
            attack_ok[i] = attack_ok.get(i, 0) + int(bool(outcome.pad_recovered))
            if sc.users[i].role == "ees":
                idx = 2 * rr.truth + outcome.guessed_states
                contingency += np.bincount(idx, minlength=4).reshape(2, 2)

    def rate(values):
        values = values[~np.isnan(values)]
        return int(values.sum()) / values.size if values.size else None

    masking = None
    if sc.encrypted:
        report = leakage.leakage_report(subset, stationary_occupancy(model), [profiles[target]])
        masking = float(np.mean(report.per_channel_mi[0]))
    return simulate.SimulationSummary(
        scenario=sc,
        metrics=fusion.score(np.array([r.decisions[target] for r in rounds]),
                             np.array([r.truth for r in rounds])),
        honest_recovery_rate=None if rec is None else rate(rec),
        target_recovery_rate=None if rec is None else rate(rec[:, :, target]),
        attacker_success={i: attack_ok[i] / attack_all[i] for i in sorted(attack_all)},
        attacker_attempts={i: attack_all[i] for i in sorted(attack_all)},
        ees_contingency=contingency,
        mean_masking_level=masking,
    )


def same(a, b) -> bool:
    """Equal field by field: dataclasses, dicts in key order, arrays by dtype,
    shape and value (NaN equal to NaN)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


HONEST = UserSpec()
ENGINE_SCENARIOS = {
    **SCENARIOS,
    "ees_previous_round_verbatim": Scenario(
        num_channels=12, users=(HONEST,) * 3 + (UserSpec(role="ees"),) * 2,
        pairs=None, phi=4, rounds=40, seed=11, ees_copy_previous_round=True,
    ),
    "attackers_pairs": Scenario(
        num_channels=10, users=(HONEST,) * 2 + (
            UserSpec(role="history"), UserSpec(role="ees"), UserSpec(role="pes", sensed_channels=4),
        ),
        pairs=2, rounds=40, seed=12,
    ),
    "attackers_plaintext": Scenario(
        num_channels=16, users=(HONEST,) * 3 + (
            UserSpec(role="pes", sensed_channels=5), UserSpec(role="ees"), UserSpec(role="history"),
        ),
        pairs=1, rounds=40, seed=13, encrypted=False,
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_run_simulation_matches_the_reference_engine_field_by_field(name):
    sc = ENGINE_SCENARIOS[name]
    assert same(run_simulation(sc), reference_simulation(sc))


def stacked_attacks(want):
    """The reference rounds' attacks as the engine's per-attacker records:
    the rounds each attacker attacked in, its outcomes stacked over them
    (scored by the engine, so with no pad_recovered) and their hits."""
    out = {}
    for i in sorted({i for rr in want for i in rr.attacks}):
        rows = [rr.attacks[i] for rr in want if i in rr.attacks]
        outcome = adversary.AttackOutcome(np.stack([o.guessed_states for o in rows]),
                                          np.stack([o.recovered_pad for o in rows]), None,
                                          rows[0].channels_sensed)
        out[i] = simulate._Attack(np.array([i in rr.attacks for rr in want]), outcome,
                                  np.array([o.pad_recovered for o in rows]))
    return out


def assert_chunk_is(got, want):
    """A chunk the engine ran equals the reference rounds it covers, stacked."""
    for field in ("truth", "reports", "ciphertexts", "pads", "recovery_success"):
        rows = [getattr(rr, field) for rr in want]
        assert same(getattr(got, field), None if rows[0] is None else np.stack(rows)), field
    assert same(got.decisions, np.stack([np.stack(list(rr.decisions.values())) for rr in want]))
    assert same(got.attacks, stacked_attacks(want))


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_one_chunk_and_single_rounds_match_reference_rounds(name):
    sc = ENGINE_SCENARIOS[name]
    want = reference_rounds(sc)
    assert_chunk_is(simulate._run_rounds(*start(sc), sc.rounds), want)
    args = start(sc)
    for t in range(5):  # the engine stepped on chunks of one round
        assert_chunk_is(simulate._run_rounds(*args, 1), want[t:t + 1])


def round_cells(sc):
    """`simulate._round_cells` on the subset `run_simulation` builds for sc."""
    subset = simulate.build_subset(sc, simulate._subset_stream(sc.seed)) if sc.encrypted else None
    return simulate._round_cells(sc, subset)


@pytest.mark.parametrize("rounds_per_chunk", [1, 3, 7])
def test_chunk_length_leaves_every_golden_digest_unchanged(monkeypatch, engine_chunks,
                                                           rounds_per_chunk):
    for name, sc in SCENARIOS.items():
        monkeypatch.setattr(simulate, "ROUND_CHUNK", rounds_per_chunk * round_cells(sc))
        engine_chunks.clear()
        assert summary_digest(sc) == DIGESTS[name], name
        whole, rest = divmod(sc.rounds, rounds_per_chunk)
        assert engine_chunks == [rounds_per_chunk] * whole + [rest] * (rest > 0), name


def test_chunks_are_bounded_by_cells_not_by_rounds(monkeypatch, engine_chunks):
    sc = Scenario(num_channels=8)
    per_chunk = simulate.ROUND_CHUNK // round_cells(sc)
    run_simulation(dataclasses.replace(sc, rounds=2 * per_chunk + 1))
    assert engine_chunks == [per_chunk, per_chunk, 1]
    engine_chunks.clear()
    # a round wider than a chunk still runs, one round at a time
    monkeypatch.setattr(simulate, "ROUND_CHUNK", 1)
    run_simulation(small_scenario(rounds=3))
    assert engine_chunks == [1, 1, 1]


def test_round_cells_count_block_margins_on_described_subsets():
    users = (HONEST,) * 4 + (UserSpec(role="ees"),)
    sc = Scenario(num_channels=23, users=users, pairs=None, phi=5, omega=1.5)
    # 8-wide blocks: 3 of them; 5 user rows, and 4 receivers by 5 senders
    assert round_cells(sc) == 5 * 23 + 4 * 5 * 3
    assert round_cells(dataclasses.replace(sc, pairs=2, phi=None)) == (5 + 4 * 4) * 23
    # plaintext: 5 user rows and a busy count per (receiver, channel)
    assert round_cells(dataclasses.replace(sc, encrypted=False)) == (5 + 4) * 23


def test_a_p_target_run_sizes_its_blocks_once(monkeypatch):
    sizings, target_eta = [], simulate._target_eta

    def counting(sc):
        sizings.append(sc)
        return target_eta(sc)

    monkeypatch.setattr(simulate, "_target_eta", counting)
    run_simulation(small_scenario(p_target=0.95, rounds=2))
    assert len(sizings) == 1


def test_subset_stream_is_the_spawned_subset_stream():
    # key 4 of the seed's spawned keys, whatever the population
    for seed in (0, 7, 2 ** 40):
        for users in ((HONEST,), (HONEST,) * 3 + (UserSpec(role="ees"),) * 3):
            spawned = np.random.SeedSequence(seed).spawn(6)[4]
            want = np.random.default_rng(spawned).bit_generator.state
            assert simulate._subset_stream(seed).bit_generator.state == want
            assert _spawn_streams(seed, users).subset.bit_generator.state == want


def test_spawned_streams_do_not_depend_on_the_population_size():
    def states(streams):
        return [getattr(streams, name).bit_generator.state
                for name in ("channel", "pads", "ties", "subset", "sensing")]

    for seed in (0, 7, 2 ** 40):
        five, twenty = _spawn_streams(seed, (HONEST,) * 5), _spawn_streams(seed, (HONEST,) * 20)
        assert states(five) == states(twenty)
        assert five.attack == twenty.attack == {}
        keys = np.random.SeedSequence(seed).spawn(6)
        assert five.sensing.bit_generator.state == np.random.default_rng(keys[5]).bit_generator.state


def test_tie_and_flip_streams_are_their_spawned_children():
    for seed in (0, 7, 2 ** 40):
        streams = _spawn_streams(seed, (HONEST, UserSpec(role="ees")))
        keys = np.random.SeedSequence(seed).spawn(6)
        ties = np.random.default_rng(keys[3])
        assert streams.ties.bit_generator.state == ties.bit_generator.state
        # key 2's child 1 (the ees user), then its child 1 (flips)
        flips = np.random.default_rng(keys[2].spawn(2)[1].spawn(3)[1])
        assert flips.bit_generator.state == np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(2, 1, 1))).bit_generator.state
        assert streams.attack[1, "flips"].bit_generator.state == flips.bit_generator.state


def made_streams(monkeypatch, sc):
    """The spawn keys of every generator a run makes, in order."""
    made, default_rng = [], np.random.default_rng

    def recording(seed=None):
        made.append(seed.spawn_key)
        return default_rng(seed)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        run_simulation(sc)
    return made


def test_a_run_makes_only_the_streams_it_draws_from(monkeypatch):
    # odd widths never tie, so the honest-only run makes no tie stream
    honest = Scenario(num_channels=23, users=(HONEST,) * 4, pairs=None, phi=5, rounds=9, seed=3)
    assert sorted(made_streams(monkeypatch, honest)) == [(0,), (1,), (4,), (5,)]
    # an ees user that copies verbatim never draws bit flips
    ees = (UserSpec(role="ees"),)
    verbatim = dataclasses.replace(honest, users=(HONEST,) * 4 + ees)
    assert sorted(made_streams(monkeypatch, verbatim)) == [
        (0,), (1,), (2, 4, 0), (2, 4, 2), (4,), (5,)]
    flipping = dataclasses.replace(verbatim, ees_modification=0.25)
    assert (2, 4, 1) in made_streams(monkeypatch, flipping)


def recorded_sensing(monkeypatch, sc):
    """Every `spectrum.sense` result of a run, in call order."""
    calls, sense = [], spectrum.sense

    def recording(*args):
        calls.append(sense(*args))
        return calls[-1]

    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "sense", recording)
        run_simulation(sc)
    return calls


def test_a_role_change_leaves_every_users_sensing_unchanged(monkeypatch):
    honest = Scenario(num_channels=23, users=(HONEST,) * 5, pairs=None, phi=5, rounds=12, seed=3)
    selfish = dataclasses.replace(honest, users=(HONEST,) * 4 + (UserSpec(role="ees"),))
    want, got = recorded_sensing(monkeypatch, honest), recorded_sensing(monkeypatch, selfish)
    assert len(want) == len(got) == 1
    assert got[0].shape == (12, 5, 23)
    # the honest users' rows, and the ees user's full row, which it draws
    # but does not publish
    assert np.array_equal(got[0], want[0])


def test_sensing_is_one_call_per_chunk_for_the_whole_population(monkeypatch):
    # the mesh benchmark geometry: 20 honest users, 9 blocks of 11 channels
    sc = Scenario(num_channels=99, users=(HONEST,) * 20, pairs=None, phi=11, rounds=10, seed=1)
    assert [s.shape for s in recorded_sensing(monkeypatch, sc)] == [(10, 20, 99)]
    monkeypatch.setattr(simulate, "ROUND_CHUNK", 3 * round_cells(sc))
    chunks = [s.shape[0] for s in recorded_sensing(monkeypatch, sc)]
    assert chunks == [3, 3, 3, 1]


# ---- the honest mesh in block space ---------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 40),
    phi=st.integers(1, 12),
    omega=st.sampled_from([1.0, 1.5, 2.2]),
    honest_users=st.integers(1, 5),
    others=st.lists(st.sampled_from(["ees", "pes", "history"]), max_size=3),
    include_self=st.booleans(),
    threshold=st.integers(0, 8),
    rounds=st.integers(1, 6),
    rounds_per_chunk=st.integers(1, 3),
    copy_previous=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
# far more (receiver, sender) pairs than blocks, as in the mesh benchmark;
# far more blocks than pairs; even blocks that tie, with a shorter last block
@example(m=99, phi=11, omega=1.0, honest_users=20, others=[], include_self=True, threshold=0,
         rounds=10, rounds_per_chunk=3, copy_previous=False, seed=1)
@example(m=100, phi=1, omega=1.0, honest_users=5, others=[], include_self=True, threshold=0,
         rounds=6, rounds_per_chunk=2, copy_previous=False, seed=2)
@example(m=22, phi=4, omega=1.0, honest_users=4, others=["ees", "pes", "history"],
         include_self=False, threshold=0, rounds=6, rounds_per_chunk=3, copy_previous=False,
         seed=3)
def test_block_mesh_matches_recover_pads_and_fuse_on_flattened_pairs(
        m, phi, omega, honest_users, others, include_self, threshold, rounds, rounds_per_chunk,
        copy_previous, seed):
    # even widths tie, and widths that do not divide M leave a shorter last
    # block; ees users copy verbatim, so their pads are known and scored,
    # unless they copy the previous round's ciphertexts
    users = (HONEST,) * honest_users + tuple(UserSpec(role=r, sensed_channels=m // 2)
                                             for r in others)
    fused = len(users) - 1 + include_self
    if fused < 1:
        return
    sc = Scenario(num_channels=m, users=users, pairs=None, phi=min(phi, m), omega=omega,
                  include_self=include_self, rounds=rounds, seed=seed,
                  fusion_threshold=threshold % fused + 1 if threshold else None,
                  ees_copy_previous_round=copy_previous)
    blocks, compared = simulate._mesh_by_blocks, []

    def both(*args):
        *inputs, ties = args
        rows_ties = copy.deepcopy(ties)
        want_hits, want_counts = simulate._mesh_by_rows(*inputs, rows_ties)
        hits, counts = got = blocks(*args)
        # the block route counts in its float dtype, the row route in uint8
        assert same(hits, want_hits)
        assert counts.shape == want_counts.shape and np.array_equal(counts, want_counts)
        assert ties.bit_generator.state == rows_ties.bit_generator.state
        compared.append(hits.shape[0])
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "ROUND_CHUNK", rounds_per_chunk * round_cells(sc))
        patch.setattr(simulate, "_mesh_by_blocks", both)
        run_simulation(sc)
    assert sum(compared) == sc.rounds


def test_a_described_honest_mesh_never_calls_recover_pads_or_fuse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the block route called a row kernel")

    monkeypatch.setattr(protocol, "recover_pads", refuse)
    monkeypatch.setattr(fusion, "fuse", refuse)
    for phi in (5, 6):
        summary = run_simulation(Scenario(num_channels=23, users=(HONEST,) * 6, pairs=None,
                                          phi=phi, rounds=12, seed=phi))
        assert summary.honest_recovery_rate > 0.5
    # one complement pair is the described subset of one block; M=10 ties
    for m in (23, 10):
        summary = run_simulation(Scenario(num_channels=m, users=(HONEST,) * 6, pairs=1,
                                          rounds=12, seed=m))
        assert summary.honest_recovery_rate > 0.5
    assert run_simulation(Scenario()).honest_recovery_rate > 0.5  # the default config
    with pytest.raises(AssertionError, match="row kernel"):
        run_simulation(Scenario(num_channels=23, users=(HONEST,) * 3, pairs=2, rounds=2))


MESH_ROUTES = {
    "plaintext": dict(encrypted=False),
    "pairs1": dict(pairs=1),
    "pairs3": dict(pairs=3),
    "phi4": dict(pairs=None, phi=4),
}


@pytest.mark.parametrize("route", sorted(MESH_ROUTES))
def test_no_run_calls_fuse(monkeypatch, route):
    # the engine fuses by one threshold on its busy counts, on every route
    def refuse(*args, **kwargs):
        raise AssertionError("the engine called fuse")

    monkeypatch.setattr(fusion, "fuse", refuse)
    users = (HONEST,) * 3 + (UserSpec(role="ees"), UserSpec(role="pes", sensed_channels=5))
    for include_self, threshold in ((True, None), (False, 2)):
        summary = run_simulation(small_scenario(users=users, include_self=include_self,
                                                fusion_threshold=threshold, rounds=6,
                                                **MESH_ROUTES[route]))
        assert 0 <= summary.metrics.false_positive_rate <= 1


@pytest.mark.parametrize("route", sorted(MESH_ROUTES))
def test_a_lone_honest_user_fuses_exactly_its_own_report(route):
    sc = small_scenario(users=(HONEST,), rounds=6, **MESH_ROUTES[route])
    rr = simulate._run_rounds(*start(sc), sc.rounds)
    assert rr.decisions.shape == (6, 1, 12)
    assert np.array_equal(rr.decisions[:, 0], rr.reports[:, 0])
    if sc.encrypted:
        assert rr.recovery_success.shape == (6, 1, 1)
        assert np.isnan(rr.recovery_success).all()
    else:
        assert rr.recovery_success is None
    assert run_simulation(sc).honest_recovery_rate is None
