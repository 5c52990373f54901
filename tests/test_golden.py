"""Byte identity of fixed-seed simulation results.

Each digest pins everything a `run_simulation` summary reports for one
scenario, and one more pins the bytes `otpsense experiment` writes for a
sweep over pair subsets and selfish users.  The scenarios lean on vote ties
(even block widths, single pairs over an even band, widths that do not
divide M and so leave a shorter last block) and on every attacker role,
because those are the paths where a change in how random numbers are drawn
would show.  A digest that moves means a fixed config and seed no longer
reproduce their results; a deliberate change must say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from otpsense import cli, protocol
from otpsense.simulate import Scenario, UserSpec, run_simulation

import oracles

HONEST = UserSpec()

SCENARIOS = {
    "phi10_even_width": Scenario(num_channels=30, users=(HONEST,) * 4, pairs=None, phi=10,
                                 rounds=40, seed=1),
    "phi6_tail": Scenario(num_channels=20, users=(HONEST,) * 5, pairs=None, phi=6,
                          rounds=40, seed=2),
    "phi2_tail": Scenario(num_channels=7, users=(HONEST,) * 4, pairs=None, phi=2,
                          rounds=40, seed=3),
    "pairs4_m6": Scenario(num_channels=6, users=(HONEST,) * 4, pairs=4, rounds=40, seed=4),
    "pairs1_even_band": Scenario(num_channels=10, users=(HONEST,) * 6, pairs=1,
                                 rounds=40, seed=5),
    "attackers": Scenario(
        num_channels=23,
        users=(HONEST,) * 3 + (
            UserSpec(role="pes", sensed_channels=10),
            UserSpec(role="ees"),
            UserSpec(role="history"),
        ),
        pairs=None, phi=5, rounds=40, seed=6,
    ),
    "ees_previous_round": Scenario(
        num_channels=12, users=(HONEST,) * 3 + (UserSpec(role="ees"),) * 2,
        pairs=None, phi=4, rounds=40, seed=7,
        ees_copy_previous_round=True, ees_modification=0.2,
    ),
    "p_target_omega": Scenario(num_channels=25, users=(HONEST,) * 4, p_target=0.9,
                               omega=1.5, rounds=40, seed=8),
    "threshold_no_self": Scenario(num_channels=10, users=(HONEST,) * 4, pairs=None, phi=3,
                                  rounds=40, seed=9, include_self=False, fusion_threshold=2),
    "plaintext": Scenario(num_channels=16, users=(HONEST,) * 4 + (UserSpec(role="ees"),),
                          pairs=1, rounds=40, seed=10, encrypted=False),
}

# recorded from the scalar per-pair recovery loop; "attackers" re-recorded when
# the pes user started voting through `recover_pads` (one tie-break draw per
# call instead of one per block).  "attackers", "phi2_tail" and "phi6_tail",
# whose widths do not divide M, re-recorded when the last block became a
# plain shorter run and the vote stopped counting its leading positions twice.
# "attackers", "ees_previous_round" and "plaintext" (whose ees users draw
# from attacker streams) re-recorded when each (attacker, kind of draw) pair
# got its own stream, so that every attacker acts once per chunk of rounds:
# attackers 39d44e0c -> e0d71102, ees_previous_round 09d8c107 -> a80a9b8f,
# plaintext 0d332f0f -> 926dc9b4
# Every digest re-recorded when all users' sensing came to be drawn from one
# stream, one (slot, user, channel) block per chunk: attackers e0d71102 ->
# 87dd956a, ees_previous_round a80a9b8f -> 3d37008f, p_target_omega 303ecc97
# -> 0ff900a0, pairs1_even_band 9e1c127a -> ee642c6b, pairs4_m6 a766067e ->
# 58c4ee8b, phi10_even_width fe29f9e5 -> 23b1dd6b, phi2_tail 35b50525 ->
# 2282d446, phi6_tail b6a1535d -> 3dbf3899, plaintext 926dc9b4 -> 55c47950,
# threshold_no_self c2793a15 -> dec5db7c
DIGESTS = {
    "attackers": "87dd956a9154a0ece6c4d0bf0f6bfebe7d390b6c6e23d87c68d2db311ce1545c",
    "ees_previous_round": "3d37008ff2112eadc537b164953f9ac89322e39a92f3dd290b17f4dbcaeecb85",
    "p_target_omega": "0ff900a0f00b1e69ed610c3d91e95c9363efbd17dbf0b420385d6c45fa8f378b",
    "pairs1_even_band": "ee642c6be6be3abe95391ea2257101cae608f508d81d351b69a81d20b31b3eba",
    "pairs4_m6": "58c4ee8b9c38a6c6b06d2c59a4acaf8b4f6f69bed3b5df486e3bca3b8e969960",
    "phi10_even_width": "23b1dd6bcf157824a900eb167ec7fd5d11809930aeb5fe53285c21d9c8fd560a",
    "phi2_tail": "2282d446afdf5a3f3a4e7370a6e40c3164325fb04f33e7688dff83a48a567082",
    "phi6_tail": "3dbf389937685facf0b2373722d0b877a6126adf96690ba2c0d1927e98392d5c",
    "plaintext": "55c479506d377c9e29ce0fae6a1ebc869e74d4e5f9f89dd33b019362c4ca03a0",
    "threshold_no_self": "dec5db7c3bb5b5b4657892b84bf69a5ca0a2740aa3ffa6409bfad59ad0b061bd",
}


def summary_digest(sc: Scenario) -> str:
    s = run_simulation(sc)
    m = s.metrics
    blob = {
        "row": s.row(),
        "attacker_success": s.attacker_success,
        "attacker_attempts": s.attacker_attempts,
        "ees_contingency": s.ees_contingency.tolist(),
        "metrics": [a.tolist() for a in (m.false_alarms, m.idle_slots, m.misses, m.busy_slots)],
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fixed_seed_summary_is_byte_identical(name):
    assert summary_digest(SCENARIOS[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digests_hold_with_reduceat_block_margins(name, monkeypatch):
    # the reference that sums each block margin by np.add.reduceat, voting
    # in place of the block-margin kernel, reproduces every digest
    monkeypatch.setattr(protocol, "_vote_blocks", oracles.vote_blocks_by_reduceat)
    assert summary_digest(SCENARIOS[name]) == DIGESTS[name]


# `otpsense experiment` over pairs {1, 2, 4} x selfish (ees) {0, 2}: 6 users,
# M=100, 20 rounds.  Recorded while one pair was held as explicit rows; it
# holds with one pair as the one-block subset.
EXPERIMENT = {
    "num_channels": 100, "users": [{"role": "honest"}] * 6, "rounds": 20, "seed": 3,
    "sweep": [{"param": "pairs", "values": [1, 2, 4]}, {"param": "selfish", "values": [0, 2]}],
}
EXPERIMENT_DIGEST = "c1f2c505ece888dbadbf250b833daf45baec7e6c85847938bfb4b05674be0946"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_output_is_byte_identical(tmp_path, workers):
    config, out = tmp_path / "experiment.json", tmp_path / "rows.jsonl"
    config.write_text(json.dumps(EXPERIMENT))
    assert cli.main(["experiment", "--config", str(config), "--workers", workers,
                     "--format", "json-lines", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPERIMENT_DIGEST
