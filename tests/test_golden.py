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
# Every digest re-recorded when each stream came to be seeded from its own
# words of one hash of the seed, and every Bernoulli bit (sensing errors,
# the channel chain, ees bit flips) to be drawn as a uint32 word below the
# threshold floor(rate * 2**32), each slot on whole 64-bit outputs:
# attackers 87dd956a -> aece6eee, ees_previous_round 3d37008f -> 1d495926,
# p_target_omega 0ff900a0 -> 6fb4e36a, pairs1_even_band ee642c6b ->
# 388a3d8d, pairs4_m6 58c4ee8b -> 24b3018a, phi10_even_width 23b1dd6b ->
# 138ade1f, phi2_tail 2282d446 -> 98e1a821, phi6_tail 3dbf3899 -> d0f09582,
# plaintext 55c47950 -> b50d2799, threshold_no_self dec5db7c -> 19e52699
DIGESTS = {
    "attackers": "aece6eee0a4ac1485a3b71376ffdc8e9fcef2e6e0e1907b2f598f61f38350b4e",
    "ees_previous_round": "1d495926b3b054ea513f83ec598457916cf65c4b370dd455a0a2e298b9300c3b",
    "p_target_omega": "6fb4e36ac126ee6d5d0ffb268421709398ea21d6c7e5397d7e9204de037a0395",
    "pairs1_even_band": "388a3d8d349ff69921f89c5c9e64e313e6e75eb42fc4659fb87329ccf8e99ac0",
    "pairs4_m6": "24b3018a833a6f9c6e5aef1eb0540f88184435253fdd750237eedf96057381d1",
    "phi10_even_width": "138ade1fb7b21174bb06c0fce9bd09e3d9af4b5aaa6c43398abf030e949699de",
    "phi2_tail": "98e1a821a5db6e029676b525c784e6a9dbc7f9e03f0fa3b04862556919ae9fda",
    "phi6_tail": "d0f095828fa25eda1ee18bd1ac22448ab907915ba74e8d980d643a321846c936",
    "plaintext": "b50d2799bb4d01d0f8984fea2b5b468eb1ebb2b48f07d8a2c6fb469afc499a30",
    "threshold_no_self": "19e52699fb0d713a387616c32552ffc9456b0d8f1298ab99193bff9dd02630ad",
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
# holds with one pair as the one-block subset.  Re-recorded, c1f2c505 ->
# a82f5139, with the digests above, when streams came to be seeded from one
# hash of the seed and Bernoulli bits to be drawn against uint32 thresholds.
# Re-recorded, a82f5139 -> 6dce60b4, when every point came to run on the
# scenario's own seed in place of a seed derived from (seed, point index).
EXPERIMENT = {
    "num_channels": 100, "users": [{"role": "honest"}] * 6, "rounds": 20, "seed": 3,
    "sweep": [{"param": "pairs", "values": [1, 2, 4]}, {"param": "selfish", "values": [0, 2]}],
}
EXPERIMENT_DIGEST = "6dce60b4629b9aaafd0e982a1358d49e85f1a2d543951c4c449403b5c470d284"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_output_is_byte_identical(tmp_path, workers):
    config, out = tmp_path / "experiment.json", tmp_path / "rows.jsonl"
    config.write_text(json.dumps(EXPERIMENT))
    assert cli.main(["experiment", "--config", str(config), "--workers", workers,
                     "--format", "json-lines", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPERIMENT_DIGEST
