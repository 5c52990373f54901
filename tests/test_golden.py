"""Byte identity of fixed-seed simulation results.

Each digest pins everything a `run_simulation` summary reports for one
scenario.  The scenarios lean on vote ties (even block widths, single pairs
over an even band, widths that do not divide M and so leave a shorter last
block) and on every attacker role, because those are the paths where a
change in how random numbers are drawn would show.  A digest that moves
means a fixed config and seed no longer reproduce their results; a
deliberate change must say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from otpsense import protocol
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
DIGESTS = {
    "attackers": "e0d711027f12f446a689505cb54b351231aa73c485265d2fad1b82c50f2eab26",
    "ees_previous_round": "a80a9b8f99b3466e4c50b24bf334494ddea527c4d6cc27ca57b4e2ff7016c889",
    "p_target_omega": "303ecc97f6dd59a722469562f3b1269af0c183ece492ec6abcd781b2d23ffed6",
    "pairs1_even_band": "9e1c127ac33b367b74ea509677ceadebf45e2bfde10d390196cbdf41be61bd52",
    "pairs4_m6": "a766067ee5bf3fb018ce6262b44ebef44de14d084a9ef879c6417271fb4917d2",
    "phi10_even_width": "fe29f9e5706a8609bbd388c52bfc69904af6f48801f72281dc828831396f255c",
    "phi2_tail": "35b50525093f5b27e1d5bd083c1e8d6e12641e223b235907205895f65f9d5c9e",
    "phi6_tail": "b6a1535d4f5d62bd19c8486c5119da8a9333456afc5f2fbdda2d72e0290d167a",
    "plaintext": "926dc9b44b08a9eb0714634ef35e0b6b6c8ad16fde363710e6b871b203bcaa05",
    "threshold_no_self": "c2793a152adb5babd9be204c8512aa6beee78af9ebea6faaba12d2c0e8a2bf67",
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
