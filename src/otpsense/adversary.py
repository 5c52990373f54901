"""Selfish-user strategies against pad-protected report sharing.

Three free-rider strategies, each a pure function of what the attacker can
actually observe:

* entropy selfishness (`ees_act`, `ees_decode_attempt`): sense nothing, copy
  someone else's published ciphertext as your own contribution, and if you
  want the content, guess a pad.  Against a complement-closed subset the
  ciphertext carries zero information, so guessing is all there is: success
  rate 1/size.
* partial sensing (`pes_act`): sense a few channels honestly and run the
  honest vote with zero weight on the channels you did not cover; blocks
  with no covered position are coin flips between their alternatives.
* stale report (`history_act`): sense in one round, free-ride in the next
  using the outdated report; channel memory decays with the slot period, so
  the vote quality drops below an honest receiver's.

Ops fill `AttackOutcome.pad_recovered` only when the caller passes the
ground-truth pad; attackers themselves never see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import as_bits
from .protocol import PadSubset, decrypt, recover_pad, recover_pads


@dataclass(frozen=True, eq=False)
class AttackOutcome:
    """What one attack attempt produced.

    Attributes:
        guessed_states: the attacker's best guess at the sender's report
            (ciphertext decrypted with the guessed pad).
        recovered_pad: the pad the attacker settled on.
        pad_recovered: True/False when ground truth was supplied to the op,
            None otherwise.
        channels_sensed: how many channels the attacker actually sensed.
    """

    guessed_states: np.ndarray
    recovered_pad: np.ndarray
    pad_recovered: bool | None
    channels_sensed: int


def _outcome(ciphertext, pad, sensed: int, true_pad) -> AttackOutcome:
    recovered = None if true_pad is None else bool(np.array_equal(pad, as_bits(true_pad)))
    return AttackOutcome(decrypt(ciphertext, pad), pad, recovered, sensed)


def ees_act(
    observed: np.ndarray | list[np.ndarray],
    rng: np.random.Generator,
    modification: float = 0.0,
) -> np.ndarray:
    """Forge a contribution by replaying an observed ciphertext.

    Picks uniformly among the ciphertexts observed this round (a list of
    rows or a stacked array) and flips each bit independently with
    probability `modification` (0 = verbatim copy).  Call once per
    recipient to forward possibly different copies.
    """
    if len(observed) == 0:
        raise ValueError("nothing observed to copy")
    if not 0 <= modification <= 1:
        raise ValueError(f"modification must lie in [0, 1], got {modification}")
    rows = np.asarray(observed, dtype=np.uint8)  # rows of unequal length raise here
    if rows.ndim != 2 or rows.max() > 1:
        raise ValueError("observed ciphertexts must be bit vectors of one length")
    copy = rows[rng.integers(len(rows))].copy()
    if modification > 0:
        flips = (rng.random(copy.size) < modification).astype(np.uint8)
        copy ^= flips
    return copy


def ees_decode_attempt(
    ciphertext: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    true_pad: np.ndarray | None = None,
) -> AttackOutcome:
    """Reportless decode: with no sensing there is no vote signal, so the
    best available pad is a uniform draw.  Succeeds with probability
    1/subset.size per ciphertext."""
    ciphertext = as_bits(ciphertext)
    if ciphertext.size != subset.length:
        raise ValueError(f"ciphertext has {ciphertext.size} bits, subset pads {subset.length}")
    pad = subset.draw(rng)
    return _outcome(ciphertext, pad, 0, true_pad)


def pes_act(
    sensed_channels: np.ndarray,
    partial_report: np.ndarray,
    ciphertext: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    true_pad: np.ndarray | None = None,
) -> AttackOutcome:
    """Partial-sensing crack: the honest vote with unit weight on the
    covered positions and zero weight elsewhere.

    Args:
        sensed_channels: indices of channels the attacker sensed.
        partial_report: full-length report vector; only the entries at
            `sensed_channels` are read.
        ciphertext: the target's published ciphertext.
        subset: public pad subset.
        rng: vote tie-breaks (uncovered blocks always tie).
        true_pad: optional ground truth for `pad_recovered`.

    Over a product subset a block with no covered position is a fair guess
    among its alternatives, so with b uncovered blocks the full-pad success
    rate is bounded by 2**-b times the covered blocks' vote success.
    """
    ciphertext = as_bits(ciphertext)
    partial_report = as_bits(partial_report)
    if ciphertext.size != subset.length or partial_report.size != subset.length:
        raise ValueError("ciphertext and partial_report must match the subset length")
    sensed = np.unique(np.asarray(sensed_channels, dtype=np.int64))
    if sensed.size and (sensed[0] < 0 or sensed[-1] >= subset.length):
        raise ValueError("sensed channel indices out of range")
    covered = np.zeros(subset.length)
    covered[sensed] = 1.0
    pad = recover_pads(partial_report[None], ciphertext[None], subset, rng, weights=covered)[0]
    return _outcome(ciphertext, pad, int(sensed.size), true_pad)


def history_act(
    stale_report: np.ndarray,
    ciphertext: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    true_pad: np.ndarray | None = None,
) -> AttackOutcome:
    """Free-ride on last round's sensing: run the ordinary vote recovery
    with the outdated report as if it were current."""
    pad = recover_pad(stale_report, ciphertext, subset, rng)
    return _outcome(as_bits(ciphertext), pad, as_bits(stale_report).size, true_pad)
