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

Every op acts on one round or on a stack of T rounds, as `encrypt_report`
does: a (T, ...) call takes the same random numbers, in round order, as T
one-round calls on the same generators, and returns their results stacked
on a leading round axis.

Ops fill `AttackOutcome.pad_recovered` only when the caller passes the
ground-truth pad; attackers themselves never see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import as_bits, below, thresholds, uniform_words
from .protocol import PadSubset, recover_pads
# a module attribute that perfbench/tracing.py wraps by name
from .protocol import recover_pad  # noqa: F401


@dataclass(frozen=True, eq=False)
class AttackOutcome:
    """What one attack attempt, or a stack of T of them, produced.

    Attributes:
        guessed_states: the attacker's best guess at the sender's report
            (ciphertext decrypted with the guessed pad); (M,), or (T, M)
            for a stack.
        recovered_pad: the pad the attacker settled on, shaped alike.
        pad_recovered: when ground truth was supplied to the op, True/False
            for one attempt and a (T,) bool array for a stack; None
            otherwise.
        channels_sensed: how many channels the attacker actually sensed.
    """

    guessed_states: np.ndarray
    recovered_pad: np.ndarray
    pad_recovered: bool | np.ndarray | None
    channels_sensed: int


def _outcome(ciphertext, pad, sensed: int, true_pad) -> AttackOutcome:
    recovered = None
    if true_pad is not None:
        hit = (pad == as_bits(true_pad, pad.shape[-1], (1, 2), "true_pad")).all(axis=-1)
        recovered = bool(hit) if hit.ndim == 0 else hit
    return AttackOutcome(np.bitwise_xor(ciphertext, pad), pad, recovered, sensed)


def _recover(own, ciphertext, subset, rng, weights=None) -> np.ndarray:
    """`recover_pads` on one row or a (T, M) stack, keeping its shape."""
    rows = recover_pads(own.reshape(-1, subset.length), ciphertext.reshape(-1, subset.length),
                        subset, rng, weights)
    return rows.reshape(ciphertext.shape)


def ees_act(
    observed: np.ndarray | list[np.ndarray],
    rng: np.random.Generator,
    modification: float = 0.0,
    flips_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Forge a contribution by replaying an observed ciphertext.

    Picks uniformly among the H ciphertexts observed this round (a list of
    rows or an (H, M) array) and flips each bit independently with
    probability `modification` (0 = verbatim copy).  A (T, H, M) stack
    forges one (T, M) row per round.  The picks come from `rng` and the
    flips from `flips_rng` (by default `rng`): each round draws one uniform
    uint32 word per bit, from whole 64-bit outputs (`bits.uniform_words`),
    and flips the bits whose word is below floor(modification * 2**32).
    On two generators a stack takes the same random numbers as T one-round
    calls.  Call once per
    recipient to forward possibly different copies.  Rows of unequal
    length, or entries other than 0 and 1, raise ValueError (`as_bits`).
    """
    if not 0 <= modification <= 1:
        raise ValueError(f"modification must lie in [0, 1], got {modification}")
    rows = as_bits(observed, None, (2, 3), "observed ciphertexts")
    if rows.shape[-2] == 0:
        raise ValueError("nothing observed to copy")
    picks = rng.integers(rows.shape[-2], size=rows.shape[:-2])
    copy = rows[np.arange(rows.shape[0]), picks] if rows.ndim == 3 else rows[picks].copy()
    if modification > 0:
        words = uniform_words(rng if flips_rng is None else flips_rng,
                              len(copy) if copy.ndim == 2 else 1, copy.shape[-1])
        copy ^= below(words, thresholds(modification)).reshape(copy.shape).view(np.uint8)
    return copy


def ees_decode_attempt(
    ciphertext: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    true_pad: np.ndarray | None = None,
) -> AttackOutcome:
    """Reportless decode of one ciphertext or a (T, M) stack: with no
    sensing there is no vote signal, so the best available pad is a uniform
    draw.  Succeeds with probability 1/subset.size per ciphertext."""
    ciphertext = as_bits(ciphertext, subset.length, (1, 2), "ciphertext")
    pad = subset.draw(rng, ciphertext.shape[:-1])
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
        sensed_channels: indices of channels the attacker sensed, the same
            in every round of a stack.
        partial_report: full-length report vector, or a (T, M) stack; only
            the entries at `sensed_channels` are read.
        ciphertext: the target's published ciphertext, shaped alike.
        subset: public pad subset.
        rng: vote tie-breaks (uncovered blocks always tie), in round order.
        true_pad: optional ground truth for `pad_recovered`, shaped alike.

    Over a product subset a block with no covered position is a fair guess
    among its alternatives, so with b uncovered blocks the full-pad success
    rate is bounded by 2**-b times the covered blocks' vote success.
    """
    ciphertext = as_bits(ciphertext, subset.length, (1, 2), "ciphertext")
    partial_report = as_bits(partial_report, subset.length, (1, 2), "partial_report")
    if partial_report.shape != ciphertext.shape:
        raise ValueError("ciphertext and partial_report must have one shape")
    sensed = np.unique(np.asarray(sensed_channels, dtype=np.int64))
    if sensed.size and (sensed[0] < 0 or sensed[-1] >= subset.length):
        raise ValueError("sensed channel indices out of range")
    covered = np.zeros(subset.length)
    covered[sensed] = 1.0
    pad = _recover(partial_report, ciphertext, subset, rng, weights=covered)
    return _outcome(ciphertext, pad, int(sensed.size), true_pad)


def history_act(
    stale_report: np.ndarray,
    ciphertext: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    true_pad: np.ndarray | None = None,
) -> AttackOutcome:
    """Free-ride on last round's sensing: run the ordinary vote recovery
    with the outdated report, or a (T, M) stack of them, as if it were
    current."""
    ciphertext = as_bits(ciphertext, subset.length, (1, 2), "ciphertext")
    stale_report = as_bits(stale_report, subset.length, (1, 2), "stale_report")
    if stale_report.shape != ciphertext.shape:
        raise ValueError("stale_report and ciphertext must have one shape")
    pad = _recover(stale_report, ciphertext, subset, rng)
    return _outcome(ciphertext, pad, subset.length, true_pad)
