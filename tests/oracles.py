"""Reference functions the tests check the package against."""

import numpy as np

from otpsense import protocol
from otpsense.bits import as_bits, complement, random_bits
from otpsense.protocol import PadSubset


def pad_posterior(own_report, ciphertext, eta, candidate) -> float:
    """Likelihood of a candidate pad given the receiver's own report.

    Product over positions of eta_i when candidate_i == own_i xor cipher_i
    and 1 - eta_i otherwise.  Maximized over all binary vectors by
    own_report xor ciphertext whenever every eta_i > 1/2; `recover_pads`
    restricts that maximization to the subset.
    """
    own_report = as_bits(own_report)
    ciphertext = as_bits(ciphertext)
    candidate = as_bits(candidate)
    eta = np.asarray(eta, dtype=float)
    if not (own_report.size == ciphertext.size == candidate.size == eta.size):
        raise ValueError("own_report, ciphertext, eta and candidate must share one length")
    if not ((eta >= 0) & (eta <= 1)).all():
        raise ValueError("eta entries must lie in [0, 1]")
    target = np.bitwise_xor(own_report, ciphertext)
    factors = np.where(candidate == target, eta, 1.0 - eta)
    return float(factors.prod())


def is_secure_pair_closed(subset) -> bool:
    """True when every pad's bitwise complement is also in the subset.  A
    described subset is closed by construction (complementing every block
    is another per-block choice), so it is answered without listing pads."""
    if subset.base_pad is not None:
        return True
    rows = {row.tobytes() for row in subset.pads}
    return all(complement(row).tobytes() in rows for row in subset.pads)


def generate_pairs_by_row(length: int, pairs: int, rng) -> PadSubset:
    """`generate_pairs` one attempt at a time: a `random_bits` call per
    candidate base row, rejected when it or its complement was taken."""
    seen: set[bytes] = set()
    rows = []
    attempts = 0
    while len(rows) < 2 * pairs:
        attempts += 1
        if attempts > 1000 * pairs + 100:
            raise ValueError("could not draw distinct pairs; length too small")
        base = random_bits(length, rng)
        comp = complement(base)
        if base.tobytes() in seen or comp.tobytes() in seen:
            continue
        seen.add(base.tobytes())
        seen.add(comp.tobytes())
        rows.append(base)
        rows.append(comp)
    return PadSubset(np.stack(rows))


def vote_blocks_by_reduceat(targets, subset, weights, rng) -> np.ndarray:
    """`protocol._vote_blocks` with each block margin summed on its own by
    `np.add.reduceat`: the block's whole weight, less twice the weight of
    the target bits that differ from the base pad.  Digits and tie draws
    come from the vote's own `_block_digits`."""
    starts = np.arange(0, subset.length, subset.block_length)
    flipped = targets ^ subset.base_pad.view(bool)
    margins = np.add.reduceat(flipped * (-2 * weights), starts, axis=1)
    margins += np.add.reduceat(weights, starts)
    return subset._from_digits(protocol._block_digits(margins, subset, rng))
