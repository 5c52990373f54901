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



def pcg64_from_words(words):
    """A PCG64 seeded with four given uint64 words."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            assert (n_words, dtype) == (4, np.uint64)
            return np.array(words, dtype=np.uint64)

    return PCG64(Words())


def slot_words(rng, cells: int) -> np.ndarray:
    """One slot's uniform words, as uint64 values below 2**32: each 64-bit
    output of the bit generator split into its low and then its high half,
    the last half dropped when cells is odd."""
    raw = rng.bit_generator.random_raw(-(-cells // 2))
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:cells]


def rate_thresholds(rates) -> np.ndarray:
    """floor(rate * 2**32) as uint64, so rate 1 keeps its threshold 2**32."""
    return np.floor(np.clip(rates, 0.0, 1.0) * 2.0 ** 32).astype(np.uint64)


def sample_states_by_slots(model, rng, previous=None, slots=1) -> np.ndarray:
    """`spectrum.sample_states` as a loop over slots: each slot draws its own
    words and applies the kernel from the state of the slot before."""
    from otpsense.spectrum import stationary_occupancy

    p1 = stationary_occupancy(model)
    decay = np.exp(-(model.rate_on + model.rate_off) * model.slot_period)
    stationary, stays, turns = map(rate_thresholds,
                                   (p1, p1 + (1.0 - p1) * decay, p1 - p1 * decay))
    states = np.empty((slots, model.num_channels), dtype=np.uint8)
    for t in range(slots):
        u = slot_words(rng, model.num_channels)
        states[t] = u < stationary if previous is None else np.where(previous, u < stays,
                                                                       u < turns)
        previous = states[t]
    return states
