"""One-time-pad report protection with votable pad subsets.

A sender encrypts its length-M sensing report R as E = R xor K, drawing the
pad K uniformly from a public subset of pads.  A receiver that sensed the
same spectrum recovers K by weighted voting: candidate pads that agree with
own_report xor E on many positions are likely, because honest reports agree
per channel with probability eta_i > 1/2.  An eavesdropper without a report
of its own learns nothing (see leakage.py), so the pad subset acts as a
trapdoor: sensing effort is the key.

Subsets come in two flavours:

* `generate_subset`: a random base pad and its bitwise complement, interleaved
  over contiguous blocks of `block_length` bits.  The subset is every pad that
  picks, per block, either the base block or its complement; cardinality
  2**num_blocks.  Any two members differ on at least one whole block
  (block_length sized votes), and the per-block recovery success rate is
  `predict_success_rate(block_length, eta)`.  The subset is stored as that
  description (base pad plus block geometry), not as its rows: votes and
  draws work block by block, and `PadSubset.pads` lists the rows only when
  read.
* `generate_pairs`: independent random complement pairs, no block structure,
  stored as explicit rows and scored against every row (`make_subset` builds
  one pair as the first flavour's subset of one block).

Both are closed under bitwise complement, which is what makes the published
ciphertext carry zero information about the channel states (every bit of a
uniformly drawn pad is marginally Bernoulli(1/2)).

When block_length does not divide M, the last block is simply shorter.

Binary vectors are numpy uint8 arrays (see bits.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, random_bits, xor
from .spectrum import DetectorProfile

# entries per float temporary (signed targets, scores) in `recover_pads`
SCORE_CHUNK = 2 ** 15

# binary digits of the widest uniform rank one `rng.integers` call draws;
# wider ranks are drawn in chunks (see `_draw_digits`)
RANK_BITS = 62


def _sort_rows(pads: np.ndarray) -> np.ndarray:
    """Canonical subset order: rows sorted as big-endian bit strings."""
    order = np.lexsort(pads.T[::-1])
    return pads[order]


def _digits(ranks: np.ndarray, count: int) -> np.ndarray:
    """Binary digits of integer ranks, most significant first: (..., count) uint8."""
    return ((ranks[..., None] >> np.arange(count - 1, -1, -1)) & 1).astype(np.uint8)


def _draw_digits(rng: np.random.Generator, count: int, shape: tuple = ()) -> np.ndarray:
    """Digits of uniform ranks over 2**count, shape (*shape, count).  Up to
    RANK_BITS digits this is one `rng.integers(2**count, size=shape)` call;
    wider ranks are drawn as `_draw_rank_runs` does."""
    if count <= RANK_BITS:
        return _digits(np.asarray(rng.integers(1 << count, size=shape)), count)
    return _draw_rank_runs(rng, np.full(math.prod(shape), count)).reshape(*shape, count)


def _draw_rank_runs(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Digits of one uniform rank over 2**c per entry c >= 1 of `counts`,
    concatenated in order, most significant first: a flat uint8 array of
    counts.sum() digits.  Each rank is split into RANK_BITS-digit chunks,
    most significant chunk first, and one `rng.integers` call over the
    array of chunk bounds draws them all, from the same random numbers as
    one `rng.integers(2**width)` call per chunk."""
    chunks = -(-counts // RANK_BITS)
    widths = np.full(int(chunks.sum()), RANK_BITS, dtype=np.int64)
    widths[np.cumsum(chunks) - 1] = counts - RANK_BITS * (chunks - 1)
    ranks = rng.integers(np.left_shift(1, widths))
    # the digit at flat position p of a chunk ending at position e is bit
    # e - 1 - p of its rank
    ends = np.cumsum(widths)
    shifts = np.repeat(ends - 1, widths) - np.arange(widths.sum())
    return ((np.repeat(ranks, widths) >> shifts) & 1).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class PadSubset:
    """Public pad subset plus its block geometry.

    A subset from `generate_subset` is stored as its description: a base pad
    whose blocks may each be kept or complemented, standing for all
    2**num_blocks such pads without listing them.  Draws and votes work
    block by block on it.  Any other subset is the explicit rows given to
    the constructor, whose num_blocks, when given, must be the derived one.

    Attributes:
        pads: read-only uint8 array of shape (size, length), rows distinct
            and in canonical sorted order.  A described subset lists its
            pads only when this is first read.
        block_length: vote-block width the subset was built for.  Blocks
            are runs of block_length positions; when it does not divide
            the length, the last block is shorter.
        num_blocks: number of blocks, ceil(length / block_length).
        length: pad length M.
        base_pad: read-only (length,) base pad of a described subset;
            None for explicit pads.
    """

    block_length: int
    length: int
    base_pad: np.ndarray | None

    def __init__(self, pads, block_length: int | None = None, num_blocks: int | None = None):
        pads = as_bits(np.atleast_2d(pads), ndims=(2,), name="pads")
        if pads.shape[0] < 1 or pads.shape[1] < 1:
            raise ValueError(f"pads must be a non-empty 2-D bit array, got shape {pads.shape}")
        if block_length is None:
            block_length = pads.shape[1]
        if not 1 <= block_length <= pads.shape[1]:
            raise ValueError(f"block_length {block_length} out of range for length {pads.shape[1]}")
        blocks = -(-pads.shape[1] // block_length)
        if num_blocks is not None and num_blocks != blocks:
            raise ValueError(f"num_blocks must be ceil(length / block_length) = {blocks}, "
                             f"got {num_blocks}")
        pads = _sort_rows(pads)
        if pads.shape[0] > 1 and (pads[1:] == pads[:-1]).all(axis=1).any():
            raise ValueError("subset pads must be distinct")
        # derived arrays below are cached on first use, so the pads must not change
        pads.flags.writeable = False
        # explicit pads fill the lazy `pads` property up front
        self.__dict__.update(pads=pads, block_length=int(block_length),
                             length=pads.shape[1], base_pad=None)

    @classmethod
    def _described(cls, base_pad: np.ndarray, block_length: int) -> PadSubset:
        """The product subset of a base pad, which it owns."""
        subset = object.__new__(cls)
        base_pad.flags.writeable = False
        subset.__dict__.update(block_length=int(block_length), length=base_pad.size,
                               base_pad=base_pad)
        return subset

    @property
    def num_blocks(self) -> int:
        return -(-self.length // self.block_length)

    @property
    def size(self) -> int:
        return 1 << self.num_blocks if self.base_pad is not None else self.pads.shape[0]

    def member_keys(self, pads: np.ndarray) -> np.ndarray:
        """The positions, along the last axis, that tell members of this
        subset apart: two members are equal exactly when these are.  Members
        of a described subset differ on whole blocks, so the first position
        of each block is enough; explicit pads keep every position."""
        return pads[..., ::self.block_length] if self.base_pad is not None else pads

    def block_positions(self, block: int) -> np.ndarray:
        """Bit positions of `block` (0-based): block_length of them, except
        in a shorter last block when block_length does not divide M."""
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")
        lo = block * self.block_length
        hi = min(lo + self.block_length, self.length)
        return np.arange(lo, hi)

    @functools.cached_property
    def pads(self) -> np.ndarray:
        # reached by described subsets only; pad i of the canonical order
        # picks, per block, the alternative whose first bit is i's digit
        pads = self._from_digits(_digits(np.arange(self.size), self.num_blocks))
        pads.flags.writeable = False
        return pads

    def _from_digits(self, digits: np.ndarray) -> np.ndarray:
        """Pads of a described subset from (..., num_blocks) digits: each
        block takes the base block or its complement, whichever starts with
        its digit.  In the canonical order the rank whose binary digits these
        are (most significant first) is the pad's index."""
        pads = (digits ^ self.base_pad[::self.block_length])[..., self._block_of]
        pads ^= self.base_pad
        return pads

    def draw(self, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
        """Uniformly drawn pads, shape (*shape, length), as a new array: the
        pads at ranks `rng.integers(size, size=shape)` of the canonical
        order (see `_draw_digits` past RANK_BITS blocks)."""
        if self.base_pad is None:
            return self.pads[rng.integers(self.size, size=shape)]
        return self._from_digits(_draw_digits(rng, self.num_blocks, shape))

    @functools.cached_property
    def xi(self) -> np.ndarray:
        """Read-only (length,) probability that a uniformly drawn pad bit is
        zero, per position."""
        if self.base_pad is not None:
            xi = np.full(self.length, 0.5)  # each block is the base block in half the pads
        else:
            xi = 1.0 - self.pads.mean(axis=0)
        xi.flags.writeable = False
        return xi

    @functools.cached_property
    def _unit_weights(self) -> np.ndarray:
        """Unit vote weights.  Unit scores are integers of magnitude <=
        length, which float32 holds exactly below 2**24."""
        return np.ones(self.length, dtype=np.float32 if self.length < 2 ** 24 else np.float64)

    @functools.cached_property
    def _block_of(self) -> np.ndarray:
        """The block of each position: (length,)."""
        return np.arange(self.length) // self.block_length


def generate_subset(
    length: int,
    block_length: int,
    rng: np.random.Generator,
    base_pad: np.ndarray | None = None,
) -> PadSubset:
    """Block-interleaved complement-pair subset (the protocol's default).

    Starts from a random base pad and its complement and takes every per-block
    mix of the two.  `base_pad`, when given, must have length `length`.  Its
    blocks are runs of block_length bits, the last one shorter when
    block_length does not divide length.  The subset is stored as this
    description, so its 2**num_blocks pads cost nothing until `.pads` is read.

    Raises:
        ValueError: length < 1, block_length outside [1, length], or a
            base_pad of the wrong length or with entries other than 0 and 1.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 1 <= block_length <= length:
        raise ValueError(f"block_length must be in [1, {length}], got {block_length}")
    if base_pad is None:
        base_pad = random_bits(length, rng)
    else:
        base_pad = as_bits(base_pad, length, name="base_pad").copy()
    return PadSubset._described(base_pad, block_length)


def widen_block(length: int, block_length: int, omega: float) -> int:
    """Block length scaled by `omega` >= 1, rounded up and capped at `length`."""
    if not 1 <= omega < math.inf:
        raise ValueError(f"omega must lie in [1, inf), got {omega}")
    # capping omega first keeps a huge finite omega's product finite
    return min(length, math.ceil(min(omega, length) * block_length))


def generate_pairs(length: int, pairs: int, rng: np.random.Generator) -> PadSubset:
    """Subset of `pairs` independent random complement pairs (no block
    structure; block_length = length, a single vote block).

    Each attempt draws one random base row, rejected when it or its
    complement was already taken.  The attempts still needed are drawn in
    one call, as rows padded to a multiple of 4 bytes: numpy fills uint8
    draws from 32-bit words and drops a call's unused bytes, so each row
    takes the same random numbers as one `random_bits(length, rng)` call,
    and the generator ends where the row-by-row draws leave it."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if 2 * pairs > 2 ** min(length, 62):
        raise ValueError(f"cannot fit {pairs} distinct pairs in {length} bits")
    seen: set[bytes] = set()
    rows = []
    attempts, cap = 0, 1000 * pairs + 100
    while len(rows) < 2 * pairs:
        draws = min(pairs - len(rows) // 2, cap - attempts)
        if draws == 0:
            raise ValueError("could not draw distinct pairs; length too small")
        attempts += draws
        bases = rng.integers(0, 2, size=(draws, -(-length // 4) * 4), dtype=np.uint8)[:, :length]
        for base, comp in zip(bases, bases ^ 1):
            key, comp_key = base.tobytes(), comp.tobytes()
            if key in seen or comp_key in seen:
                continue
            seen.update((key, comp_key))
            rows += (base, comp)
    return PadSubset(np.stack(rows))


def make_subset(
    length: int,
    rng: np.random.Generator,
    *,
    pairs: int | None = None,
    phi: int | None = None,
    p_target: float | None = None,
    eta: float | None = None,
    omega: float = 1.0,
) -> PadSubset:
    """The subset a configuration names, taking the first that is set of:
    p_target (blocks of the smallest odd width whose predicted rate at
    agreement `eta` reaches it), phi (blocks of that width), or pairs
    (`generate_pairs`; one pair is one block of width length, with the pads,
    order and random numbers of `generate_pairs(length, 1)`).  Block widths
    are scaled by omega (`widen_block`), checked whatever the construction."""
    if p_target is not None:
        width = invert_success_rate(p_target, eta)
    elif phi is None and pairs != 1:
        widen_block(length, length, omega)  # rejects a bad omega
        return generate_pairs(length, pairs, rng)
    else:
        width = length if phi is None else phi
    return generate_subset(length, widen_block(length, width, omega), rng)


def encrypt_report(
    report: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Encrypt a report, or a (K, M) stack of reports, each with a fresh
    uniformly drawn pad.  A stack draws its pads in row order, from the
    same random numbers as K single-report calls.

    Returns:
        (ciphertext, pad): uint8 arrays of the report's shape; ciphertext
        is report xor pad.  A report not (M,) or (K, M) bits raises
        ValueError (`bits.as_bits`).
    """
    report = as_bits(report, subset.length, (1, 2), "report")
    pad = subset.draw(rng, report.shape[:-1])
    return report ^ pad, pad


def decrypt(ciphertext: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Invert `encrypt_report` given the pad actually used."""
    return xor(ciphertext, pad)


def _vote_weights(subset: PadSubset, weights) -> np.ndarray:
    """Given per-position vote weights as a checked float array."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (subset.length,):
        raise ValueError(f"weights must have shape ({subset.length},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    return w


def _signed(bits: np.ndarray, dtype) -> np.ndarray:
    """Map bits {0, 1} to {-1, +1}."""
    out = np.multiply(bits, 2, dtype=dtype)
    out -= 1
    return out


def _blocks(values: np.ndarray, subset: PadSubset) -> np.ndarray:
    """(..., length) values cut into the blocks of a described subset:
    (..., num_blocks, block_length), a view of `values` when the blocks
    tile the length.  A shorter last block is padded with zeros, which add
    nothing to a product or sum over the block."""
    lead, width = values.shape[:-1], subset.num_blocks * subset.block_length
    if width > subset.length:
        padded = np.zeros((*lead, width), values.dtype)
        padded[..., :subset.length] = values
        values = padded
    return values.reshape(*lead, subset.num_blocks, subset.block_length)


def _signed_blocks(bits: np.ndarray, subset: PadSubset, dtype) -> np.ndarray:
    """(..., length) bits as signs 2*bit - 1, cut into `_blocks`.  When the
    blocks tile the length the signs are the block buffer.  A shorter last
    block costs one copy into a zeroed buffer: signing straight into that
    row-strided buffer was slower, as a ufunc over it loops row by row."""
    return _blocks(_signed(bits, dtype), subset)


def _vote_blocks(
    targets: np.ndarray,
    subset: PadSubset,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """`recover_pads` on a described subset: a sign test per block.  A
    block's margin is the weight of its target bits that agree with the
    base pad less the weight of those that differ: the sum of w * (2a - 1)
    over the block, with a = (target == base).  Unit and 0/1 weights sum
    exactly in any order."""
    agree = _signed_blocks(targets == subset.base_pad.view(bool), subset, weights.dtype)
    margins = np.einsum("kbw,bw->kb", agree, _blocks(weights, subset))
    return subset._from_digits(_block_digits(margins, subset, rng))


def _block_digits(margins: np.ndarray, subset: PadSubset, rng: np.random.Generator) -> np.ndarray:
    """The digits of the pads that win per-block votes, from (..., num_blocks)
    margins of a described subset: each block takes the base block where its
    margin is positive and the complement where it is negative.  Rows that
    tie somewhere draw, in row order, one rank each over their tied blocks
    (`_draw_rank_runs`), whose digits fill those blocks in block order."""
    digits = subset.base_pad[::subset.block_length] ^ (margins < 0)
    tied = margins == 0
    if tied.any():
        counts = tied.sum(axis=-1).ravel()
        # the mask's row-major order is row order, then block order
        digits[tied] = _draw_rank_runs(rng, counts[counts > 0])
    return digits


def recover_pads(
    own_reports: np.ndarray,
    ciphertexts: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Known-plaintext pad recovery by weighted voting, one row per
    (receiver, sender) pair.

    For row k, each candidate pad scores the weights of the positions where
    it agrees with own_reports[k] xor ciphertexts[k]; the best-scoring pad
    wins.  Ties are broken row by row, in row order, from the same random
    numbers as `rng.choice(tied pad indices)` over the canonical order;
    rows without a tie draw nothing.  Unit weights count votes and log odds
    log(eta/(1-eta)) give the likelihood vote.  A voter gives zero weight to
    positions it did not observe: every alternative of an unobserved block
    then ties, and over a product subset the one draw among tied pads is a
    fair choice per such block.

    The kernel follows how the subset is stored:

    * A described subset is a product over blocks, so the best pad takes,
      per block, the base block or its complement, whichever the block's
      weight agrees with more, in float32 for unit weights.  The targets'
      signs against the base pad, cut into zero-padded blocks, are summed
      with the weights block by block in one product over (K, B, w):
      O(K*M) for every geometry.  An even split ties the block; when no
      row ties, the tie pass is skipped.  A row's t tied pads differ only
      on its tied blocks, so the tie draw is one rank `rng.integers(2**t)`
      whose digits, most significant first, give each tied block the
      alternative starting with that digit.  One `rng.integers` call draws
      every tied row's rank, from the same random numbers as a draw per
      row (see `_draw_rank_runs`).
    * Explicit pads: writing the target bits t and pad bits p as signs 2t-1
      and 2p-1, the weighted agreement is
      (sum(w) + sum(w * (2t-1) * (2p-1))) / 2, so every row's scores come
      from one matrix product against the subset's signed pads.  Unit-weight
      scores are exact integers in float32; given weights run in float64.
      One `rng.integers` call over a row slice's tied rows draws the r-th
      tied pad of each.

    Both kernels give the same pads and consume `rng` alike where sums are
    exact (unit or 0/1 weights); given real weights they are summed in
    another order, so near-ties may resolve differently.

    Args:
        own_reports: (K, M) receivers' own sensing reports for the slot.
        ciphertexts: (K, M) senders' published ciphertexts.
        subset: the public pad subset every sender drew from.
        rng: tie-break source.
        weights: optional finite (M,) per-position vote weights; unit by
            default.

    Returns:
        (K, M) array of winning pads (a new array).  Reports and
        ciphertexts not (K, M) bits of one shape raise ValueError.
    """
    own = as_bits(own_reports, subset.length, (2,), "own_reports")
    cipher = as_bits(ciphertexts, subset.length, (2,), "ciphertexts")
    if own.shape != cipher.shape:
        raise ValueError(f"own_reports {own.shape} and ciphertexts {cipher.shape} differ in shape")
    targets = np.bitwise_xor(own, cipher).view(bool)
    weights = subset._unit_weights if weights is None else _vote_weights(subset, weights)
    if subset.base_pad is not None:
        return _vote_blocks(targets, subset, weights, rng)
    signed_pads = _signed(subset.pads.T, weights.dtype)
    picks = np.empty(targets.shape[0], dtype=np.intp)
    step = max(1, SCORE_CHUNK // max(subset.size, subset.length))
    for lo in range(0, targets.shape[0], step):
        signed = _signed(targets[lo:lo + step], weights.dtype)
        signed *= weights  # the weights signed by the targets, exactly
        scores = signed @ signed_pads
        top = scores == scores.max(axis=1, keepdims=True)
        picks[lo:lo + step] = top.argmax(axis=1)
        ties = top.sum(axis=1)
        rows = np.flatnonzero(ties > 1)
        if rows.size:
            # the r-th tied pad of each tied row: `rng.choice` over its t
            # tied pads is `rng.integers(t)`, so one call draws them all
            r = rng.integers(ties[rows])
            picks[lo + rows] = (np.cumsum(top[rows], axis=1) <= r[:, None]).sum(axis=1)
    return subset.pads[picks]


def recover_pad(
    own_report: np.ndarray,
    ciphertext: np.ndarray,
    subset: PadSubset,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """`recover_pads` for a single (own_report, ciphertext) pair of (M,)
    bit vectors, checked there as one-row stacks.

    Returns:
        The winning pad (copy, length M).
    """
    own, cipher = np.asarray(own_report)[None], np.asarray(ciphertext)[None]
    return recover_pads(own, cipher, subset, rng, weights)[0]


def agreement_probability(
    profile_x: DetectorProfile,
    profile_y: DetectorProfile,
    occupancy,
) -> np.ndarray:
    """Per-channel probability that two honest users' reports agree.

    Conditioning on the channel state: both users err or neither does.

    Args:
        profile_x, profile_y: the two users' detector profiles.
        occupancy: per-channel busy probability (scalar or length-M vector).

    Returns:
        eta vector of shape (M,).  Values above 1/2 are what recovery
        voting relies on; nothing here enforces that.
    """
    if profile_x.num_channels != profile_y.num_channels:
        raise ValueError("profiles must cover the same number of channels")
    p1 = np.broadcast_to(np.asarray(occupancy, dtype=float), (profile_x.num_channels,))
    if not ((p1 >= 0) & (p1 <= 1)).all():
        raise ValueError("occupancy entries must lie in [0, 1]")
    fx, mx = profile_x.false_alarm, profile_x.miss
    fy, my = profile_y.false_alarm, profile_y.miss
    idle = (1 - fx) * (1 - fy) + fx * fy
    busy = (1 - mx) * (1 - my) + mx * my
    return (1 - p1) * idle + p1 * busy


def predict_success_rate(block_length: int, eta) -> float:
    """Probability that majority voting over a block recovers it.

    The number of agreeing positions is Poisson binomial over the block's
    eta values; success is at least ceil(n/2) agreements (exact ties, which
    only exist for even n, are counted as success here; `recover_pads`
    resolves them by coin flip, which is why block sizing sticks to odd n).

    Args:
        block_length: number of voting positions n >= 1.
        eta: scalar or length-n vector of agreement probabilities in [0, 1].

    Returns:
        P(#agreements >= ceil(n/2)) as a float.
    """
    n = int(block_length)
    if n < 1:
        raise ValueError(f"block_length must be >= 1, got {block_length}")
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        eta = np.full(n, float(eta))
    if eta.shape != (n,):
        raise ValueError(f"eta must be scalar or shape ({n},), got {eta.shape}")
    if not ((eta >= 0) & (eta <= 1)).all():
        raise ValueError("eta entries must lie in [0, 1]")
    for pmf in _agreement_pmfs(eta):
        pass
    return float(pmf[math.ceil(n / 2):].sum())


def _agreement_pmfs(eta: np.ndarray):
    """Yield the Poisson-binomial pmf of the agreement count over the first
    n positions, for n = 1, ..., len(eta): one DP that adds a position per
    step.  Each pmf is a length n + 1 view that the next step overwrites."""
    pmf = np.zeros(eta.size + 1)
    pmf[0] = 1.0
    for n, p in enumerate(eta, 1):
        pmf[1:n + 1] = pmf[1:n + 1] * (1.0 - p) + pmf[:n] * p
        pmf[0] *= 1.0 - p
        yield pmf[:n + 1]


def invert_success_rate(p_target: float, eta: float, max_block: int = 10001) -> int:
    """Smallest odd block length whose predicted recovery rate reaches
    p_target.

    Odd lengths only: even lengths admit exact voting ties, so the closed
    form above and the coin-flip tie break would disagree.

    Raises:
        ValueError: p_target outside (0, 1), eta outside (0, 1), or
            eta <= 1/2 while p_target > eta (no block length can help a
            coin-or-worse agreement rate), or max_block exceeded.
    """
    if not 0 < p_target < 1:
        raise ValueError(f"p_target must lie in (0, 1), got {p_target}")
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if p_target <= eta:
        return 1
    if eta <= 0.5:
        raise ValueError(f"eta={eta} <= 0.5 cannot reach p_target={p_target}")
    for n, pmf in enumerate(_agreement_pmfs(np.full(max_block, float(eta))), 1):
        if n % 2 and pmf[math.ceil(n / 2):].sum() >= p_target:
            return n
    raise ValueError(f"no odd block length <= {max_block} reaches {p_target} at eta={eta}")
