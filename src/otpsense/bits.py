"""Bit-vector helpers and the canonical text encoding.

Binary vectors (channel states, sensing reports, pads, ciphertexts) are
numpy uint8 arrays with values in {0, 1}.  Their text form is a big-endian
bit string, index 0 first, e.g. array([1,0,0,1]) <-> "1001".

`as_bits` is the one check of bit input: every public function that takes
bits passes them through it.  Entries are checked to be 0 or 1 before any
cast to uint8, so 256, 0.5, -1 or NaN raise ValueError rather than wrap,
truncate or overflow; a uint8 array costs one `max` pass and comes back as
the same object, uncopied.

Bernoulli bits are drawn by integer comparison: `uniform_words` draws
uniform uint32 words from a generator's 64-bit outputs, and a word is
`below` a rate's `thresholds`, floor(rate * 2**32), with probability
exactly threshold / 2**32.  A rate is so met to within 2**-32, and the
rates 0 and 1 exactly.
"""

from __future__ import annotations

import numpy as np


def as_bits(values, length: int | None = None, ndims: tuple[int, ...] | None = (1,),
            name: str = "bit vector") -> np.ndarray:
    """`values` as a uint8 bit array with `ndims` dimensions (any, if None)
    and a last axis of `length` entries (any, if None), checked before any
    cast; a uint8 ndarray comes back as itself.  Anything else raises
    ValueError naming `name`."""
    a = np.asarray(values)
    if (ndims is not None and a.ndim not in ndims) or (
            length is not None and a.shape[-1:] != (length,)):
        dims = "any" if ndims is None else " or ".join(map(str, ndims))
        last = "" if length is None else f" with last axis {length}"
        raise ValueError(f"{name} must be {dims}-D{last}, got shape {a.shape}")
    if (a.max(initial=0) > 1 if a.dtype == np.uint8 else not ((a == 0) | (a == 1)).all()):
        raise ValueError(f"{name} entries must be 0 or 1")
    return a.astype(np.uint8, copy=False)


def random_bits(length: int, rng: np.random.Generator) -> np.ndarray:
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def uniform_words(rng: np.random.Generator, slots: int, cells: int) -> np.ndarray:
    """(slots, cells) uniform uint32 words from `rng`'s bit generator.  Each
    slot takes ceil(cells / 2) whole 64-bit outputs, split into two words
    in native byte order (low half first on little-endian machines), and
    drops its last half-output when cells is odd.  So a draw of T slots
    takes the same random numbers as T one-slot draws."""
    outputs = -(-cells // 2)
    words = rng.bit_generator.random_raw(slots * outputs).view(np.uint32)
    words = words.reshape(slots, 2 * outputs)
    return words if cells % 2 == 0 else words[:, :cells]


def thresholds(rates) -> tuple[np.ndarray, np.ndarray | None]:
    """The uint32 thresholds floor(rate * 2**32) of rates in [0, 1], for
    `below`.  Rate 1's threshold, 2**32, fits no uint32 (and numpy casts
    it to 0 without a warning), so it is stored as 2**32 - 1 beside a mask
    of the rate-1 entries; the mask is None where there are none."""
    t = np.floor(np.clip(np.asarray(rates, dtype=float), 0.0, 1.0) * 2.0 ** 32)
    ones = t == 2.0 ** 32
    return np.minimum(t, 2.0 ** 32 - 1).astype(np.uint32), (ones if ones.any() else None)


def below(words: np.ndarray, thresholds: tuple[np.ndarray, np.ndarray | None]) -> np.ndarray:
    """Bernoulli bits, as bools: each uniform word is below its threshold
    (rate = threshold / 2**32), and every word is below rate 1's."""
    t, ones = thresholds
    hit = words < t
    if ones is not None:
        hit |= ones
    return hit


def xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_bits(a)
    b = as_bits(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return np.bitwise_xor(a, b)


def complement(a) -> np.ndarray:
    return np.bitwise_xor(as_bits(a), 1)


def to_string(a) -> str:
    return "".join("1" if v else "0" for v in as_bits(a))


def from_string(s: str) -> np.ndarray:
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a bit string: {s!r}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")

