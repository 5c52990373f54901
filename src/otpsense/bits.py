"""Bit-vector helpers and the canonical text encoding.

Binary vectors (channel states, sensing reports, pads, ciphertexts) are
numpy uint8 arrays with values in {0, 1}.  Their text form is a big-endian
bit string, index 0 first, e.g. array([1,0,0,1]) <-> "1001".

`as_bits` is the one check of bit input: every public function that takes
bits passes them through it.  Entries are checked to be 0 or 1 before any
cast to uint8, so 256, 0.5, -1 or NaN raise ValueError rather than wrap,
truncate or overflow; a uint8 array costs one `max` pass and comes back as
the same object, uncopied.
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

