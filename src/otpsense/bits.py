"""Bit-vector helpers and the canonical text encoding.

Binary vectors (channel states, sensing reports, pads, ciphertexts) are
numpy uint8 arrays with values in {0, 1}.  Their text form is a big-endian
bit string, index 0 first, e.g. array([1,0,0,1]) <-> "1001".
"""

from __future__ import annotations

import numpy as np


def as_bits(values) -> np.ndarray:
    """Coerce a sequence of 0/1 values to a uint8 bit vector."""
    a = np.asarray(values, dtype=np.uint8)
    if a.ndim != 1:
        raise ValueError(f"expected 1-D bit vector, got shape {a.shape}")
    if a.size and a.max() > 1:
        raise ValueError("bit vector entries must be 0 or 1")
    return a


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

