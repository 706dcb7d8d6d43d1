"""Binary feature-mask solution representation.

A solution is a bit string over the dataset's feature columns: bit i is 1
when feature i is selected. Masks are immutable value objects, so they
can be shared freely between the local searches and the fitness cache.
The bits are stored as bools, the item type the compiled heuristics read
and write, so masks pass into and out of them without a conversion.
"""

from __future__ import annotations

import numpy as np


class FeatureMask:
    """Immutable 0/1 vector over ``n`` features, in dataset column order:
    a read-only bool array of its own."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        given = np.asarray(bits)
        if given.ndim != 1 or given.size == 0:
            raise ValueError("mask must be a non-empty 1-d bit vector")
        # checked before the cast, which would read 0.5 and 2 as True
        if given.dtype != np.bool_ and not np.all((given == 0) | (given == 1)):
            raise ValueError("mask bits must be 0 or 1")
        arr = given.astype(bool)
        arr.setflags(write=False)
        self.bits = arr

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "FeatureMask":
        """Draw each bit Bernoulli(0.5); an all-zero draw gets one bit set.

        A solution must select something, so the (probability 2**-n)
        all-zero draw is repaired by setting one uniformly chosen bit.
        """
        if n < 1:
            raise ValueError("need at least one feature")
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        if not bits.any():
            bits[int(rng.integers(n))] = 1
        return cls(bits)

    @classmethod
    def ones(cls, n: int) -> "FeatureMask":
        return cls(np.ones(n, dtype=bool))

    @property
    def n(self) -> int:
        return self.bits.size

    def selected_count(self) -> int:
        """Number of selected features (the subset size m)."""
        return int(self.bits.sum())

    def selected_indices(self) -> np.ndarray:
        """Strictly increasing indices of the 1-bits; may be empty."""
        return np.flatnonzero(self.bits)

    def key(self) -> bytes:
        """Hashable identity of the bit pattern, used as cache key: one
        byte per bit, 0 or 1."""
        return self.bits.tobytes()

    def to01(self) -> str:
        """Serialize as a string of '0'/'1' characters."""
        return "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from01(cls, s: str) -> "FeatureMask":
        return cls(np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMask):
            return NotImplemented
        return self.n == other.n and bool(np.all(self.bits == other.bits))

    def __hash__(self) -> int:
        return hash(self.key())

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled mask is read-only too
        return FeatureMask, (self.bits,)

    def __repr__(self) -> str:
        return f"FeatureMask({self.to01()!r})"
