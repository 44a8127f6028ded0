"""Pinned 64-bit linear congruential generator.

Seeded fixtures must be reproducible bit-for-bit by any implementation, so the
generator is specified exactly: the state is a 64-bit unsigned integer and
advances as

    x  <-  (6364136223846793005 * x + 1442695040888963407)  mod 2**64

A uniform double in [0, 1) takes the top 53 bits: (x >> 11) * 2**-53.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .simplicial import _ids

MASK64 = (1 << 64) - 1
MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407


class Lcg64:
    """Deterministic linear generator; not for cryptography, only fixtures."""

    def __init__(self, seed: int):
        self.state = _ids((seed,), "seed")[0] & MASK64

    def next_u64(self) -> int:
        self.state = (MULTIPLIER * self.state + INCREMENT) & MASK64
        return self.state

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def randint(self, low: int, high: int) -> int:
        """Uniform-ish integer in [low, high], inclusive; the bounds are read by ``_ids``'s rule."""
        low, high = _ids((low, high), "randint bounds")
        if high < low:
            raise InvalidInputError(f"empty range [{low}, {high}]")
        return low + self.next_u64() % (high - low + 1)
