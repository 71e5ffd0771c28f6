"""Deterministic 64-bit random stream for reproducible trials.

The generator is SplitMix64. Its full state is one 64-bit word and the
transition is fixed here so that ports in other languages can replay any
transcript bit for bit:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z ^ (z >> 31)

Bounded draws reduce the raw output modulo the bound. The tiny modulo bias
is irrelevant for simulation purposes; what matters is that the reduction
rule is part of the specification above.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) by modulo reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def unit(self, p: int) -> int:
        """Nonzero field element in [1, p)."""
        return 1 + self.below(p - 1)
