"""Exact arithmetic in the prime field GF(p).

Field elements are plain ints in [0, p); a GF instance carries the modulus
and its inversions, and scalars use Python's operators. All of it is Python
ints, so results are exact for any supported p (no overflow to worry about).
``GF.inv_array`` is the one batch inversion of the codes' cold paths: for
p <= _TABLE_CAP a gather from a read-only per-field table of every inverse,
built once per process with one ``inv_all``; above it one ``inv_all``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .errors import DivisionByZero


# Miller-Rabin bases 2..37: exact for every n below _MR_EXACT_BELOW, which
# covers all 64-bit n; that bound is the first composite passing them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461
# fields of order up to this invert arrays by one gather from a table of all
# their inverses: at p = 4093 the table takes 1.5-1.7 ms (one inv_all) and
# 32 KiB to build, and a gather of 336 values 2-4 us against 76-88 us for
# inv_all (shared 2-core VM), so it pays back after about 20 cold 28-code
# repair builds; at 2^16 it would take about 30 ms and 512 KiB, more than a
# one-shot CLI call spends. Larger fields take inv_all per batch.
_TABLE_CAP = 1 << 12


def is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES; deterministic below _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GF:
    """The prime field of order p, for p below _MR_EXACT_BELOW, where
    ``is_prime`` is proven."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= _MR_EXACT_BELOW:
            raise ValueError(
                f"field order must be below {_MR_EXACT_BELOW}, where primality "
                f"is proven; got {p}"
            )
        if not is_prime(p):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def inv(self, a: int) -> int:
        """Multiplicative inverse by Fermat exponentiation; a must be nonzero."""
        a %= self.p
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def inv_all(self, values: Sequence[int]) -> list[int]:
        """The inverse of every value with one ``inv``: prefix products, the
        inverse of their total, then back-substitution. A zero raises
        DivisionByZero."""
        p = self.p
        prefix = [1]
        for v in values:
            prefix.append(prefix[-1] * v % p)
        acc = self.inv(prefix[-1])  # 1 / (v_0 ... v_last)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = acc * prefix[i] % p  # 1 / v_i
            acc = acc * values[i] % p  # now 1 / (v_0 ... v_(i-1))
        return out

    def inv_array(self, values: np.ndarray) -> np.ndarray:
        """The inverse of every entry of an array of ints in [0, p), in its
        shape and dtype, which is int64 whenever p <= _TABLE_CAP: one gather
        from ``_inverses`` there, one ``inv_all`` above it. A zero raises
        DivisionByZero."""
        if self.p <= _TABLE_CAP:
            if not values.all():
                raise DivisionByZero("0 has no multiplicative inverse")
            return _inverses(self)[values]
        inverses = self.inv_all(values.ravel().tolist())
        return np.array(inverses, dtype=values.dtype).reshape(values.shape)

    def powers(self, a: int, m: int) -> list[int]:
        """(1, a, ..., a^(m-1)) mod p, by a running product."""
        out, acc = [], 1
        for _ in range(m):
            out.append(acc)
            acc = acc * a % self.p
        return out


@lru_cache(maxsize=16)
def _inverses(field: GF) -> np.ndarray:
    """The read-only int64 table of 1 / a for every a in [0, p), 0 at 0,
    from one ``inv_all``."""
    table = np.array([0, *field.inv_all(range(1, field.p))], dtype=np.int64)
    table.flags.writeable = False
    return table
