"""Storage vs repair-bandwidth tradeoff bounds, evaluated exactly.

Classical repair with per-helper download beta_c is feasible when

    sum_{i=0}^{k-1} min((d-i) beta_c, alpha) >= B,

and entanglement-assisted repair with beta_q qudits per helper when

    sum_{i=0}^{k-1} min(2 (d-i) beta_q, d beta_q, alpha) >= B.

For d >= 2k-2 every term of the quantum sum capped at d beta_q, so the
single point (alpha, d beta_q) = (B/k, B/k) meets the bound with equality:
storage and repair bandwidth bottom out together. All arithmetic is exact
(ints and Fractions); nothing here proves the bounds, it only evaluates
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from collections.abc import Iterable, Sequence

from .errors import BoundNotMet, Indivisible, InvalidRegime, RegimeViolation

Num = Rational  # ints and Fractions both qualify


def check_regime(k: int, d: int, alpha, beta, b) -> None:
    if not (1 <= k <= d):
        raise InvalidRegime(f"need 1 <= k <= d, got k={k}, d={d}")
    if alpha < 0 or beta < 0 or b < 0:
        raise InvalidRegime("alpha, beta and B must be non-negative")


@dataclass(frozen=True)
class TradeoffPoint:
    alpha: Num
    beta: Num
    d: int
    k: int
    B: Num
    feasible: bool


def _first_true(n: int, pred) -> int:
    """The least i in [0, n) with pred(i), or n, for a pred that is False
    and then True; a bisection over two ints, so n may exceed sys.maxsize."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
    return lo


def classical_sum(k: int, d: int, alpha: Num, beta_c: Num) -> Num:
    """sum_{i<k} min((d - i) beta_c, alpha) for beta_c >= 0: the terms fall
    with i, so the first t are capped at alpha and the rest are an arithmetic series."""
    t = _first_true(k, lambda i: (d - i) * beta_c < alpha)
    return t * alpha + beta_c * ((k - t) * d - (t + k - 1) * (k - t) // 2)


def quantum_sum(k: int, d: int, alpha: Num, beta_q: Num) -> Num:
    # the classical term at 2 beta_q, with the cap lowered to min(d beta_q, alpha)
    return classical_sum(k, d, min(d * beta_q, alpha), 2 * beta_q)


def optimal_point(k: int, d: int, b: int) -> TradeoffPoint:
    """The simultaneous minimum (alpha, d beta_q) = (B/k, B/k), d >= 2k-2."""
    check_regime(k, d, 0, 0, b)  # before dividing by k * d
    if d < 2 * k - 2:
        raise RegimeViolation(f"need d >= 2k-2 = {2 * k - 2}, got d={d}")
    if b % k != 0 or b % (k * d) != 0:
        raise Indivisible(f"B={b} must be divisible by k*d={k * d}")
    alpha = b // k
    beta = b // (k * d)
    if quantum_sum(k, d, alpha, beta) != b:
        raise BoundNotMet(f"optimal point ({alpha}, {beta}) misses B={b}")
    return TradeoffPoint(alpha=alpha, beta=beta, d=d, k=k, B=b, feasible=True)


def classical_msr_bandwidth(k: int, d: int, b: int) -> Fraction:
    """Minimum-storage classical repair download (B/k) * d / (d-k+1)."""
    check_regime(k, d, 0, 0, b)
    return Fraction(b, k) * Fraction(d, d - k + 1)


def _alpha_min(summand, k: int, d: int, beta: Num, b: int) -> int | None:
    """Least integer alpha making the bound feasible, or None.

    The sum is nondecreasing in alpha, so bisect on [0, B].
    """
    alpha = _first_true(b + 1, lambda a: summand(k, d, a, beta) >= b)
    return alpha if alpha <= b else None


def alpha_min_classical(k: int, d: int, beta_c: Num, b: int) -> int | None:
    check_regime(k, d, 0, beta_c, b)
    return _alpha_min(classical_sum, k, d, beta_c, b)


def alpha_min_quantum(k: int, d: int, beta_q: Num, b: int) -> int | None:
    check_regime(k, d, 0, beta_q, b)
    return _alpha_min(quantum_sum, k, d, beta_q, b)


def tradeoff_table(
    k: int, d: int, b: int, betas: Iterable[Num]
) -> list[tuple[Num, int | None, int | None]]:
    """(beta, alpha_min_classical, alpha_min_quantum) per grid value."""
    return [
        (beta, alpha_min_classical(k, d, beta, b), alpha_min_quantum(k, d, beta, b))
        for beta in betas
    ]


def table_csv(rows: Sequence[tuple[Num, int | None, int | None]]) -> str:
    """CSV rendering; infeasible cells are left empty."""
    lines = ["beta,alpha_min_classical,alpha_min_quantum"]
    for beta, a_c, a_q in rows:
        lines.append(
            f"{beta},{'' if a_c is None else a_c},{'' if a_q is None else a_q}"
        )
    return "\n".join(lines) + "\n"
