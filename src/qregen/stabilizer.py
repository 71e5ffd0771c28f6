"""Classical simulation of qudit Pauli errors and stabilizer syndromes.

A stabilizer group over N qudits of prime dimension p is generated by
X-type operators X(g) (rows g of the X parity check) and Z-type operators
Z(h) (rows h of the Z parity check); ``StabGroup`` holds both checks as
2-D object arrays of ints in [0, p). For an error X(x)Z(z) applied to a
state in the codespace, three interchangeable backends compute the
measured syndrome. Each takes the group and the exponent vectors x and z,
reduces them mod p, checks that each has one entry per qudit, and returns
the pair (s_x, s_z) of object arrays: s_x per Z-type generator, s_z per
X-type one.

* ``syndrome_linear``: the syndrome map itself, sX = HZ x and sZ = HX z,
  as plain matrix-vector products mod p.
* ``syndrome_symplectic``: commutation phases. A generator written as the
  symplectic row (a | b) picks up the phase exponent <(a|b), (x|z)> =
  b.x - a.z when commuted past the error. Z-type rows (0 | h) report
  +h.x directly; X-type rows (g | 0) have raw phase -g.z, so their
  reported component is the negated pairing. With that sign convention
  both backends agree entry for entry.
* ``syndrome_statevector``: a literal state-vector simulation. The
  codespace state is the normalized projector image of |0>: every Z
  projector keeps |0>, since h.0 = 0, and the X projectors then spread it
  uniformly over the row space of HX. So the state lives on the p^rank(HX)
  codewords t HX, and ``prepare_codespace`` keeps only that support and its
  amplitudes, never all p^N. The error X(x)Z(z), with X|j> = |j+1 mod p>
  and Z|j> = w^j |j>, w = exp(2 pi i / p), moves each codeword c to c + x
  with the phase w^(z.c), and each generator's eigenvalue w^s is read off
  a single amplitude. Raw exponents are sign-fixed exactly as in the
  symplectic backend. Validation only. With r X generators the support
  has at most p^r entries; the size guard keeps p^r at or below 2^20, and
  p too, so that int64 holds every entry sum and float64 phases tell the
  p-th roots of unity apart.

Global phases never matter: syndromes are ratios of eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DualContainmentViolated,
    ResidualOutOfTolerance,
    TooLarge,
)
from .matrix import matmul_mod

STATE_LIMIT = 1 << 20
RESIDUAL_TOL = 1e-6


def check_dual_containment(hx: np.ndarray, hz: np.ndarray, p: int) -> bool:
    """True iff HX HZ^T = 0 mod p, i.e. the pair defines a valid stabilizer
    group. Both are 2-D arrays of ints in [0, p) of the same width."""
    if hx.ndim != 2 or hz.ndim != 2 or hx.shape[1] != hz.shape[1]:
        raise DimensionMismatch("HX and HZ must be matrices of one width")
    return not matmul_mod(hx, hz.T, p).any()


@dataclass(frozen=True, eq=False)
class StabGroup:
    """Generators of a CSS-form stabilizer group on N qudits: the rows of
    ``x_type`` (HX) and of ``z_type`` (HZ), each a 2-D object array of ints
    in [0, p). Equality is identity."""

    x_type: np.ndarray
    z_type: np.ndarray
    p: int

    def __post_init__(self):
        if not check_dual_containment(self.x_type, self.z_type, self.p):
            raise DualContainmentViolated("X and Z generators do not commute")

    @property
    def n(self) -> int:
        return self.x_type.shape[1]


def _reduced(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """The error exponents x and z as object arrays of ints in [0, p)."""
    if not len(x) == len(z) == group.n:
        raise DimensionMismatch(
            f"error acts on {len(x)} and {len(z)} qudits, group on {group.n}"
        )
    return np.array(x, dtype=object) % group.p, np.array(z, dtype=object) % group.p


def syndrome_linear(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """sX = HZ x and sZ = HX z."""
    x, z = _reduced(group, x, z)
    return matmul_mod(group.z_type, x, group.p), matmul_mod(group.x_type, z, group.p)


def syndrome_symplectic(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """Syndromes via symplectic commutation phases (sign-fixed per type)."""
    x, z = _reduced(group, x, z)
    n, r = group.n, len(group.z_type)
    # one symplectic row (a | b) per generator: Z-type (0 | h), X-type (g | 0)
    gens = np.zeros((r + len(group.x_type), 2 * n), dtype=object)
    gens[:r, n:] = group.z_type
    gens[r:, :n] = group.x_type
    # <(a|b), (x|z)> = b.x - a.z for every generator (a | b)
    phase = matmul_mod(gens, np.concatenate([-z, x]), group.p)
    return phase[:r], -phase[r:] % group.p


def prepare_codespace(group: StabGroup) -> tuple[np.ndarray, np.ndarray]:
    """The normalized projector image of |0>, as (support, amplitudes).

    ``support`` holds the distinct codewords t HX mod p as int64 rows in
    ascending lexicographic order, ``amplitudes`` their uniform complex
    amplitudes. Raises TooLarge over the module's size bound.
    """
    p, r = group.p, len(group.x_type)
    if p > STATE_LIMIT:
        raise TooLarge(f"p = {p} exceeds the {STATE_LIMIT} limit on distinct phases")
    if p**r > STATE_LIMIT:
        raise TooLarge(f"{p}^{r} amplitudes exceed the {STATE_LIMIT} limit")
    support = np.zeros((1, group.n), dtype=np.int64)
    steps = np.arange(p, dtype=np.int64)[:, None, None]
    for g in group.x_type.astype(np.int64):
        # {c + t g : c in support, t in GF(p)}; entries stay below p^2
        support = ((support + steps * g) % p).reshape(-1, group.n)
    # distinct rows in lexicographic order; dependent generators repeat rows
    support = support[np.lexsort(support.T[::-1])]
    support = support[np.r_[True, (support[1:] != support[:-1]).any(axis=1)]]
    return support, np.full(len(support), len(support) ** -0.5, dtype=complex)


def _omega(s, p: int):
    """w^s for w = exp(2 pi i / p)."""
    return np.exp(2j * np.pi * s / p)


def _measure_exponent(
    support: np.ndarray, amps: np.ndarray, p: int, a, b
) -> tuple[int, float]:
    """Exponent s with X(a)Z(b)|state> = w^s |state>, plus the residual."""
    # entry j0 = support[0] of X(a)Z(b)|state> is w^(b.j) state[j], j = j0 - a
    j = (support[0] - np.asarray(a, dtype=np.int64)) % p
    hit = np.flatnonzero((support == j).all(axis=1))
    amp = amps[hit[0]] if len(hit) else 0.0
    ratio = _omega(matmul_mod(j, np.asarray(b, dtype=object), p), p) * amp / amps[0]
    s = int(round(p * (np.angle(ratio) % (2 * np.pi)) / (2 * np.pi))) % p
    return s, abs(ratio - _omega(s, p))


def syndrome_statevector(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """State-vector simulation on the codespace's support; must agree with
    syndrome_linear."""
    x, z = _reduced(group, x, z)
    p = group.p
    support, amps = prepare_codespace(group)
    # X(x)Z(z)|c> = w^(z.c) |c + x>
    amps = amps * _omega(matmul_mod(support, z, p).astype(np.int64), p)
    support = (support + x.astype(np.int64)) % p

    zero = [0] * group.n
    gens = [(zero, h) for h in group.z_type]
    gens += [(g, zero) for g in group.x_type]
    measured = [_measure_exponent(support, amps, p, a, b) for a, b in gens]
    worst = max((res for _, res in measured), default=0.0)
    if not worst < RESIDUAL_TOL:
        raise ResidualOutOfTolerance(f"eigenvalue residual {worst} out of tolerance")
    s = np.array([e for e, _ in measured], dtype=object)
    r = len(group.z_type)
    return s[:r], -s[r:] % p
