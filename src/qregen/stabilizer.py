"""Classical simulation of qudit Pauli errors and stabilizer syndromes.

A stabilizer group over N qudits of prime dimension p is generated by
X-type operators X(g) (rows g of the X parity check) and Z-type operators
Z(h) (rows h of the Z parity check). For an error X(x)Z(z) applied to a
state in the codespace, three interchangeable backends compute the
measured syndrome:

* ``syndrome_linear``: the syndrome map itself, sX = HZ x and sZ = HX z,
  as plain matrix-vector products mod p.
* ``syndrome_symplectic``: commutation phases. A generator written as the
  symplectic row (a | b) picks up the phase exponent <(a|b), (x|z)> =
  b.x - a.z when commuted past the error. Z-type rows (0 | h) report
  +h.x directly; X-type rows (g | 0) have raw phase -g.z, so their
  reported component is the negated pairing. With that sign convention
  both backends agree entry for entry.
* ``syndrome_statevector``: a literal complex vector of p^N amplitudes.
  The codespace state is the normalized projector image of a computational
  basis state (retrying basis states in lexicographic order if one
  projects to zero), the error is applied as the unitary X(x)Z(z) with
  X|j> = |j+1 mod p> and Z|j> = w^j |j>, w = exp(2 pi i / p), and each
  generator's eigenvalue w^s is read off a single amplitude. Raw
  exponents are sign-fixed exactly as in the symplectic backend. The
  projector needs one shift table per X generator, as X(tg) = X(g)^t.
  Validation only; the size guard keeps p^N at or below 2^20 amplitudes.

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
    ZeroProjection,
)
from .matrix import Mat, matmul_mod

STATE_LIMIT = 1 << 20
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class PauliError:
    """Exponent vectors of an N-qudit error X(x)Z(z)."""

    x: tuple[int, ...]
    z: tuple[int, ...]

    @classmethod
    def make(cls, p: int, x, z) -> "PauliError":
        if len(x) != len(z):
            raise DimensionMismatch("x and z must have equal length")
        return cls(tuple(v % p for v in x), tuple(v % p for v in z))


def check_dual_containment(hx: Mat, hz: Mat) -> bool:
    """True iff HX HZ^T = 0, i.e. the pair defines a valid stabilizer group."""
    if hx.cols != hz.cols or hx.field != hz.field:
        raise DimensionMismatch("HX and HZ must share width and field")
    return (hx @ hz.T).is_zero()


@dataclass(frozen=True)
class StabGroup:
    """Generators of a CSS-form stabilizer group on N qudits."""

    x_type: Mat
    z_type: Mat

    def __post_init__(self):
        if not check_dual_containment(self.x_type, self.z_type):
            raise DualContainmentViolated("X and Z generators do not commute")

    @property
    def n(self) -> int:
        return self.x_type.cols

    @property
    def p(self) -> int:
        return self.x_type.field.p


@dataclass(frozen=True)
class Syndrome:
    """Measured exponents: s_x per Z-type generator, s_z per X-type."""

    s_x: tuple[int, ...]
    s_z: tuple[int, ...]


def _check_error(group: StabGroup, err: PauliError) -> None:
    if len(err.x) != group.n or len(err.z) != group.n:
        raise DimensionMismatch(
            f"error acts on {len(err.x)} qudits, group on {group.n}"
        )


def syndrome_linear(group: StabGroup, err: PauliError) -> Syndrome:
    """sX = HZ x and sZ = HX z."""
    _check_error(group, err)
    x, z = np.array(err.x, dtype=object), np.array(err.z, dtype=object)
    return Syndrome(
        s_x=tuple(matmul_mod(group.z_type.data, x, group.p).tolist()),
        s_z=tuple(matmul_mod(group.x_type.data, z, group.p).tolist()),
    )


def syndrome_symplectic(group: StabGroup, err: PauliError) -> Syndrome:
    """Syndromes via symplectic commutation phases (sign-fixed per type)."""
    _check_error(group, err)
    n, r = group.n, group.z_type.rows
    # one symplectic row (a | b) per generator: Z-type (0 | h), X-type (g | 0)
    gens = np.zeros((r + group.x_type.rows, 2 * n), dtype=object)
    gens[:r, n:] = group.z_type.data
    gens[r:, :n] = group.x_type.data
    x, z = np.array(err.x, dtype=object), np.array(err.z, dtype=object)
    # <(a|b), (x|z)> = b.x - a.z for every generator (a | b)
    phase = matmul_mod(gens, np.concatenate([-z, x]), group.p)
    return Syndrome(
        s_x=tuple(phase[:r].tolist()), s_z=tuple((-phase[r:] % group.p).tolist())
    )


class _StateSpace:
    """Index bookkeeping for N qudits of dimension p."""

    def __init__(self, p: int, n: int):
        if p**n > STATE_LIMIT:
            raise TooLarge(f"{p}^{n} amplitudes exceed the {STATE_LIMIT} limit")
        self.p = p
        self.n = n
        self.size = p**n
        # digits[i] = base-p expansion of i, qudit 0 most significant
        self.digits = np.indices((p,) * n).reshape(n, -1).T
        self.radix = p ** np.arange(n - 1, -1, -1)
        self.omega_pow = np.exp(2j * np.pi * np.arange(p) / p)

    def shift_indices(self, g) -> np.ndarray:
        """Flat index of j + g (componentwise mod p) for every j."""
        return ((self.digits + np.asarray(g)) % self.p) @ self.radix

    def phase_exponents(self, h) -> np.ndarray:
        """h . j mod p for every basis index j."""
        return (self.digits @ np.asarray(h)) % self.p

    def apply_pauli(self, state: np.ndarray, x, z) -> np.ndarray:
        """X(x)Z(z)|j> = w^(z.j) |j + x>."""
        out = np.empty_like(state)
        out[self.shift_indices(x)] = self.omega_pow[self.phase_exponents(z)] * state
        return out


def prepare_codespace(group: StabGroup, start_basis: int = 0) -> tuple[np.ndarray, int]:
    """Normalized projector image of the first surviving basis state.

    Applies prod over generators of (1/p) sum_t S^t to |b> for b =
    start_basis, start_basis + 1, ... and returns the first nonzero result
    together with the basis index used. Raises ZeroProjection only if every
    basis state from start_basis onward projects to zero (cannot happen for
    a commuting CSS pair starting from 0, but the retry rule is fixed here
    for reproducibility).
    """
    p = group.p
    space = _StateSpace(p, group.n)
    z_masks = [space.phase_exponents(h) == 0 for h in group.z_type.to_rows()]
    # X(tg) = X(g)^t, so one gather table (j -> j - g) per generator serves all t
    x_back = [space.shift_indices([-x for x in g]) for g in group.x_type.to_rows()]
    for basis in range(start_basis, space.size):
        state = np.zeros(space.size, dtype=complex)
        state[basis] = 1.0
        for mask in z_masks:
            state = state * mask
        for back in x_back:
            acc = moved = state
            for _ in range(p - 1):
                moved = moved[back]
                acc = acc + moved
            state = acc / p
        norm = np.linalg.norm(state)
        if norm > 1e-9:
            return state / norm, basis
    raise ZeroProjection(f"no basis state from {start_basis} survives projection")


def _measure_exponent(
    space: _StateSpace, state: np.ndarray, a, b
) -> tuple[int, float]:
    """Exponent s with X(a)Z(b)|state> = w^s |state>, plus the residual."""
    # entry i0 of X(a)Z(b)|state> is w^(b.j) state[j] with j = i0 - a
    i0 = int(np.argmax(np.abs(state)))
    j = (space.digits[i0] - np.asarray(a)) % space.p
    phase = space.omega_pow[int(j @ np.asarray(b)) % space.p]
    ratio = phase * state[int(j @ space.radix)] / state[i0]
    angle = np.angle(ratio) % (2 * np.pi)
    s = int(round(space.p * angle / (2 * np.pi))) % space.p
    return s, abs(ratio - space.omega_pow[s])


def syndrome_statevector(
    group: StabGroup,
    err: PauliError,
    *,
    state: np.ndarray | None = None,
    with_residual: bool = False,
):
    """Full p^N simulation; must agree with syndrome_linear.

    ``state`` may carry a pre-built codespace vector (from
    prepare_codespace) to amortize preparation over many errors.
    """
    _check_error(group, err)
    p = group.p
    space = _StateSpace(p, group.n)
    if state is None:
        state, _ = prepare_codespace(group)
    corrupted = space.apply_pauli(state, err.x, err.z)

    zero = [0] * group.n
    worst = 0.0
    s_x = []
    for i in range(group.z_type.rows):
        s, res = _measure_exponent(space, corrupted, zero, group.z_type.row(i))
        worst = max(worst, res)
        s_x.append(s)
    s_z = []
    for i in range(group.x_type.rows):
        s, res = _measure_exponent(space, corrupted, group.x_type.row(i), zero)
        worst = max(worst, res)
        s_z.append(-s % p)
    if not worst < RESIDUAL_TOL:
        raise ResidualOutOfTolerance(f"eigenvalue residual {worst} out of tolerance")
    syn = Syndrome(s_x=tuple(s_x), s_z=tuple(s_z))
    return (syn, worst) if with_residual else syn
