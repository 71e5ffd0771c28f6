"""Classical simulation of qudit Pauli errors and stabilizer syndromes.

A stabilizer group over N qudits of prime dimension p is generated by
X-type operators X(g) (rows g of the X parity check) and Z-type operators
Z(h) (rows h of the Z parity check); ``StabGroup`` holds both checks as
2-D arrays of ints in [0, p) in ``exact_dtype(1, p)``, int64 when
(p - 1)^2 < 2^63 and Python ints above that. It may also hold a stack of
groups of one shape, as (..., r, N) arrays: ``check_dual_containment``
then checks HX HZ^T = 0 for all of them in one batched product, and ``n``
is the last axis. For an error X(x)Z(z) applied to a state in the
codespace, three interchangeable backends compute the measured syndrome.
Each takes the group and the exponent vectors x and z, one (..., N) vector
per group of the stack, reduces them mod p into ``exact_dtype(1, p)``,
checks their shape against the group's, and returns the pair (s_x, s_z) in
that dtype: s_x per Z-type generator, s_z per X-type one, stacked like the
groups.

* ``syndrome_linear``: the syndrome map itself, sX = HZ x and sZ = HX z,
  as plain matrix-vector products mod p, one batched product each.
* ``syndrome_symplectic``: commutation phases. A generator written as the
  symplectic row (a | b) picks up the phase exponent <(a|b), (x|z)> =
  b.x - a.z when commuted past the error. ``_generators`` writes Z(h) as
  (0 | h), phase h.x, and X(g) as its inverse X(-g), the row (-g | 0),
  phase g.z, so every phase is a syndrome entry and both backends agree
  entry for entry.
* ``syndrome_statevector``: a literal state-vector simulation, of one
  group or of a whole stack at once. The codespace state is the
  normalized projector image of |0>: every Z projector keeps |0>, since
  h.0 = 0, and the X projectors then spread it uniformly over the row
  space of HX. So the state lives on the p^rank(HX) codewords t HX, and
  ``prepare_codespace`` keeps only that support and its amplitudes, never
  all p^N; a stack keeps p^r rows per group, a repeated codeword with
  amplitude 0. The error X(x)Z(z), with X|j> = |j+1 mod p> and
  Z|j> = w^j |j>, w = exp(2 pi i / p), moves each codeword c to c + x
  with the phase w^(z.c), and each generator's eigenvalue w^s is read off
  a single amplitude. Every codeword is keyed as one base-p integer, so
  one sort of the moved stack's keys and one ``searchsorted`` find the
  amplitude of every generator of every group, ``_generators``' rows as
  in the symplectic backend. Validation only. With r X generators a
  group's support has p^r entries; the size guard keeps p^r at or below
  2^20, and p too, so that int64 holds every entry sum and float64 phases
  tell the p-th roots of unity apart. A stack is measured in slices of at
  most 2^20 support entries in all.

Global phases never matter: syndromes are ratios of eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DualContainmentViolated,
    ResidualOutOfTolerance,
    TooLarge,
)
from .matrix import _INT64_LIMIT, exact_dtype, matmul_mod

STATE_LIMIT = 1 << 20
RESIDUAL_TOL = 1e-6


def check_dual_containment(hx: np.ndarray, hz: np.ndarray, p: int) -> bool:
    """True iff HX HZ^T = 0 mod p, i.e. the pair defines a valid stabilizer
    group, for every pair of a stack. Both are arrays of ints in [0, p) of
    the same width and the same leading stack shape, 2-D for one group."""
    if (hx.ndim != hz.ndim or hx.ndim < 2 or hx.shape[:-2] != hz.shape[:-2]
            or hx.shape[-1] != hz.shape[-1]):
        raise DimensionMismatch("HX and HZ must be matrices of one width")
    return not matmul_mod(hx, hz.swapaxes(-1, -2), p).any()


@dataclass(frozen=True, eq=False)
class StabGroup:
    """Generators of a CSS-form stabilizer group on N qudits: the rows of
    ``x_type`` (HX) and of ``z_type`` (HZ), each a 2-D array of ints in
    [0, p), held in ``exact_dtype(1, p)``, or a stack of such groups along
    leading axes, one check for all of them. Equality is identity."""

    x_type: np.ndarray
    z_type: np.ndarray
    p: int

    def __post_init__(self):
        kind = exact_dtype(1, self.p)  # no copy when the checks are in it
        object.__setattr__(self, "x_type", np.asarray(self.x_type, dtype=kind))
        object.__setattr__(self, "z_type", np.asarray(self.z_type, dtype=kind))
        if not check_dual_containment(self.x_type, self.z_type, self.p):
            raise DualContainmentViolated("X and Z generators do not commute")

    @property
    def n(self) -> int:
        return self.x_type.shape[-1]


def _reduced(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """The error exponents x and z as arrays of ints in [0, p) in
    ``exact_dtype(1, p)``, one vector of N per group of the stack. Ints of
    any size reduce as Python ints; an int64 array needs only its ``%``."""
    p, kind = group.p, exact_dtype(1, group.p)

    def reduced(v):
        v = v if getattr(v, "dtype", None) == np.int64 else np.array(v, dtype=object)
        return (v % p).astype(kind, copy=False)

    x, z = reduced(x), reduced(z)
    want = group.x_type.shape[:-2] + (group.n,)
    if not x.shape == z.shape == want:
        raise DimensionMismatch(
            f"error exponents of shapes {x.shape} and {z.shape}, group needs {want}"
        )
    return x, z


def syndrome_linear(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """sX = HZ x and sZ = HX z."""
    x, z = _reduced(group, x, z)
    p = group.p
    return (matmul_mod(group.z_type, x[..., None], p)[..., 0],
            matmul_mod(group.x_type, z[..., None], p)[..., 0])


def _generators(group: StabGroup) -> np.ndarray:
    """Every generator of every group of the stack as the symplectic row
    (a | b) whose phase b.x - a.z past the error X(x)Z(z) is its syndrome
    entry, in the checks' dtype: Z-type rows (0 | h) first, then X-type
    rows (-g | 0), for X(-g) = X(g)^(-1)."""
    hx, hz, n = group.x_type, group.z_type, group.n
    r = hz.shape[-2]
    gens = np.zeros(hx.shape[:-2] + (r + hx.shape[-2], 2 * n), dtype=hx.dtype)
    gens[..., :r, n:] = hz
    gens[..., r:, :n] = -hx % group.p
    return gens


def syndrome_symplectic(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """Syndromes via symplectic commutation phases."""
    x, z = _reduced(group, x, z)
    gens, r = _generators(group), group.z_type.shape[-2]
    # <(a|b), (x|z)> = b.x - a.z for every generator (a | b)
    phase = matmul_mod(gens, np.concatenate([-z, x], axis=-1)[..., None], group.p)[..., 0]
    return phase[..., :r], phase[..., r:]


def _keys(rows: np.ndarray, p: int) -> np.ndarray:
    """Each row of a (T, K, N) stack of base-p digit rows as one integer,
    qudit 0 most significant, so that keys order rows lexicographically,
    plus t p^N for the rows of state t: state t's keys lie in
    [t p^N, (t+1) p^N), so one sorted array holds every state's."""
    count, _, n = rows.shape
    radix, offsets = _radix(p, count, n)
    return rows.astype(radix.dtype, copy=False) @ radix + offsets


@lru_cache(maxsize=4)  # a measurement keys its support and its reads alike
def _radix(p: int, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit weights p^(N-1), ..., 1 of a key and the (count, 1)
    offsets t p^N, read-only: int64 while every key fits, Python ints past
    that."""
    kind = np.int64 if count * p**n < _INT64_LIMIT else object
    radix = p ** np.arange(n - 1, -1, -1, dtype=kind)
    offsets = np.arange(count, dtype=kind)[:, None] * p**n
    radix.flags.writeable = offsets.flags.writeable = False
    return radix, offsets


def prepare_codespace(group: StabGroup) -> tuple[np.ndarray, np.ndarray]:
    """The normalized projector image of |0>, as (support, amplitudes).

    For one group, ``support`` holds the distinct codewords t HX mod p as
    int64 rows in ascending lexicographic order, ``amplitudes`` their
    uniform complex amplitudes. A stack of groups with r X generators each
    gets a (..., p^r, N) support and (..., p^r) amplitudes: every group's
    codeword t HX for each of the p^r coefficient vectors t, t = 0 first,
    where a codeword that dependent generators repeat has amplitude 0 after
    its first copy. Raises TooLarge over the module's size bound, which
    holds for each group.
    """
    p, (r, n) = group.p, group.x_type.shape[-2:]
    if p > STATE_LIMIT:
        raise TooLarge(f"p = {p} exceeds the {STATE_LIMIT} limit on distinct phases")
    if p**r > STATE_LIMIT:
        raise TooLarge(f"{p}^{r} amplitudes exceed the {STATE_LIMIT} limit")
    stack = group.x_type.shape[:-2]
    count = math.prod(stack)
    hx = group.x_type.reshape((count, r, n))  # int64, as p <= STATE_LIMIT
    # built as (group, qudit, entry), so that every step runs along the entries
    support = np.zeros((count, n, 1), dtype=np.int64)
    steps = np.arange(p, dtype=np.int64)[:, None]
    for i in range(r):
        # {c + t g : c in support, t in GF(p)} per group; entries stay below p^2
        support = support[:, :, None] + steps * hx[:, i, :, None, None]
        support %= p  # in place: a fresh array of the support's size costs more
        support = support.reshape(count, n, -1)
    support = support.swapaxes(1, 2)
    keys = _keys(support, p)
    if not stack:
        distinct = _first_copies(keys[0])
        return support[0, distinct], np.full(len(distinct), len(distinct) ** -0.5, dtype=complex)
    amps = np.full(keys.shape, p ** (-r / 2), dtype=complex)
    # row 0 of each group is t = 0, the zero codeword; t -> t HX is linear,
    # so a codeword repeats iff 0 does, and only then is a sort needed
    if np.count_nonzero(keys == keys[:, :1]) > count:
        first = np.zeros(keys.size, dtype=bool)
        first[_first_copies(keys.ravel())] = True  # keys keep the groups apart
        first = first.reshape(keys.shape)
        amps = first / np.sqrt(first.sum(axis=1, keepdims=True)) + 0j
    return support.reshape(stack + (-1, n)), amps.reshape(stack + (-1,))


def _first_copies(keys: np.ndarray) -> np.ndarray:
    """The position of each distinct key's first copy, in ascending key order."""
    order = np.argsort(keys, kind="stable")  # copies keep their order
    keys = keys[order]
    return order[np.r_[True, keys[1:] != keys[:-1]]]


@lru_cache(maxsize=1)  # a repair reads its phases twice, a sweep at one p
def _roots(p: int) -> np.ndarray:
    """The p-th roots of unity, read-only: entry s is w^s for
    w = exp(2 pi i / p)."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    roots.flags.writeable = False
    return roots


def _measure_exponent(support: np.ndarray, amps: np.ndarray, p: int, a, b):
    """Exponent s with X(a)Z(b)|state> = w^s |state>, plus the residual.

    The states (support, amps) are a stack of T states, (T, M, N) and
    (T, M), each read with G generators, two (T, G, N) arrays, which gives
    (T, G) exponents and residuals.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    # entry j0 = support[0] of X(a)Z(b)|state> is w^(b.j) state[j], j = j0 - a
    j = (support[:, :1] - a) % p
    # an entry of amplitude 0 is no part of the state, so no read may land on
    # it; -1 is no codeword's key
    keys = np.where(amps != 0, _keys(support, p), -1).ravel()
    order = np.argsort(keys)
    want = _keys(j, p)
    hit = order[np.minimum(np.searchsorted(keys, want, sorter=order), len(keys) - 1)]
    amp = np.where(keys[hit] == want, amps.ravel()[hit], 0)
    # b.j < N p^2, exact in int64 for any support that fits in memory
    omega = _roots(p)
    ratio = omega[(b * j).sum(axis=-1) % p] * amp / amps[:, :1]
    s = np.rint(p * (np.angle(ratio) % (2 * np.pi)) / (2 * np.pi)).astype(np.int64) % p
    return s, abs(ratio - omega[s])


def _measure(group: StabGroup, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The exponents of ``_generators``' rows, for every group of the stack,
    after the error X(x)Z(z) on its codespace state."""
    p, n, stack = group.p, group.n, group.x_type.shape[:-2]
    count = math.prod(stack)
    support, amps = prepare_codespace(group)
    support, amps = support.reshape((count, -1, n)), amps.reshape(count, -1)
    x, z = x.reshape(count, n), z.reshape(count, n)  # int64, as p <= STATE_LIMIT
    # X(x)Z(z)|c> = w^(z.c) |c + x>, on every entry of every group's state
    amps = amps * _roots(p)[matmul_mod(support, z[:, :, None], p)[..., 0]]
    support += x[:, None]  # the support is this call's own
    support %= p
    gens = _generators(group).reshape(count, -1, 2 * n)  # int64, as p <= STATE_LIMIT
    s, res = _measure_exponent(support, amps, p, gens[..., :n], gens[..., n:])
    worst = res.max(initial=0.0)
    if not worst < RESIDUAL_TOL:
        raise ResidualOutOfTolerance(f"eigenvalue residual {worst} out of tolerance")
    return s.reshape(stack + (-1,))


def syndrome_statevector(group: StabGroup, x, z) -> tuple[np.ndarray, np.ndarray]:
    """State-vector simulation on the codespace's support; must agree with
    syndrome_linear. A stack is measured in slices of at most STATE_LIMIT
    support entries in all, each slice with one prepared state."""
    x, z = _reduced(group, x, z)
    p, (r, n) = group.p, group.x_type.shape[-2:]
    stack = group.x_type.shape[:-2]
    count, per = math.prod(stack), max(1, STATE_LIMIT // p**r)
    if count <= per:
        s = _measure(group, x, z)
    else:  # each slice is a sub-stack of a checked stack, checked again
        hx, hz = (h.reshape((count,) + h.shape[-2:]) for h in (group.x_type, group.z_type))
        x, z = x.reshape(count, n), z.reshape(count, n)
        s = np.concatenate([
            _measure(StabGroup(hx[i:i + per], hz[i:i + per], p), x[i:i + per], z[i:i + per])
            for i in range(0, count, per)
        ]).reshape(stack + (-1,))
    rz = group.z_type.shape[-2]
    return s[..., :rz], s[..., rz:]
