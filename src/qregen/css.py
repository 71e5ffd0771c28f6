"""Repair-time CSS code construction.

For a failed node f and m = 2k-2 helpers, the X- and Z-side parity checks
act on one dit per helper:

    HX = [I | lam_f I] (L2 Vt)^(-1)      HZ = [I | lam_f I] (L1 Vt)^(-1)

where Vt stacks the helpers' full Vandermonde rows (m x m), and L1, L2 are
diagonal precodings L1 = diag(u) (Lbar - lam_f I)^(-1),
L2 = diag(u') (Lbar - lam_f I)^(-1) with Lbar = diag(helper lam values).
The free vector u is any nonzero vector; u' = w / u componentwise, where w
holds the dual generalized Reed-Solomon weights of the helper evaluation
points. That choice makes Vbar^T diag(u') diag(u) Vbar vanish, which is
exactly what forces HX HZ^T = 0, so the pair generates a valid stabilizer
group. By construction HZ (L1 Vt) = HX (L2 Vt) = [I | lam_f I], which is
why the measured syndromes later read off the failed node's rows directly.

HX and HZ share one inverse, since (L Vt)^(-1) = Vt^(-1) L^(-1), and u
enters only as column scalings: 1/lam1 = (lam_h - lam_f) / u and
1/lam2 = (lam_h - lam_f) u / w, so HX_u = HX_1 diag(u) and
HZ_u = HZ_1 diag(1/u), and HX_u HZ_u^T = HX_1 HZ_1^T for every u. The
u-free basis of a (params, failed, helpers) key needs no inverse at all.
Column j of Vt^(-1) is the Lagrange polynomial w_j A / (x - x_j) of
helper point j, A = prod_h (x - x_h) and w_j = 1 / A'(x_j), the dual GRS
weight, and [I | lam_f I] reduces it modulo x^a0 - lam_f. With
R_j = sum_{t < a0} x_j^(a0-1-t) x^t, (x - x_j) R_j = x^a0 - lam_j, which
is lam_f - lam_j modulo x^a0 - lam_f, so there -A R_j is
(lam_j - lam_f) A / (x - x_j): column j of HX_1. So HX_1 = -C R, where C
multiplies by A modulo x^a0 - lam_f and R has columns R_j, and
HZ_1 = HX_1 diag(w) (``lagrange_folds``, from the helpers' rows of
``params.powers``). The block adds w and every 1 / (lam_h - lam_f).

A code is one block: a read-only (2 a0 + 4, m) array in
``exact_dtype(1, p)``, like all field data, whose rows are HX, HZ, lam1,
lam2, u and u', the transcript's own order, with a u row of ones at
u = 1. ``RepairCSS`` holds one block, or a stack of them along leading
axes, and its fields are views of it. ``scale`` turns the u-free
blocks into the blocks of a u, one or a whole stack, in one product after
one batched inversion of u (``GF.inv_array``), whose entries ``check_u``
checks first.

The cache, a per-process LRU of 16 T entries (the codes of the last 16 file
repairs of T sub-files), maps (params, failed, helpers) to the u-free code as
one finished, read-only ``RepairCSS``. ``_admit`` is its one builder: given a
(B, 2k-2) array of helper sets that have passed ``check_helpers``, it builds
their master polynomials as array steps across the stack
(``lagrange_folds``) and makes two batched inversions however many sets there
are, every A'(x_j) of the stack, which gives the weights, then every
lam_h - lam_f: gathers from the field's table of inverses for p <= 2^12, one
``GF.inv_all`` each above that. Everything runs in ``exact_dtype(1, p)``, the
table's dtype, which the blocks keep. One stacked ``StabGroup`` checks
HX_1 HZ_1^T = 0 for all B before one update admits them, as views of one
read-only stack. So a key enters the cache only once checked, in one of two
ways: ``cache_bases`` checks each key it lacks with ``check_helpers``, and
``run_repair`` admits the colex subsets of the d helpers it has checked. A hit
checks nothing: ``build_repair_css`` with u None returns the cached code
itself, and with a u checks it (``check_u``) and scales the cached block.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import InvalidHelperSet, ZeroU
from .matrix import grs_dual_weights, lagrange_folds  # re-exports the weights
from .pmcode import SystemParams
from .stabilizer import StabGroup, check_dual_containment  # re-exports the check


@dataclass(frozen=True, eq=False)
class RepairCSS:
    """The repair-time code for one (failed node, helper set) choice, or a
    stack of such codes along leading axes. ``block`` is the read-only
    (..., 2 a0 + 4, m) array of ints in [0, p), in ``exact_dtype(1, p)``,
    whose rows are HX, HZ, lam1, lam2, u and u', and the fields of those
    names are views of it. ``helpers`` is one sorted tuple, or for a stack
    the (..., m) int array of each code's. Equality is identity."""

    failed_node: int
    helpers: tuple[int, ...] | np.ndarray
    block: np.ndarray
    p: int

    # a0 = rows // 2 - 2 rows each of HX and HZ, then the four vectors
    hx = property(lambda self: self.block[..., : self.block.shape[-2] // 2 - 2, :])
    hz = property(lambda self: self.block[..., self.block.shape[-2] // 2 - 2 : -4, :])
    lam1 = property(lambda self: self.block[..., -4, :])
    lam2 = property(lambda self: self.block[..., -3, :])
    lams = property(lambda self: self.block[..., -4:-2, :])  # lam1 over lam2
    u = property(lambda self: self.block[..., -2, :])
    u_prime = property(lambda self: self.block[..., -1, :])


def check_helpers(
    params: SystemParams, failed: int, helpers: Sequence[int], m: int
) -> tuple[int, ...]:
    """The sorted helper ids, once the failed node is known to be in [1, n]
    and then ``helpers`` to be m distinct nodes in [1, n] other than it."""
    if not 1 <= failed <= params.n:
        raise InvalidHelperSet(f"failed node {failed} out of range")
    hs = tuple(sorted(helpers))
    if not (len(hs) == len(set(hs)) == m and failed not in hs
            and 1 <= hs[0] <= hs[-1] <= params.n):
        raise InvalidHelperSet(
            f"need {m} distinct helpers in [1, {params.n}] excluding node {failed}"
        )
    return hs


def check_u(params: SystemParams, u: Sequence[int]) -> tuple[int, ...]:
    """``u`` reduced mod p, as Python ints, once it is known to hold 2k-2
    entries, none of them 0 mod p."""
    m = 2 * params.alpha0
    if len(u) != m:
        raise ZeroU(f"u must have length {m}")
    u = tuple(operator.index(x) % params.p for x in u)
    if 0 in u:
        raise ZeroU("u entries must be nonzero")
    return u


_BASES: OrderedDict[tuple, RepairCSS] = OrderedDict()  # least recently used first


def _hit(key: tuple) -> RepairCSS | None:
    """The cached code of ``key``, now the most recent entry, or None."""
    code = _BASES.get(key)
    if code is not None:
        _BASES.move_to_end(key)
    return code


def _admit(params: SystemParams, failed: int, helper_sets: np.ndarray) -> list[RepairCSS]:
    """Build, check and cache the u-free codes of ``failed`` with each row
    of the (B, 2k-2) int array ``helper_sets``, sorted sets that have
    passed ``check_helpers``: one stacked ``StabGroup`` checks all B
    before one update admits them, as the most recent entries."""
    field, p, a0 = params.field, params.p, params.alpha0
    lam_f = params.lam[failed - 1]
    powers = params.powers[helper_sets - 1]  # (B, m, m): m = 2a0
    hx, w_recip = lagrange_folds(powers, a0, lam_f, p)  # HX_1 = -C R
    rows = (len(helper_sets), 1, 2 * a0)  # one row of m per block
    w, denom_inv = (  # the weights, and every 1 / (lam_h - lam_f)
        field.inv_array(x).reshape(rows) for x in (w_recip, (powers[..., a0] - lam_f) % p)
    )
    hz = hx * w % p
    StabGroup(x_type=hx, z_type=hz, p=p)  # raises DualContainmentViolated
    built = np.concatenate([hx, hz, denom_inv, w * denom_inv % p, np.ones_like(w), w], 1)
    built.flags.writeable = False  # and with it every block, a view of it
    codes = [RepairCSS(failed, hs, block, p)
             for hs, block in zip(map(tuple, helper_sets.tolist()), built)]
    _BASES.update(((params, failed, c.helpers), c) for c in codes)
    while len(_BASES) > 16 * params.subfiles:
        _BASES.popitem(last=False)
    return codes


def cache_bases(
    params: SystemParams, failed: int, helper_sets: Sequence[tuple[int, ...]]
) -> list[np.ndarray]:
    """The u-free blocks of ``failed`` with each sorted helper tuple of
    ``helper_sets``, in order, each now one of the most recent cache entries.
    A hit checks nothing; each key the cache lacks is checked
    (``check_helpers``) before ``_admit`` builds them all."""
    codes = [_hit((params, failed, hs)) for hs in helper_sets]
    cold = [i for i, code in enumerate(codes) if code is None]
    if cold:
        checked = [check_helpers(params, failed, helper_sets[i], 2 * params.alpha0) for i in cold]
        for i, code in zip(cold, _admit(params, failed, np.array(checked))):
            codes[i] = code
    return [code.block for code in codes]


def scale(params: SystemParams, blocks: np.ndarray, u: tuple[int, ...]) -> np.ndarray:
    """The u-free block, or stack of blocks, at the checked ``u``: column j
    scaled by u_j in HX, lam1 and u and by 1 / u_j in HZ, lam2 and u', from
    one ``GF.inv_array``. Read-only, like the cache's."""
    a0, u = params.alpha0, np.array(u, dtype=blocks.dtype)
    u_inv = params.field.inv_array(u)
    factors = np.stack([u] * a0 + [u_inv] * a0 + [u, u_inv] * 2)
    scaled = blocks * factors % params.p
    scaled.flags.writeable = False
    return scaled


def build_repair_css(
    params: SystemParams,
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
) -> RepairCSS:
    """Construct the repair-time code; helpers must number exactly 2k-2.
    With ``u`` None, the code is the cached one itself."""
    hs = tuple(sorted(helpers))
    code = _hit((params, failed, hs))
    if code is None:
        cache_bases(params, failed, [hs])  # checks the helpers
        code = _BASES[params, failed, hs]
    if u is None:
        return code
    return RepairCSS(failed, hs, scale(params, code.block, check_u(params, u)), params.p)
