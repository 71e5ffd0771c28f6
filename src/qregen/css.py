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
u-free basis of a (params, failed, helpers) key is [I | lam_f I] Vt^(-1),
from the closed-form ``vandermonde_inv``, scaled to HX_1 and HZ_1, plus w
(the last row of Vt^(-1): column j holds the Lagrange polynomial of point
j, whose leading coefficient is w_j) and every 1 / (lam_h - lam_f). It is
kept as one read-only block of rows HX_1, HZ_1, lam1, lam2 and u' at u = 1,
whose columns a u scales by u_j or 1 / u_j in one product.

``cache_bases`` makes every basis, for a stack of helper sets of one failed
node at once: ``run_repair`` hands it all T sub-files' helper sets, and
``build_repair_css`` its one, so a cache miss there is a stack of one. It
makes two field inversions however many bases are cold: every weight of
the stack inside ``vandermonde_inv``, which also returns the 1 / w_j it
inverted, then every lam_h - lam_f. One stacked ``StabGroup`` checks
HX_1 HZ_1^T = 0 for all of them before any enters the cache, a
per-process LRU of 16 T entries, the bases of the last 16 file repairs of
T sub-files. ``build_repair_css`` checks nothing itself. With u None it
returns the cached read-only HX_1 and HZ_1 and does no arithmetic; a u
scales the block, and inverts u once for a run of builds with that u.
``RepairCSS.group`` builds the checked ``StabGroup`` when first asked
for; ``run_repair`` checks all its codes in one stacked product instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from collections.abc import Sequence

import numpy as np

from .errors import InvalidHelperSet, ZeroU
from .gf import GF
from .matrix import grs_dual_weights, vandermonde_inv  # re-exports the weights
from .pmcode import SystemParams
from .stabilizer import StabGroup, check_dual_containment  # re-exports the check


@dataclass(frozen=True, eq=False)
class RepairCSS:
    """The repair-time code for one (failed node, helper set) choice: HX and
    HZ as object arrays of ints in [0, p). Equality is identity."""

    failed_node: int
    helpers: tuple[int, ...]
    hx: np.ndarray
    hz: np.ndarray
    p: int
    lam1: tuple[int, ...]
    lam2: tuple[int, ...]
    u: tuple[int, ...]
    u_prime: tuple[int, ...]

    @cached_property
    def group(self) -> StabGroup:
        """The stabilizer group of HX and HZ, checked when first asked for."""
        return StabGroup(x_type=self.hx, z_type=self.hz, p=self.p)


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


_BASES: OrderedDict[tuple, tuple] = OrderedDict()  # least recently used first


def cache_bases(
    params: SystemParams, failed: int, helper_sets: Sequence[tuple[int, ...]]
) -> None:
    """Make every sorted, checked helper tuple of ``failed`` one of the most
    recent cache entries, building the u-free bases the cache lacks in one
    batch. A basis is one read-only (2 a0 + 3, m) block whose rows are HX,
    HZ, lam1, lam2 and u' at u = 1, with HX and HZ as views of it and the
    last three rows as tuples. One stacked ``StabGroup`` checks the new
    bases before any is cached."""
    missing = []
    for hs in helper_sets:
        try:
            _BASES.move_to_end((params, failed, hs))
        except KeyError:
            missing.append(hs)
    if not missing:
        return
    field, p, a0 = params.field, params.p, params.alpha0
    lam_f = params.lam[failed - 1]
    v_inv, w_recip = vandermonde_inv(
        field, [[params.eval_points[s - 1] for s in hs] for hs in missing]
    )
    rows = (len(missing), 1, 2 * a0)  # one row of m per basis
    denom = [(params.lam[s - 1] - lam_f) % p for hs in missing for s in hs]
    denom_inv = np.array(field.inv_all(denom), dtype=object).reshape(rows)
    sel_v_inv = v_inv[:, :a0] + lam_f * v_inv[:, a0:]  # [I | lam_f I] Vt^(-1)
    hz = sel_v_inv * np.array(denom, dtype=object).reshape(rows) % p  # times 1 / lam1
    hx = hz * np.array(w_recip, dtype=object).reshape(rows) % p  # times 1 / lam2
    StabGroup(x_type=hx, z_type=hz, p=p)  # raises DualContainmentViolated
    w = v_inv[:, -1:]  # leading Lagrange coefficients = dual GRS weights
    blocks = np.concatenate([hx, hz, denom_inv, w * denom_inv % p, w], 1)
    for hs, block, lams in zip(missing, blocks, blocks[:, -3:].tolist()):
        block.flags.writeable = False
        _BASES[params, failed, hs] = (block, block[:a0], block[a0:-3], *map(tuple, lams))
    while len(_BASES) > 16 * params.subfiles:
        _BASES.popitem(last=False)


@lru_cache(maxsize=1)  # a file repair scales every sub-file by one u
def _scalings(field: GF, u: tuple[int, ...], a0: int) -> np.ndarray:
    """The factors of a basis block's rows, column j scaled by u_j in HX and
    lam1 and by 1 / u_j in HZ, lam2 and u', from one batched inversion."""
    u_inv = field.inv_all(u)
    factors = np.array([u] * a0 + [u_inv] * a0 + [u, u_inv, u_inv], dtype=object)
    factors.flags.writeable = False  # every build with this u shares it
    return factors


def build_repair_css(
    params: SystemParams,
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
) -> RepairCSS:
    """Construct the repair-time code; helpers must number exactly 2k-2.
    With ``u`` None, HX and HZ are the cached read-only arrays."""
    p, a0 = params.p, params.alpha0
    m = 2 * a0
    hs = check_helpers(params, failed, helpers, m)
    if u is not None:
        if len(u) != m:
            raise ZeroU(f"u must have length {m}")
        u_vec = tuple(x % p for x in u)
        if 0 in u_vec:
            raise ZeroU("u entries must be nonzero")

    cache_bases(params, failed, [hs])  # the most recent entry now
    block, hx, hz, lam1, lam2, w = _BASES[params, failed, hs]
    if u is None:
        return RepairCSS(failed, hs, hx, hz, p, lam1, lam2, (1,) * m, w)
    scaled = block * _scalings(params.field, u_vec, a0) % p
    lam1, lam2, u_prime = map(tuple, scaled[-3:].tolist())
    return RepairCSS(failed, hs, scaled[:a0], scaled[a0:-3], p, lam1, lam2, u_vec, u_prime)
