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
j, whose leading coefficient is w_j) and every 1 / (lam_h - lam_f). A
per-process LRU keeps the bases of the last 16 file repairs, 16 T entries
for T sub-files. A cold build makes two field inversions: the m weights in
one batch inside ``vandermonde_inv``, which also returns the 1 / w_j it
inverted, then every lam_h - lam_f in one batch. A warm one makes none. A
random u costs one batch more. Every build, warm or cold, returns a
``RepairCSS`` whose HX and HZ are object arrays of ints in [0, p) held by
a ``StabGroup`` that checks HX HZ^T = 0, and only a basis that passed that
check enters the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import InvalidHelperSet, ZeroU
from .matrix import grs_dual_weights, vandermonde_inv  # re-exports the weights
from .pmcode import SystemParams
from .stabilizer import StabGroup, check_dual_containment  # re-exports the check


@dataclass(frozen=True, eq=False)
class RepairCSS:
    """The repair-time code for one (failed node, helper set) choice.
    Equality is identity."""

    failed_node: int
    helpers: tuple[int, ...]
    group: StabGroup
    lam1: tuple[int, ...]
    lam2: tuple[int, ...]
    u: tuple[int, ...]
    u_prime: tuple[int, ...]

    @property
    def hx(self) -> np.ndarray:
        return self.group.x_type

    @property
    def hz(self) -> np.ndarray:
        return self.group.z_type


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


def _basis(params: SystemParams, failed: int, hs: tuple[int, ...]) -> tuple:
    """The u-free part of a build: HX and HZ at u = 1, the GRS weights w and
    every 1 / (lam_h - lam_f)."""
    field, m = params.field, len(hs)
    lam_f = params.lam[failed - 1]
    v_inv, w_recip = vandermonde_inv(field, [params.eval_points[s - 1] for s in hs])
    w = v_inv[m - 1].tolist()  # leading Lagrange coefficients = dual GRS weights
    denom = [(params.lam[s - 1] - lam_f) % field.p for s in hs]
    a0 = params.alpha0
    sel_v_inv = v_inv[:a0] + lam_f * v_inv[a0:]  # [I | lam_f I] Vt^(-1)
    hz = sel_v_inv * np.array(denom, dtype=object) % field.p  # times 1 / lam1 at u = 1
    hx = hz * np.array(w_recip, dtype=object) % field.p  # times 1 / lam2 at u = 1
    return hx, hz, w, field.inv_all(denom)


def build_repair_css(
    params: SystemParams,
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
) -> RepairCSS:
    """Construct the repair-time code; helpers must number exactly 2k-2."""
    field = params.field
    m = 2 * params.alpha0
    hs = check_helpers(params, failed, helpers, m)

    if u is None:
        u_vec = (1,) * m
    else:
        if len(u) != m:
            raise ZeroU(f"u must have length {m}")
        u_vec = tuple(x % field.p for x in u)
        if 0 in u_vec:
            raise ZeroU("u entries must be nonzero")

    key = (params, failed, hs)
    basis = _BASES.pop(key, None) or _basis(params, failed, hs)
    hx, hz, w, denom_inv = basis
    p = field.p
    u_inv = u_vec if u is None else tuple(field.inv_all(u_vec))
    u_prime = tuple(wj * ui % p for wj, ui in zip(w, u_inv))
    group = StabGroup(  # raises DualContainmentViolated
        x_type=hx * np.array(u_vec, dtype=object) % p,
        z_type=hz * np.array(u_inv, dtype=object) % p,
        p=p,
    )
    _BASES[key] = basis  # the most recent now; only a checked basis enters
    while len(_BASES) > 16 * params.subfiles:
        _BASES.popitem(last=False)
    return RepairCSS(
        failed_node=failed,
        helpers=hs,
        group=group,
        lam1=tuple(uj * di % p for uj, di in zip(u_vec, denom_inv)),
        lam2=tuple(uj * di % p for uj, di in zip(u_prime, denom_inv)),
        u=u_vec,
        u_prime=u_prime,
    )
