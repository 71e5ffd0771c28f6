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

HX and HZ share one inverse, since (L Vt)^(-1) = Vt^(-1) L^(-1): the build
takes the closed-form Vt^(-1) (``vandermonde_inv``) once, forms
[I | lam_f I] Vt^(-1) as its top a0 rows plus lam_f times its bottom a0
rows, and scales its columns by 1/lam2 for HX and by 1/lam1 for HZ. The
last row of Vt^(-1) is w: column j holds the Lagrange polynomial of point
j, whose leading coefficient is w_j. 1/lam1 = (lam_h - lam_f) / u reuses
the inverses of u that u' = w / u takes, so a build makes 4m field
inversions: of u, of lam_h - lam_f, of lam2, and the m that
``vandermonde_inv`` makes for the weights. The ``StabGroup`` the build
returns checks HX HZ^T = 0, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import InvalidHelperSet, ZeroU
from .matrix import Mat, grs_dual_weights, vandermonde_inv  # re-exports the weights
from .pmcode import SystemParams
from .stabilizer import StabGroup, check_dual_containment  # re-exports the check


@dataclass(frozen=True)
class RepairCSS:
    """The repair-time code for one (failed node, helper set) choice."""

    failed_node: int
    helpers: tuple[int, ...]
    group: StabGroup
    lam1: tuple[int, ...]
    lam2: tuple[int, ...]
    u: tuple[int, ...]
    u_prime: tuple[int, ...]

    @property
    def hx(self) -> Mat:
        return self.group.x_type

    @property
    def hz(self) -> Mat:
        return self.group.z_type

    def to_json_dict(self) -> dict:
        return {
            "HX": self.hx.to_rows(),
            "HZ": self.hz.to_rows(),
            "Lam1": list(self.lam1),
            "Lam2": list(self.lam2),
            "u": list(self.u),
            "uPrime": list(self.u_prime),
        }


def build_repair_css(
    params: SystemParams,
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
) -> RepairCSS:
    """Construct the repair-time code; helpers must number exactly 2k-2."""
    field = params.field
    m = 2 * params.alpha0
    hs = tuple(sorted(helpers))
    if not 1 <= failed <= params.n:
        raise InvalidHelperSet(f"failed node {failed} out of range")
    if (
        len(hs) != m
        or len(set(hs)) != m
        or failed in hs
        or hs[0] < 1
        or hs[-1] > params.n
    ):
        raise InvalidHelperSet(
            f"need {m} distinct helpers in [1, {params.n}] excluding node {failed}"
        )

    if u is None:
        u_vec = (1,) * m
    else:
        if len(u) != m:
            raise ZeroU(f"u must have length {m}")
        u_vec = tuple(x % field.p for x in u)
        if 0 in u_vec:
            raise ZeroU("u entries must be nonzero")

    lam_f = params.lam[failed - 1]
    lam_h = [params.lam[s - 1] for s in hs]
    pts = [params.eval_points[s - 1] for s in hs]
    v_inv = vandermonde_inv(field, pts)
    w = v_inv.row(m - 1)  # leading Lagrange coefficients = dual GRS weights
    u_inv = [field.inv(uj) for uj in u_vec]
    u_prime = tuple(field.mul(wj, ui) for wj, ui in zip(w, u_inv))
    denom = [field.sub(ls, lam_f) for ls in lam_h]
    denom_inv = [field.inv(dj) for dj in denom]
    lam1 = tuple(field.mul(uj, di) for uj, di in zip(u_vec, denom_inv))
    lam2 = tuple(field.mul(uj, di) for uj, di in zip(u_prime, denom_inv))

    a0 = params.alpha0
    sel_v_inv = v_inv.data[:a0] + lam_f * v_inv.data[a0:]  # [I | lam_f I] Vt^(-1)
    # the right factors diag(lam2)^(-1) and diag(lam1)^(-1) scale columns
    inv1 = np.array([field.mul(dj, ui) for dj, ui in zip(denom, u_inv)], dtype=object)
    inv2 = np.array([field.inv(x) for x in lam2], dtype=object)
    hx = Mat.from_array(field, sel_v_inv * inv2)
    hz = Mat.from_array(field, sel_v_inv * inv1)
    return RepairCSS(
        failed_node=failed,
        helpers=hs,
        group=StabGroup(x_type=hx, z_type=hz),  # raises DualContainmentViolated
        lam1=lam1,
        lam2=lam2,
        u=u_vec,
        u_prime=u_prime,
    )
