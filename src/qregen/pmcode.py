"""Product-matrix storage code: parameters, packing, encoding, retrieval.

A file of B symbols over GF(p) is packed into symmetric matrix pairs
(S1, S2) and (S1', S2'), stacked as M = [S1; S2] and M' = [S1'; S2'], and
spread over n nodes through an n x 2a0 Vandermonde matrix V (a0 = k - 1).
Node i keeps the two length-a0 rows v_i^T M and v_i^T M', where
v_i^T = [vbar_i^T, lam_i * vbar_i^T] with vbar_i = (1, v_i, ..., v_i^(a0-1))
and lam_i = v_i^a0. Any k nodes suffice to rebuild the file.

When the per-repair helper count d exceeds 2k - 2, the file splits into
C(d, 2k-2) independent sub-files, each its own instance of the same code;
the *_file functions handle that layering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from collections.abc import Sequence

import numpy as np

from .errors import BadShareSet, InvalidParams, NoValidPoints, Singular, WrongLength
from .gf import GF
from .matrix import Mat, vandermonde, vandermonde_inv
from .rng import SplitMix64


@dataclass(frozen=True)
class SystemParams:
    """Validated code parameters shared by every operation."""

    n: int
    k: int
    d: int
    field: GF
    eval_points: tuple[int, ...]
    lam: tuple[int, ...]
    alpha0: int
    subfiles: int
    lambda_distinct: bool

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def per_instance_b(self) -> int:
        """Symbols in one symmetric-matrix pair (S1, S2)."""
        return self.alpha0 * (self.alpha0 + 1)

    @property
    def instance_symbols(self) -> int:
        """Symbols in one sub-file (both instances)."""
        return 2 * self.per_instance_b

    @property
    def B(self) -> int:
        return self.instance_symbols * self.subfiles

    @property
    def instance_alpha(self) -> int:
        return 2 * self.alpha0

    @property
    def alpha(self) -> int:
        """Dits stored per node across all sub-files; equals B / k."""
        return self.instance_alpha * self.subfiles

    def point_powers(self, node_id: int) -> list[int]:
        """vbar for a node: (1, v, ..., v^(a0-1))."""
        v = self.eval_points[node_id - 1]
        return [self.field.pow(v, t) for t in range(self.alpha0)]


def _greedy_points(field: GF, n: int, alpha0: int) -> tuple[int, ...] | None:
    """First n nonzero points (in field order) with pairwise-distinct lam."""
    chosen: list[int] = []
    seen_lam: set[int] = set()
    for c in field.units():
        lam = field.pow(c, alpha0)
        if lam in seen_lam:
            continue
        chosen.append(c)
        seen_lam.add(lam)
        if len(chosen) == n:
            return tuple(chosen)
    return None


def make_params(
    n: int,
    k: int,
    d: int,
    p: int,
    eval_points: Sequence[int] | None = None,
    *,
    allow_repeated_lambda: bool = False,
) -> SystemParams:
    """Validate (n, k, d, p) and fix the evaluation points.

    Defaults to v_i = i; if those points collide in lam = v^(k-1), a
    deterministic greedy scan over the nonzero field elements finds a
    distinct-lam assignment or raises NoValidPoints (use a larger prime).
    With allow_repeated_lambda=True the distinct-lam requirement is waived:
    such systems support repair for any (failed, helpers) combination whose
    lam values avoid the failed node's, but not retrieval from arbitrary
    k-subsets.
    """
    if k < 2 or d < 2 * k - 2 or d >= n:
        raise InvalidParams(f"need k >= 2 and 2k-2 <= d < n, got ({n},{k},{d})")
    if p < n + 1:
        raise InvalidParams(f"need p >= n+1 = {n + 1}, got {p}")
    try:
        field = GF(p)
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None
    alpha0 = k - 1

    if eval_points is not None:
        pts = tuple(x % p for x in eval_points)
        if len(pts) != n:
            raise InvalidParams(f"need {n} evaluation points, got {len(pts)}")
        if 0 in pts or len(set(pts)) != n:
            raise InvalidParams("evaluation points must be distinct and nonzero")
    else:
        pts = tuple(range(1, n + 1))

    lam = tuple(field.pow(v, alpha0) for v in pts)
    distinct = len(set(lam)) == n
    if not distinct and not allow_repeated_lambda:
        if eval_points is not None:
            raise InvalidParams("lam values v^(k-1) collide for these points")
        pts_found = _greedy_points(field, n, alpha0)
        if pts_found is None:
            raise NoValidPoints(
                f"no {n} points with distinct v^{alpha0} exist in GF({p})"
            )
        pts = pts_found
        lam = tuple(field.pow(v, alpha0) for v in pts)
        distinct = True

    return SystemParams(
        n=n,
        k=k,
        d=d,
        field=field,
        eval_points=pts,
        lam=lam,
        alpha0=alpha0,
        subfiles=comb(d, 2 * k - 2),
        lambda_distinct=distinct,
    )


@dataclass(frozen=True)
class MessagePair:
    """One sub-file: two pairs of a0 x a0 symmetric matrices."""

    s1: Mat
    s2: Mat
    s1p: Mat
    s2p: Mat


@lru_cache(maxsize=16)  # building the indices costs more than packing with them
def _layout(a0: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The packing order of a symmetric a0 x a0 matrix: its upper-triangle
    (row, column) indices in row-major order, and the a0 x a0 table of each
    entry's position in that order."""
    upper = np.triu_indices(a0)
    table = np.empty((a0, a0), dtype=int)
    table[upper] = table[upper[::-1]] = np.arange(len(upper[0]))
    return upper, table


def _pack_symmetric(field: GF, a0: int, values: Sequence[int]) -> Mat:
    return Mat.from_array(field, np.array(values, dtype=object)[_layout(a0)[1]])


def _unpack_symmetric(m: Mat) -> list[int]:
    return m.data[_layout(m.rows)[0]].tolist()


def pack_message(params: SystemParams, symbols: Sequence[int]) -> MessagePair:
    """Pack one sub-file's symbols in the canonical order.

    Order: upper triangle of S1 row-major, then S2, S1', S2'.
    """
    if len(symbols) != params.instance_symbols:
        raise WrongLength(
            f"expected {params.instance_symbols} symbols, got {len(symbols)}"
        )
    a0 = params.alpha0
    tri = params.per_instance_b // 2
    parts = [symbols[i * tri : (i + 1) * tri] for i in range(4)]
    return MessagePair(*(_pack_symmetric(params.field, a0, v) for v in parts))


def unpack_message(params: SystemParams, msg: MessagePair) -> tuple[int, ...]:
    out: list[int] = []
    for m in (msg.s1, msg.s2, msg.s1p, msg.s2p):
        out.extend(_unpack_symmetric(m))
    return tuple(out)


@dataclass(frozen=True)
class NodeStorage:
    """The 2*a0 dits one node holds for one sub-file."""

    node_id: int
    row_m: tuple[int, ...]
    row_mp: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "nodeId": self.node_id, "rowM": list(self.row_m), "rowMp": list(self.row_mp)
        }


def encode(params: SystemParams, msg: MessagePair) -> tuple[NodeStorage, ...]:
    """Per-node storage rows (v_i^T M, v_i^T M') for one sub-file."""
    a0 = params.alpha0
    big_v = vandermonde(params.field, params.eval_points, 2 * a0)
    both = np.block([[msg.s1.data, msg.s1p.data], [msg.s2.data, msg.s2p.data]])
    rows = (big_v @ Mat.from_array(params.field, both)).to_rows()  # [M | M']
    return tuple(
        NodeStorage(i + 1, tuple(r[:a0]), tuple(r[a0:])) for i, r in enumerate(rows)
    )


@dataclass(frozen=True)
class _DecodePlan:
    """Every inverse that decoding from one sorted id set needs."""

    phibar_t: Mat  # a0 x k, column a is vbar of the a-th id
    lam: np.ndarray  # k x 1, lam of the a-th id in row a
    diff_inv: np.ndarray  # k x k, (a, b) -> 1 / (lam_a - lam_b) mod p, 0 if a == b
    gather: tuple  # (a0 x a0, a0 x 1) indices: row j of vals[gather] = vals[a != j, j]
    loo_inv: np.ndarray  # a0 x a0 x a0, j -> inverse of phibar without row j
    w_t_inv: Mat  # inverse of W^T, W = the first a0 rows of phibar


def _decode_plan(params: SystemParams, ids: list[int]) -> _DecodePlan:
    field = params.field
    pts = [params.eval_points[i - 1] for i in ids]
    lam = [params.lam[i - 1] for i in ids]
    if len(set(lam)) != len(lam):
        raise Singular(f"repeated lam among nodes {ids}")
    a0 = params.alpha0
    upper = np.array(  # 1 / (lam_a - lam_b) above the diagonal
        [[field.inv(lam[a] - lam[b]) if a < b else 0 for b in range(a0 + 1)]
         for a in range(a0 + 1)],
        dtype=object,
    )
    return _DecodePlan(
        phibar_t=vandermonde(field, pts, a0).T,
        lam=np.array(lam, dtype=object)[:, None],
        diff_inv=upper - upper.T,  # 1 / (lam_b - lam_a) = -1 / (lam_a - lam_b)
        gather=(
            np.array([[a for a in range(a0 + 1) if a != j] for j in range(a0)]),
            np.arange(a0)[:, None],
        ),
        loo_inv=np.array(
            [vandermonde_inv(field, pts[:j] + pts[j + 1 :]).data for j in range(a0)]
        ),
        w_t_inv=vandermonde_inv(field, pts[:a0]).T,
    )


def _decode_instance(
    params: SystemParams, plan: _DecodePlan, c_dc: Mat
) -> tuple[Mat, Mat]:
    """Recover (S1, S2) from the k collected rows vbar^T S1 + lam vbar^T S2.

    With P = C_DC Phibar^T, entry P[a,b] = theta_ab + lam_a * psi_ab where
    theta_ab = vbar_a^T S1 vbar_b and psi_ab = vbar_a^T S2 vbar_b. Symmetry
    of S1, S2 makes theta and psi symmetric, so each off-diagonal pair
    (P[a,b], P[b,a]) is a 2x2 system in (theta_ab, psi_ab) with matrix
    [[1, lam_a], [1, lam_b]]. The k-1 values theta_aj (a != j) then pin
    down S1 vbar_j through a square Vandermonde solve, and a0 of those
    columns pin down S1 itself; likewise psi gives S2.

    Every inverse involved depends only on the ids, so it comes from
    ``plan`` (built by _decode_plan); this function only applies them.
    """
    p = params.p
    prod = (c_dc @ plan.phibar_t).data
    psi = (prod - prod.T) * plan.diff_inv % p  # symmetric, 0 on the diagonal
    theta = (prod - plan.lam * psi) % p  # symmetric off the diagonal

    def solve_columns(vals: np.ndarray) -> Mat:
        cols = (plan.loo_inv @ vals[plan.gather][:, :, None])[:, :, 0]  # S vbar_j
        return Mat.from_array(params.field, cols.T) @ plan.w_t_inv

    return solve_columns(theta), solve_columns(psi)


def retrieve(
    params: SystemParams, shares: Sequence[NodeStorage], plans: dict | None = None
) -> MessagePair:
    """Rebuild one sub-file's MessagePair from any k distinct shares.

    ``plans`` maps a sorted id tuple to its decode plan; a caller that
    passes one dict for many sub-files plans each distinct id set once.
    """
    if len(shares) != params.k:
        raise BadShareSet(f"need exactly {params.k} shares, got {len(shares)}")
    ids = sorted(s.node_id for s in shares)
    if len(set(ids)) != params.k or ids[0] < 1 or ids[-1] > params.n:
        raise BadShareSet(f"share ids must be distinct and in [1, {params.n}]")
    by_id = {s.node_id: s for s in shares}
    ordered = [by_id[i] for i in ids]
    for s in ordered:
        if len(s.row_m) != params.alpha0 or len(s.row_mp) != params.alpha0:
            raise BadShareSet(f"share {s.node_id} has wrong row length")
    c1 = Mat.from_rows(params.field, [list(s.row_m) for s in ordered])
    c2 = Mat.from_rows(params.field, [list(s.row_mp) for s in ordered])
    plans = {} if plans is None else plans
    key = tuple(ids)
    plan = plans[key] = plans.get(key) or _decode_plan(params, ids)
    s1, s2 = _decode_instance(params, plan, c1)
    s1p, s2p = _decode_instance(params, plan, c2)
    return MessagePair(s1, s2, s1p, s2p)


def pack_file(params: SystemParams, symbols: Sequence[int]) -> tuple[MessagePair, ...]:
    """Split B symbols into one MessagePair per sub-file."""
    if len(symbols) != params.B:
        raise WrongLength(f"expected {params.B} symbols, got {len(symbols)}")
    step = params.instance_symbols
    return tuple(
        pack_message(params, symbols[t * step : (t + 1) * step])
        for t in range(params.subfiles)
    )


def unpack_file(params: SystemParams, msgs: Sequence[MessagePair]) -> tuple[int, ...]:
    out: list[int] = []
    for m in msgs:
        out.extend(unpack_message(params, m))
    return tuple(out)


def encode_file(
    params: SystemParams, symbols: Sequence[int]
) -> tuple[tuple[NodeStorage, ...], ...]:
    """Encode all sub-files; result is indexed [subfile][node_id - 1]."""
    return tuple(encode(params, m) for m in pack_file(params, symbols))


def retrieve_file(
    params: SystemParams, shares_per_subfile: Sequence[Sequence[NodeStorage]]
) -> tuple[int, ...]:
    if len(shares_per_subfile) != params.subfiles:
        raise BadShareSet(
            f"need shares for {params.subfiles} sub-files, got {len(shares_per_subfile)}"
        )
    plans: dict[tuple[int, ...], _DecodePlan] = {}  # sub-files may use other ids
    return unpack_file(
        params, [retrieve(params, shares, plans) for shares in shares_per_subfile]
    )


def random_symbols(params: SystemParams, rng: SplitMix64) -> list[int]:
    """B field elements drawn from the deterministic stream."""
    return [rng.below(params.p) for _ in range(params.B)]
