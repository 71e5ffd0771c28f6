"""Product-matrix storage code: parameters, packing, encoding, retrieval.

A file of B symbols over GF(p) splits into T = C(d, 2k-2) sub-files (one
when the per-repair helper count d is 2k - 2). Each sub-file packs into
symmetric a0 x a0 matrix pairs (S1, S2) and (S1', S2') (a0 = k - 1),
stacked as M = [S1; S2] and M' = [S1'; S2'], and every M and M' is spread
over n nodes through the same n x 2a0 Vandermonde matrix V. Per sub-file,
node i keeps the two length-a0 rows v_i^T M and v_i^T M', where
v_i^T = [vbar_i^T, lam_i * vbar_i^T] with vbar_i = (1, v_i, ..., v_i^(a0-1))
and lam_i = v_i^a0. Any k nodes suffice to rebuild the file.

The sub-file is an array axis, so each file operation is one pass:
``pack_file`` gathers the file into one (T, 2, 2a0, a0) array of every M
and M', and ``encode_file`` multiplies V by all of them at once. Its
result is the storage of the file, one (T, n, 2, a0) object array of
Python ints: entry [t, i - 1] is node i's two rows for sub-file t.
``retrieve_file`` reads the rows of one set of k nodes from it and decodes
every sub-file in one broadcast ``retrieve``.

Every inverse a decode needs depends on (params, ids) alone, so its
``_DecodePlan`` is compiled once and kept in a per-process LRU of 16 plans.
The plan holds its arrays in ``exact_dtype(k, p)``: int64 when
k (p - 1)^2 < 2^63, object arrays of Python ints otherwise. Every product
of the decode has an inner dimension of at most k and every elementwise
step multiplies two reduced values, so after ``retrieve`` casts the k rows
to the plan's dtype the one decode runs exactly in int64 inside the bound
and on Python ints outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from collections.abc import Sequence

import numpy as np

from .errors import BadShareSet, InvalidParams, NoValidPoints, WrongLength
from .gf import GF
from .matrix import Mat, exact_dtype, matmul_mod, vandermonde, vandermonde_inv
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

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def B(self) -> int:
        """File symbols: two pairs of symmetric a0 x a0 matrices per sub-file."""
        return 2 * self.alpha0 * (self.alpha0 + 1) * self.subfiles

    @property
    def alpha(self) -> int:
        """Dits stored per node across all sub-files; equals B / k."""
        return 2 * self.alpha0 * self.subfiles

    def point_powers(self, node_id: int) -> list[int]:
        """vbar for a node: (1, v, ..., v^(a0-1))."""
        return self.field.powers(self.eval_points[node_id - 1], self.alpha0)


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
) -> SystemParams:
    """Validate (n, k, d, p) and fix the evaluation points.

    Without ``eval_points``, a deterministic greedy scan over the nonzero
    field elements takes the first n points with pairwise-distinct
    lam = v^(k-1), which is v_i = i whenever those points qualify; if no n
    points qualify it raises NoValidPoints (use a larger prime).
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
        pts = _greedy_points(field, n, alpha0)
        if pts is None:
            raise NoValidPoints(
                f"no {n} points with distinct v^{alpha0} exist in GF({p})"
            )

    lam = tuple(field.pow(v, alpha0) for v in pts)
    if len(set(lam)) != n:
        raise InvalidParams("lam values v^(k-1) collide for these points")

    return SystemParams(
        n=n,
        k=k,
        d=d,
        field=field,
        eval_points=pts,
        lam=lam,
        alpha0=alpha0,
        subfiles=comb(d, 2 * k - 2),
    )


@lru_cache(maxsize=16)  # building the indices costs more than packing with them
def _layout(a0: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The packing order of a symmetric a0 x a0 matrix: its upper-triangle
    (row, column) indices in row-major order, and the a0 x a0 table of each
    entry's position in that order."""
    upper = np.triu_indices(a0)
    table = np.empty((a0, a0), dtype=int)
    table[upper] = table[upper[::-1]] = np.arange(len(upper[0]))
    return upper, table


def pack_file(params: SystemParams, symbols: Sequence[int]) -> np.ndarray:
    """Gather B symbols into one (T, 2, 2a0, a0) object array: entry [t, 0]
    is sub-file t's M = [S1; S2] and entry [t, 1] its M' = [S1'; S2'].

    Sub-file t holds the t-th run of B / T symbols, in the order: upper
    triangle of S1 row-major, then S2, S1', S2'.
    """
    if len(symbols) != params.B:
        raise WrongLength(f"expected {params.B} symbols, got {len(symbols)}")
    a0, t = params.alpha0, params.subfiles
    parts = np.array(symbols, dtype=object).reshape(t, 4, -1)
    return parts[:, :, _layout(a0)[1]].reshape(t, 2, 2 * a0, a0)


def unpack_file(params: SystemParams, packed: np.ndarray) -> tuple[int, ...]:
    """The inverse gather of ``pack_file``: the file's symbols in order."""
    a0 = params.alpha0
    rows, cols = _layout(a0)[0]
    return tuple(packed.reshape(-1, 4, a0, a0)[:, :, rows, cols].ravel().tolist())


def encode_file(params: SystemParams, symbols: Sequence[int]) -> np.ndarray:
    """The storage of the file: a (T, n, 2, a0) object array whose entry
    [t, i - 1] is node i's rows (v_i^T M, v_i^T M') of sub-file t, read off
    the one product V [M_1 | M'_1 | ... | M'_T]."""
    a0, t = params.alpha0, params.subfiles
    blocks = pack_file(params, symbols).transpose(2, 0, 1, 3).reshape(2 * a0, -1)
    big_v = vandermonde(params.field, params.eval_points, 2 * a0)
    rows = (big_v @ Mat.from_array(params.field, blocks)).data
    return rows.reshape(params.n, t, 2, a0).swapaxes(0, 1)


@dataclass(frozen=True)
class _LeaveOneOut:
    """The inverse Vandermonde matrix on every k-1 of k points, in closed
    form from the one inverse on all k (see ``retrieve``)."""

    p: int
    top: np.ndarray  # (k-1) x k, the first k-1 rows of the inverse on all k points
    w: np.ndarray  # k, its last row: the GRS weights of the points
    w_recip: np.ndarray  # k, 1 / w_j

    @classmethod
    def of(cls, field: GF, pts: Sequence[int], dtype) -> "_LeaveOneOut":
        """The closed form on ``pts``, every array in ``dtype``."""
        v_inv, w_recip = vandermonde_inv(field, pts)
        arrays = (v_inv[:-1], v_inv[-1], w_recip)
        return cls(field.p, *(np.array(a, dtype=dtype) for a in arrays))

    def inverse(self, j: int) -> np.ndarray:
        """The inverse on every point but the j-th: its column i is
        top[:, i] - top[:, j] w_i / w_j."""
        keep = [i for i in range(len(self.w)) if i != j]
        ratio = self.w[keep] * self.w_recip[j] % self.p
        return (self.top[:, keep] - self.top[:, j : j + 1] * ratio) % self.p

    def solve(self, vals: np.ndarray) -> np.ndarray:
        """Column j of the result, for j < k-1, is ``inverse(j)`` applied to
        column j of ``vals`` (..., k, >= k-1) without its j-th entry."""
        a0 = len(self.top)
        g = vals[..., :a0].copy()
        g[..., range(a0), range(a0)] = 0
        p = self.p
        s = matmul_mod(self.w, g, p) * self.w_recip[:a0] % p  # sum_i (w_i / w_j) g_ij
        return (matmul_mod(self.top, g, p) - self.top[:, :a0] * s[..., None, :]) % p


@dataclass(frozen=True)
class _DecodePlan:
    """Every inverse that decoding from one sorted id set needs, each array
    in ``exact_dtype(k, p)``."""

    phibar_t: np.ndarray  # a0 x k, column a is vbar of the a-th id
    lam: np.ndarray  # k x 1, lam of the a-th id in row a
    diff_inv: np.ndarray  # k x k, (a, b) -> 1 / (lam_a - lam_b) mod p, 0 if a == b
    loo: _LeaveOneOut  # the inverse Vandermonde matrix on every a0 of the ids
    w_t_inv: np.ndarray  # inverse of W^T, W = the first a0 rows of phibar


@lru_cache(maxsize=16)  # the plan depends on (params, ids) alone
def _compiled_plan(params: SystemParams, ids: tuple[int, ...]) -> _DecodePlan:
    """The plan for rows read in the order of ``ids``."""
    field = params.field
    pts = [params.eval_points[i - 1] for i in ids]
    lam = [params.lam[i - 1] for i in ids]
    a0 = params.alpha0
    pairs = list(combinations(range(a0 + 1), 2))  # (a, b) with a < b
    diff_inv = [[0] * (a0 + 1) for _ in range(a0 + 1)]
    for (a, b), inv in zip(pairs, field.inv_all([lam[a] - lam[b] for a, b in pairs])):
        diff_inv[a][b], diff_inv[b][a] = inv, field.p - inv  # and 1 / (lam_b - lam_a)
    dtype = exact_dtype(len(ids), field.p)
    loo = _LeaveOneOut.of(field, pts, dtype)
    return _DecodePlan(
        phibar_t=vandermonde(field, pts, a0).data.T.astype(dtype),
        lam=np.array(lam, dtype=dtype)[:, None],
        diff_inv=np.array(diff_inv, dtype=dtype),
        loo=loo,
        w_t_inv=loo.inverse(a0).T,
    )


def retrieve(params: SystemParams, ids: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """Recover [S1; S2] of every instance read from the nodes ``ids``.

    ``rows`` is an object array (..., k, a0) of field elements in [0, p):
    stacked instances, each the k collected rows vbar^T S1 + lam vbar^T S2
    in the order of ``ids``. The result is the (..., 2a0, a0) array of
    their [S1; S2].

    With P = C_DC Phibar^T, entry P[a,b] = theta_ab + lam_a * psi_ab where
    theta_ab = vbar_a^T S1 vbar_b and psi_ab = vbar_a^T S2 vbar_b. Symmetry
    of S1, S2 makes theta and psi symmetric, so each off-diagonal pair
    (P[a,b], P[b,a]) is a 2x2 system in (theta_ab, psi_ab) with matrix
    [[1, lam_a], [1, lam_b]]. The k-1 values theta_aj (a != j) then pin
    down S1 vbar_j through a square Vandermonde solve on the ids without
    j, and the first a0 of those columns pin down S1 = C W^-T itself;
    likewise psi gives S2.

    Every one of those inverses follows from the one inverse of the k x k
    Vandermonde matrix on all k ids. Its column i holds the coefficients
    of the Lagrange polynomial L_i, and its last row the GRS weights w.
    For i != j, L_i - (w_i / w_j) L_j has degree <= k-2 and is 1 at x_i and
    0 at every other id but x_j, so the inverse on the ids without j has
    column i = top[:, i] - top[:, j] w_i / w_j, where ``top`` is the first
    a0 rows. Applied to all j at once: C = top G - top[:, :a0] diag(s),
    where G is theta (or psi) restricted to its first a0 columns with a
    zero diagonal and s_j = sum_{i != j} (w_i / w_j) G[i, j], with every
    1 / w_j as ``vandermonde_inv`` evaluated it on the way to w. W^-T is
    the same identity at j = a0.

    Everything here depends only on the ids, so one cached _DecodePlan
    serves all the instances, which numpy decodes in one broadcast pass in
    the plan's dtype.
    """
    plan = _compiled_plan(params, tuple(ids))
    p = params.p
    big_p = matmul_mod(rows.astype(plan.lam.dtype), plan.phibar_t, p)  # cast once
    big_p_t = big_p.swapaxes(-1, -2)
    psi = (big_p - big_p_t) * plan.diff_inv % p  # symmetric, 0 on the diagonal
    theta = (big_p - plan.lam * psi) % p  # symmetric off the diagonal
    return np.concatenate(
        [matmul_mod(plan.loo.solve(vals), plan.w_t_inv, p) for vals in (theta, psi)],
        axis=-2,
    )


def retrieve_file(
    params: SystemParams, storage: np.ndarray, ids: Sequence[int]
) -> tuple[int, ...]:
    """Rebuild the file from the storage of the k distinct nodes ``ids``.

    ``storage`` is ``encode_file``'s (T, n, 2, a0) array; only the rows of
    ``ids`` are read, and one ``retrieve`` call decodes every sub-file.
    """
    shape = (params.subfiles, params.n, 2, params.alpha0)
    if storage.shape != shape:
        raise BadShareSet(f"storage must have shape {shape}, got {storage.shape}")
    ids = sorted(ids)
    if not (len(ids) == len(set(ids)) == params.k
            and 1 <= ids[0] and ids[-1] <= params.n):
        raise BadShareSet(f"need {params.k} distinct node ids in [1, {params.n}]")
    rows = storage[:, [i - 1 for i in ids]].swapaxes(1, 2)  # (T, 2, k, a0)
    return unpack_file(params, retrieve(params, ids, rows))


def random_symbols(params: SystemParams, rng: SplitMix64) -> list[int]:
    """B field elements drawn from the deterministic stream."""
    return [rng.below(params.p) for _ in range(params.B)]
