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
and M', and ``encode_file`` multiplies V, which is ``params.powers``, by
all of them at once. Its result is the storage of the file, one
(T, n, 2, a0) array in ``exact_dtype(1, p)``, like all field data: entry
[t, i - 1] is node i's two rows for sub-file t.
``retrieve_file`` reads the rows of one set of k nodes from it and decodes
every sub-file in one broadcast ``retrieve``.

Every inverse a decode needs depends on (params, ids) alone, so its
``_DecodePlan`` is compiled once and kept in a per-process LRU of 16 plans.
A plan is compiled only for k distinct node ids in [1, n], and a refused id
set is never cached, so a cached plan needs no check: ``retrieve`` and
``retrieve_file`` refuse every other id set there, with one message.
A plan inverts no matrix. Of the inverse of the k x k Vandermonde matrix
on the ids' points it needs the first a0 rows, ``top``, and the last row,
the GRS weights w. ``matrix.lagrange_folds`` at c = 0 gives ``top`` up to
a column scaling, and every 1 / w_b, from the ids' rows of
``params.powers``; one batched field inversion, ``GF.inv_array``, does
the rest: a gather from the field's table of inverses for p <= 2^12.
The plan's arrays, the k rows and the decode's result are all in
``exact_dtype(1, p)``, the one dtype of all field data: every elementwise
step multiplies two reduced values, and ``matmul_mod`` widens each product
by its inner dimension, so the decode is exact with no cast of its own.

``SystemParams`` holds only (n, k, d, field, eval_points), and
``make_params`` interns it, one object per code per process, so every cache
keyed by params hits by identity and each table derived on it (lam, T,
``powers``, the sub-file ``family``, ``packing``, ``pairs``) is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from collections.abc import Sequence

import numpy as np

from .errors import BadShareSet, InvalidParams, NoValidPoints, WrongLength
from .gf import GF
from .matrix import exact_dtype, lagrange_folds, matmul_mod
from .rng import SplitMix64


@dataclass(frozen=True)
class SystemParams:
    """Validated code parameters; every property is derived from the fields."""

    n: int
    k: int
    d: int
    field: GF
    eval_points: tuple[int, ...]

    def __post_init__(self):
        # the fields never change, and every cache keyed by params hashes them
        fields = (self.n, self.k, self.d, self.p, self.eval_points)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def alpha0(self) -> int:
        """a0 = k - 1, the side of each symmetric matrix."""
        return self.k - 1

    @cached_property
    def lam(self) -> tuple[int, ...]:
        """lam_i = v_i^a0 of every node."""
        return tuple(pow(v, self.alpha0, self.p) for v in self.eval_points)

    @cached_property
    def subfiles(self) -> int:
        """T, the number of sub-files."""
        return subfile_count(self.k, self.d)

    @property
    def B(self) -> int:
        """File symbols: two pairs of symmetric a0 x a0 matrices per sub-file."""
        return 2 * self.alpha0 * (self.alpha0 + 1) * self.subfiles

    @property
    def alpha(self) -> int:
        """Dits stored per node across all sub-files; equals B / k."""
        return 2 * self.alpha0 * self.subfiles

    @property
    def storage_shape(self) -> tuple[int, int, int, int]:
        """(T, n, 2, a0), the shape of a file's storage array."""
        return (self.subfiles, self.n, 2, self.alpha0)

    @cached_property
    def powers(self) -> np.ndarray:
        """The read-only (n, 2a0) table of every node's powers, in
        ``exact_dtype(1, p)``: row i - 1 is (1, v_i, ..., v_i^(2a0-1)), so
        its first a0 entries are vbar_i and entry a0 is lam_i."""
        p, x = self.p, np.array(self.eval_points, dtype=exact_dtype(1, self.p))
        table = np.empty((self.n, 2 * self.alpha0), dtype=x.dtype)
        table[:, 0] = 1
        for e in range(1, 2 * self.alpha0):
            table[:, e] = table[:, e - 1] * x % p
        table.flags.writeable = False
        return table

    @cached_property
    def family(self) -> np.ndarray:
        """Every (2k-2)-subset of the d helper slots in colex order, as the
        read-only (T, 2k-2) int array whose row t lists sub-file t's slots."""
        rows = sorted(combinations(range(self.d), 2 * self.k - 2), key=lambda s: s[::-1])
        family = np.array(rows)
        family.flags.writeable = False
        return family

    @cached_property
    def packing(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The packing order of a symmetric a0 x a0 matrix: its row-major
        upper-triangle (row, column) indices, and each entry's place in it."""
        upper = np.triu_indices(self.alpha0)
        table = np.empty((self.alpha0,) * 2, dtype=int)
        table[upper] = table[upper[::-1]] = np.arange(len(upper[0]))
        return upper, table

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (a, b) indices of a k x k matrix with a < b."""
        return np.triu_indices(self.k, 1)


def subfile_count(k: int, d: int) -> int:
    """T = C(d, 2k-2): one sub-file per (2k-2)-subset of the d helpers."""
    return comb(d, 2 * k - 2)


def _greedy_points(field: GF, n: int, alpha0: int) -> tuple[int, ...] | None:
    """First n nonzero points (in field order) with pairwise-distinct lam."""
    chosen: list[int] = []
    seen_lam: set[int] = set()
    for c in range(1, field.p):
        lam = pow(c, alpha0, field.p)
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
    points qualify it raises NoValidPoints (use a larger prime). Equal
    (n, k, d, p) and points give the one interned object.
    """
    if k < 2 or d < 2 * k - 2 or d >= n:
        raise InvalidParams(f"need k >= 2 and 2k-2 <= d < n, got ({n},{k},{d})")
    if p < n + 1:
        raise InvalidParams(f"need p >= n+1 = {n + 1}, got {p}")
    try:
        field = _field(p)
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

    return _interned(n, k, d, field, pts)


@lru_cache(maxsize=16)  # a p that fails raises, so it is checked again on every call
def _field(p: int) -> GF:
    """GF(p), its primality proven once per process."""
    return GF(p)


@lru_cache(maxsize=64)  # one object per code: identity hits in every params cache
def _interned(n: int, k: int, d: int, field: GF, pts: tuple[int, ...]):
    """The one SystemParams of checked (n, k, d) and points, unless lam collides."""
    params = SystemParams(n, k, d, field, pts)
    if len(set(params.lam)) != n:
        raise InvalidParams("lam values v^(k-1) collide for these points")
    return params


def pack_file(params: SystemParams, symbols: Sequence[int]) -> np.ndarray:
    """Gather B int symbols, reduced mod p, into one (T, 2, 2a0, a0) array
    in ``exact_dtype(1, p)``: entry [t, 0] is sub-file t's M = [S1; S2] and
    entry [t, 1] its M' = [S1'; S2'].

    Sub-file t holds the t-th run of B / T symbols, in the order: upper
    triangle of S1 row-major, then S2, S1', S2'.
    """
    if len(symbols) != params.B:
        raise WrongLength(f"expected {params.B} symbols, got {len(symbols)}")
    a0, t = params.alpha0, params.subfiles
    p = params.p
    parts = np.array([x % p for x in symbols], dtype=exact_dtype(1, p))
    parts = parts.reshape(t, 4, -1)
    return parts[:, :, params.packing[1]].reshape(t, 2, 2 * a0, a0)


def unpack_file(params: SystemParams, packed: np.ndarray) -> np.ndarray:
    """The inverse gather of ``pack_file``: the file's symbols, a 1-D array."""
    a0 = params.alpha0
    rows, cols = params.packing[0]
    return packed.reshape(-1, 4, a0, a0)[:, :, rows, cols].ravel()


def encode_file(params: SystemParams, symbols: Sequence[int]) -> np.ndarray:
    """The storage of the file of B int symbols: a (T, n, 2, a0) array in
    ``exact_dtype(1, p)`` whose entry [t, i - 1] is node i's rows
    (v_i^T M, v_i^T M') of sub-file t, read off the one product
    V [M_1 | M'_1 | ... | M'_T], V being ``params.powers``."""
    a0, t = params.alpha0, params.subfiles
    blocks = pack_file(params, symbols).transpose(2, 0, 1, 3).reshape(2 * a0, -1)
    rows = matmul_mod(params.powers, blocks, params.p)
    return rows.reshape(params.n, t, 2, a0).swapaxes(0, 1)


@dataclass(frozen=True)
class _DecodePlan:
    """Every inverse that decoding from one sorted id set needs, each array
    in ``exact_dtype(1, p)``."""

    phibar_t: np.ndarray  # a0 x k, column a is vbar of the a-th id
    lam: np.ndarray  # k x 1, lam of the a-th id in row a
    diff_inv: np.ndarray  # k x k, (a, b) -> 1 / (lam_a - lam_b) mod p, 0 if a == b
    top: np.ndarray  # a0 x k, the first a0 rows of the inverse Vandermonde matrix
    w: np.ndarray  # k, its last row: the GRS weights of the ids' points
    w_recip: np.ndarray  # k, 1 / w_b


@lru_cache(maxsize=16)  # the plan depends on (params, ids) alone
def _compiled_plan(params: SystemParams, ids: tuple[int, ...]) -> _DecodePlan:
    """The plan for rows read in the order of ``ids``, once they are known
    to be k distinct nodes in [1, n]. ``lagrange_folds`` at c = 0 gives
    column b of ``top`` times lam_b / w_b, and A'(x_b) = 1 / w_b, so ``top``
    and w need every w_b / lam_b = 1 / (lam_b A'(x_b)), which one
    ``GF.inv_array`` inverts with every lam_a - lam_b."""
    if not (len(ids) == len(set(ids)) == params.k
            and 1 <= min(ids) and max(ids) <= params.n):
        raise BadShareSet(f"need {params.k} distinct node ids in [1, {params.n}]")
    p, a0 = params.p, params.alpha0
    powers = params.powers[[i - 1 for i in ids]]  # (k, 2a0): k = a0 + 1 <= 2a0
    lam = powers[:, a0]
    cols, w_recip = lagrange_folds(powers[None], a0, 0, p)
    upper = params.pairs
    inv = params.field.inv_array(
        np.concatenate([(lam[upper[0]] - lam[upper[1]]) % p, lam * w_recip[0] % p])
    )
    pair_inv, w_by_lam = inv[: -params.k], inv[-params.k :]  # w_b / lam_b
    diff_inv = np.zeros((params.k,) * 2, dtype=powers.dtype)
    diff_inv[upper] = pair_inv
    diff_inv[upper[::-1]] = p - pair_inv  # 1 / (lam_b - lam_a)
    return _DecodePlan(powers[:, :a0].T, lam[:, None], diff_inv,
                       cols[0] * w_by_lam % p, w_by_lam * lam % p, w_recip[0])


def _unfold(x: np.ndarray, top, w, w_recip, p: int) -> np.ndarray:
    """S from X = Phi S Phi^T, whatever X holds on its diagonal, which this
    overwrites in place.

    ``x`` is (..., k, k) and Phi the k x a0 matrix of the vbar rows of k
    distinct points; ``top`` and ``w`` are the first a0 rows and the last
    row of the inverse Vandermonde matrix on them, ``w_recip`` is 1 / w.
    Their products with Phi are I and 0, so S = top X top^T once w^T X = 0.
    Subtracting (w^T X)_b / w_b from X_bb makes it so: it sets
    X_bb = -(1 / w_b) sum_{a != b} w_a X_ab. Each product has inner
    dimension k.
    """
    diag = range(x.shape[-1])
    x[..., diag, diag] = (x[..., diag, diag] - matmul_mod(w, x, p) * w_recip) % p
    return matmul_mod(matmul_mod(top, x, p), top.T, p)


def retrieve(params: SystemParams, ids: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """Recover [S1; S2] of every instance read from the nodes ``ids``.

    ``rows`` is an array (..., k, a0) of field elements in [0, p), in
    ``exact_dtype(1, p)``: stacked instances, each the k collected rows
    vbar^T S1 + lam vbar^T S2 in the order of ``ids``. The result is the
    (..., 2a0, a0) array of their [S1; S2], in that dtype too.

    With P = C_DC Phibar^T, entry P[a,b] = theta_ab + lam_a * psi_ab where
    theta = Phi S1 Phi^T and psi = Phi S2 Phi^T, Phi the k x a0 matrix of
    the ids' vbar rows. Symmetry of S1, S2 makes theta and psi symmetric,
    so each off-diagonal pair (P[a,b], P[b,a]) is a 2x2 system in
    (theta_ab, psi_ab) with matrix [[1, lam_a], [1, lam_b]]. That leaves
    the diagonals of theta and psi unknown, and ``_unfold`` rebuilds S1
    and S2 from the one inverse Vandermonde matrix on all k ids.

    Everything here depends only on the ids, so one cached _DecodePlan
    serves all the instances, which numpy decodes in one broadcast pass.
    """
    plan = _compiled_plan(params, tuple(ids))
    p = params.p
    big_p = matmul_mod(rows, plan.phibar_t, p)
    psi = (big_p - big_p.swapaxes(-1, -2)) * plan.diff_inv % p  # 0 on the diagonal
    theta = (big_p - plan.lam * psi) % p  # symmetric off the diagonal
    s = _unfold(np.stack((theta, psi), axis=-3), plan.top, plan.w, plan.w_recip, p)
    return s.reshape(*s.shape[:-3], -1, s.shape[-1])  # [S1; S2]


def check_storage(params: SystemParams, storage: np.ndarray) -> None:
    """Raise BadShareSet unless ``storage`` has ``params.storage_shape``."""
    shape = params.storage_shape
    if storage.shape != shape:
        raise BadShareSet(f"storage must have shape {shape}, got {storage.shape}")


def retrieve_file(
    params: SystemParams, storage: np.ndarray, ids: Sequence[int]
) -> np.ndarray:
    """Rebuild the file from the storage of the k distinct nodes ``ids``: its
    B symbols, a 1-D array in ``exact_dtype(1, p)``.

    ``storage`` is ``encode_file``'s (T, n, 2, a0) array; only the rows of
    ``ids`` are read, once their plan is compiled, which checks them, and
    one ``retrieve`` call decodes every sub-file.
    """
    check_storage(params, storage)
    ids = tuple(sorted(ids))
    _compiled_plan(params, ids)  # refuses bad ids before any row is read
    rows = storage[:, [i - 1 for i in ids]].swapaxes(1, 2)  # (T, 2, k, a0)
    return unpack_file(params, retrieve(params, ids, rows))


def random_symbols(params: SystemParams, rng: SplitMix64) -> list[int]:
    """B field elements drawn from the deterministic stream."""
    return [rng.below(params.p) for _ in range(params.B)]
