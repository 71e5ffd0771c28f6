"""Dense exact linear algebra over GF(p).

Field data is held in one dtype, ``exact_dtype(1, p)``: int64 arrays when
(p - 1)^2 < 2^63, that is for p <= 3037000493, and object arrays of Python
ints above that, so that every elementwise step, which multiplies two
reduced values and adds at most one more, stays exact. A ``Mat`` ties an
object array to a GF instance; only ``vandermonde`` and the test reference
``Mat.inv`` still use it. Every matrix product in the package goes through
``matmul_mod``, the one exact GF(p) product kernel. Its operands share one
dtype, which the result keeps, and hold integers in (-p, p), as every
reduced array and its negation do. With K the inner dimension, each entry
of the product is a sum of K terms of absolute value at most (p - 1)^2. So
when K (p - 1)^2 < 2^63 (``exact_dtype``) the kernel multiplies in int64,
where no partial sum can overflow; otherwise it multiplies Python ints.
Either way the result is exact, and which path runs follows from (p, K)
alone.
Every matrix the codes would invert is a square Vandermonde matrix, and
they need only a few rows of its inverse, or a fold of them: the first
k-1 rows, ``top``, and the last row w of a decode plan (``pmcode``), and
[I | lam_f I] times the inverse for a repair code (``css``).
``lagrange_folds`` gives those rows from a closed form, two products and
no inversion at all, for a stack of point sets at once: a list loop per
set for a short stack, one array step per point across a long one. The
caller inverts every A'(x_i) = 1 / w_i in one batch (``GF.inv_array``).
``vandermonde_inv``, the whole inverse in O(m^2) with one field
inversion, and the cubic Gauss-Jordan ``Mat.inv`` stay as the references
the tests check them against.
``vandermonde`` builds each row of powers by a running product, one
multiplication per entry. Pivot selection always takes the first nonzero
entry in column order, which keeps eliminations (and everything built on
them) deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, RepeatedPoint, Singular
from .gf import GF

_INT64_LIMIT = 1 << 63


def exact_dtype(terms: int, p: int):
    """int64 when a sum of ``terms`` products of integers in (-p, p) cannot
    overflow it, that is when terms (p - 1)^2 < 2^63; object otherwise."""
    return np.int64 if terms * (p - 1) ** 2 < _INT64_LIMIT else object


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``(a @ b) % p`` exactly, with entries in [0, p), in the dtype that
    ``a`` and ``b`` share.

    ``a`` and ``b`` hold integers in (-p, p) and broadcast as in
    ``np.matmul``. The product runs in ``exact_dtype`` of the inner
    dimension: int64 where no partial sum can leave it, else Python ints.
    """
    kind = exact_dtype(a.shape[-1], p)
    out = a.astype(kind, copy=False) @ b.astype(kind, copy=False) % p
    return out.astype(a.dtype, copy=False)


class Mat:
    """A rows x cols matrix over GF(p)."""

    __slots__ = ("field", "data")

    def __init__(self, field: GF, rows: int, cols: int, data: Sequence[int]):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.field = field
        self.data = np.array(data, dtype=object).reshape(rows, cols) % field.p

    @classmethod
    def from_array(cls, field: GF, array: np.ndarray) -> "Mat":
        """Wrap a 2-D object array of ints, reduced mod p."""
        m = cls.__new__(cls)
        m.field = field
        m.data = array % field.p
        return m

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]]) -> "Mat":
        ncols = len(rows[0]) if len(rows) else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls.from_array(
            field, np.array(rows, dtype=object).reshape(len(rows), ncols)
        )

    @classmethod
    def identity(cls, field: GF, n: int) -> "Mat":
        return cls.from_array(field, np.identity(n, dtype=object))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def to_rows(self) -> list[list[int]]:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.data.shape == self.data.shape
            and bool((other.data == self.data).all())
        )

    def __repr__(self) -> str:
        return f"Mat({self.field!r}, {self.to_rows()})"

    @property
    def T(self) -> "Mat":
        return Mat.from_array(self.field, self.data.T)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = Mat.__new__(Mat)
        out.field = self.field
        out.data = matmul_mod(self.data, other.data, self.field.p)
        return out

    def inv(self) -> "Mat":
        """Gauss-Jordan inverse; raises Singular when rank < n."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse needs a square matrix")
        n = self.rows
        p = self.field.p
        a = self.to_rows()
        b = Mat.identity(self.field, n).to_rows()
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                raise Singular(f"rank < {n}")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                b[col], b[pivot] = b[pivot], b[col]
            inv_piv = self.field.inv(a[col][col])
            a[col] = [x * inv_piv % p for x in a[col]]
            b[col] = [x * inv_piv % p for x in b[col]]
            for r in range(n):
                if r == col or a[r][col] == 0:
                    continue
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
                b[r] = [(x - f * y) % p for x, y in zip(b[r], b[col])]
        return Mat.from_rows(self.field, b)


def vandermonde(field: GF, points: Sequence[int], cols: int) -> Mat:
    """Rows of successive powers: entry (i, j) = points[i]**j."""
    rows = np.array([field.powers(pt, cols) for pt in points], dtype=object)
    return Mat.from_array(field, rows.reshape(len(points), cols))


def _master_polynomials(sets: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """The coefficients of each set's master polynomial prod_j (x - x_j)
    mod p, highest first, by a list loop over its points; a point repeated
    within a set raises RepeatedPoint."""
    masters = []
    for pts in sets:
        if len(set(pts)) != len(pts):
            raise RepeatedPoint(f"points must be pairwise distinct: {pts}")
        master = [1]
        for x in pts:  # times (x - x_j): each coefficient less x_j times the one above
            above, product = 0, []
            for c in master:
                product.append((c - x * above) % p)
                above = c
            master = product + [-x * above % p]
        masters.append(master)
    return masters


# stacks of at least this many point sets run ``lagrange_folds`` as array
# steps across the stack, smaller ones as a list loop per set: on sets of 6
# points at p = 17 the steps took 44-79 us for 1-6 sets against 22-79 us for
# the loop, broke even near 6-8 sets and took 65-86 us against 292-300 us
# for 28 sets (timeit, shared 2-core VM); on Python ints, p > 3037000493,
# they break even nearer 12 sets
_STACKED = 8


@lru_cache(maxsize=16)  # building the indices costs more than gathering with them
def _fold_index(a0: int) -> np.ndarray:
    """The a0 x a0 table (r, s) -> a0 + r - s: where, in [c f | f], lies the
    coefficient that x^s f puts at x^r modulo x^a0 - c."""
    r = np.arange(a0)
    return a0 + r[:, None] - r


def lagrange_folds(
    powers: np.ndarray, a0: int, c: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """For every point of a stack of point sets, its Lagrange numerator
    A / (x - x_i) times lam_i - c, reduced modulo x^a0 - c, and A'(x_i):
    the rows of an inverse Vandermonde matrix the codes need, up to a
    column scaling, without inverting anything.

    ``powers`` is a (B, m, E) stack, m <= E, whose row i of set b is
    (1, x_i, ..., x_i^(E-1)) mod p, read from a table of powers; ``c`` is
    any field element other than every lam_i = x_i^a0. Let A be a set's
    master polynomial prod_j (x - x_j) and R_i = sum_{t < a0} x_i^(a0-1-t)
    x^t. As (x - x_i) R_i = x^a0 - lam_i, which is c - lam_i modulo
    x^a0 - c, the polynomial -A R_i reduced modulo x^a0 - c is
    (lam_i - c) A / (x - x_i) reduced likewise. Times w_i = 1 / A'(x_i)
    that is the Lagrange basis polynomial of x_i, column i of the inverse
    of the m x m Vandermonde matrix, folded: [I | c I] times that inverse
    when m = 2 a0, its first a0 rows when m = a0 + 1 and c = 0.

    Returns the (B, a0, m) stack whose column i holds the coefficients of
    -A R_i modulo x^a0 - c, lowest first, as one product C R of the matrix
    C that multiplies by -A modulo x^a0 - c and the matrix R of columns
    R_i; and the (B, m) values A'(x_i) = prod_{j != i} (x_i - x_j), as one
    product of the powers and the coefficients of A'. Both are in the dtype
    of ``powers``, which ``exact_dtype(1, p)`` keeps exact: every
    elementwise step multiplies two reduced values, and each product runs
    in its own ``exact_dtype``. A stack of fewer than ``_STACKED`` sets
    builds each A by a list loop; a longer one builds them all at once,
    one array step per point (``_stacked_folds``). A set with a repeated
    point raises RepeatedPoint, which is where A'(x_i) is 0.
    """
    m = powers.shape[-2]
    if len(powers) < _STACKED:
        folds, slopes = [], []
        for a in _master_polynomials(powers[..., 1].tolist(), p):
            a.reverse()  # lowest first
            slopes.append([e * a[e] % p for e in range(1, m + 1)])  # A', lowest first
            for e in range(m, a0 - 1, -1):  # x^e = c x^(e - a0) modulo x^a0 - c
                a[e - a0] = (a[e - a0] + c * a[e]) % p
            folds.append([-x % p for x in a[:a0]])
        neg = np.array(folds, dtype=powers.dtype)
        slope = np.array(slopes, dtype=powers.dtype)
    else:
        neg, slope = _stacked_folds(powers[..., 1].T, a0, c, p)
    circ = np.concatenate([c * neg % p, neg], axis=-1)[:, _fold_index(a0)]
    cols = matmul_mod(circ, powers[..., a0 - 1 :: -1].swapaxes(-1, -2), p)
    slopes = matmul_mod(powers[..., :m], slope[..., None], p)[..., 0]
    if not slopes.all():  # A'(x_i) = prod_{j != i} (x_i - x_j) is 0 where x_i repeats
        bad = powers[np.flatnonzero((slopes == 0).any(axis=-1))[0], :, 1].tolist()
        raise RepeatedPoint(f"points must be pairwise distinct: {bad}")
    return cols, slopes


def _stacked_folds(x: np.ndarray, a0: int, c: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """For the (m, B) points ``x``, column b a set, the (B, a0) coefficients
    of each set's -A modulo x^a0 - c and the (B, m) coefficients of its A',
    both lowest first: ``lagrange_folds``' list loop as one array step per
    point across all the sets, then one per chunk of a0 coefficients."""
    m, b = x.shape
    a = np.zeros((m // a0 + 1, a0, b), dtype=x.dtype)  # whole chunks of a0 coefficients
    flat = a.reshape(-1, b)  # after j points rows m - j to m hold their product, lowest first
    flat[m] = 1
    for j in range(m):  # times (x - x_j): each coefficient less x_j times the one above
        top = flat[m - j - 1 : m]
        top -= x[j] * flat[m - j : m + 1]
        top %= p
    slope = flat[1 : m + 1] * np.arange(1, m + 1)[:, None] % p
    folded = a[-1]
    for chunk in a[-2::-1]:  # x^(q a0 + r) = c^q x^r modulo x^a0 - c, by Horner in c
        folded = (chunk + c * folded) % p
    return (-folded % p).T, slope.T


def vandermonde_inv(field: GF, points: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Inverse of the square ``vandermonde(field, points, len(points))``, as
    an (m, m) array of ints in [0, p) in ``exact_dtype(1, p)``, and the
    reciprocals 1 / w_i of its last row.

    Column i holds the coefficients of the Lagrange basis polynomial
    prod_{j != i} (x - x_j) / (x_i - x_j): the master polynomial
    prod_j (x - x_j), divided synthetically by (x - x_i), times the GRS
    weight w_i of x_i. The master polynomial comes from a list loop; the
    divisions then run as one Horner step per coefficient over all m
    points, in ``exact_dtype(1, p)``, as (p - 1)^2 + p - 1 < 2^63 whenever
    (p - 1)^2 < 2^63. Each step also evaluates every quotient at its own
    point, which gives 1 / w_i = prod_{j != i} (x_i - x_j), and one
    ``GF.inv_all`` gives every w_i. O(m^2); repeated points raise
    RepeatedPoint.
    """
    p = field.p
    pts = [int(x) % p for x in points]
    (master,) = _master_polynomials([pts], p)
    dtype = exact_dtype(1, p)
    xs = np.array(pts, dtype=dtype)
    # one coefficient of every quotient, and every quotient so far at its point
    quotient = at_own_point = np.zeros(xs.shape, dtype=dtype)
    rows = []
    for c in master[:-1]:  # highest first
        quotient = (quotient * xs + c) % p
        at_own_point = (at_own_point * xs + quotient) % p
        rows.append(quotient)
    w = np.array(field.inv_all(at_own_point.tolist()), dtype=dtype)
    return np.array(rows[::-1], dtype=dtype) * w % p, at_own_point.tolist()


def grs_dual_weights(field: GF, points: Sequence[int]) -> list[int]:
    """w_j = (prod_{i != j} (points_j - points_i))^(-1), the last row of
    ``vandermonde_inv``: the dual-code weights of a generalized Reed-Solomon
    code on the points, sum_j w_j points_j^m = 0 for every 0 <= m <= d-2."""
    return vandermonde_inv(field, points)[0][-1].tolist()
