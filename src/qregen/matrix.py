"""Dense exact linear algebra over GF(p).

Matrices are 2-D numpy arrays of ``dtype=object`` whose items are Python
ints in [0, p). A ``Mat`` ties one such array to a GF instance; only
``vandermonde``, encoding's product and the test reference ``Mat.inv``
still use it. Every matrix product in the package goes through
``matmul_mod``, the one exact GF(p) product kernel. Its operands hold
integers in (-p, p), as every reduced array and its negation do. They are
object arrays of Python ints, and so is the result, except that two int64
operands (the decode plan's, see ``pmcode``) give an int64 result. With K
the inner dimension, each entry of the product is a sum of K terms of
absolute value at most (p - 1)^2. So when K (p - 1)^2 < 2^63
(``exact_dtype``) the kernel multiplies in int64, where no partial sum can
overflow; otherwise it multiplies Python ints. Either way the result is
exact, and which path runs follows from (p, K) alone. Every matrix the
codes invert is a square Vandermonde matrix, so the hot paths use
``vandermonde_inv``, an O(m^2) closed form with one field inversion,
instead of the cubic Gauss-Jordan ``Mat.inv``. It returns a plain array
and the reciprocals of its last row, the GRS weights. Retrieval calls it
once per node set: the inverse on any k-1 of k points is a rank-one
correction of the inverse on all k (``pmcode._LeaveOneOut``).
``vandermonde`` builds each row of powers by a running product, one
multiplication per entry. Pivot selection always takes the first nonzero
entry in column order, which keeps eliminations (and everything built on
them) deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch, RepeatedPoint, Singular
from .gf import GF

_INT64_LIMIT = 1 << 63


def exact_dtype(terms: int, p: int):
    """int64 when a sum of ``terms`` products of integers in (-p, p) cannot
    overflow it, that is when terms (p - 1)^2 < 2^63; object otherwise."""
    return np.int64 if terms * (p - 1) ** 2 < _INT64_LIMIT else object


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``(a @ b) % p`` exactly, with entries in [0, p): an int64 array when
    both operands are int64, an object array of Python ints otherwise.

    ``a`` and ``b`` hold integers in (-p, p) and broadcast as in
    ``np.matmul``. The product runs in ``exact_dtype`` of the inner
    dimension: int64 where no partial sum can leave it, else Python ints.
    """
    kind = exact_dtype(a.shape[-1], p)
    out = a.astype(kind, copy=False) @ b.astype(kind, copy=False) % p
    if a.dtype == b.dtype == np.int64:
        return out if kind is np.int64 else np.asarray(out, dtype=np.int64)
    return out if kind is object else out.astype(object)


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

    def row(self, i: int) -> list[int]:
        return self.data[i].tolist()

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

    def is_zero(self) -> bool:
        return not self.data.any()

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


def vandermonde_inv(field: GF, points: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Inverse of the square ``vandermonde(field, points, len(points))``, as
    an (m, m) object array of Python ints in [0, p), and the reciprocals
    1 / w_i of its last row.

    Column i holds the coefficients of the Lagrange basis polynomial
    prod_{j != i} (x - x_j) / (x_i - x_j): the master polynomial
    prod_j (x - x_j), divided synthetically by (x - x_i), times the GRS
    weight w_i of x_i. The m divisions run as one Horner step per
    coefficient over the vector of points, in ``exact_dtype(1, p)``, as
    (p - 1)^2 + p - 1 < 2^63 whenever (p - 1)^2 < 2^63. Each step also
    evaluates every quotient at its own point, which gives
    1 / w_i = prod_{j != i} (x_i - x_j), and one ``GF.inv_all`` gives every
    w_i. Callers that need the 1 / w_i take them from here rather than
    invert w again. O(m^2); repeated points raise RepeatedPoint.
    """
    p = field.p
    pts = [x % p for x in points]
    if len(set(pts)) != len(pts):
        raise RepeatedPoint(f"points must be pairwise distinct: {points}")
    master = [1]  # coefficients of prod_j (x - x_j), constant term first
    for x in pts:
        master = [(a - x * b) % p for a, b in zip([0] + master, master + [0])]
    dtype = exact_dtype(1, p)
    xs = np.array(pts, dtype=dtype)
    # one coefficient of every quotient, and every quotient so far at its point
    quotient = at_own_point = np.zeros(len(pts), dtype=dtype)
    rows = []
    for c in reversed(master[1:]):  # quotient coefficients, highest first
        quotient = (quotient * xs + c) % p
        at_own_point = (at_own_point * xs + quotient) % p
        rows.append(quotient)
    w_recip = at_own_point.tolist()
    w = np.array(field.inv_all(w_recip), dtype=dtype)
    return (np.array(rows[::-1]) * w % p).astype(object), w_recip


def grs_dual_weights(field: GF, points: Sequence[int]) -> list[int]:
    """w_j = (prod_{i != j} (points_j - points_i))^(-1), the last row of
    ``vandermonde_inv``: the dual-code weights of a generalized Reed-Solomon
    code on the points, sum_j w_j points_j^m = 0 for every 0 <= m <= d-2."""
    return vandermonde_inv(field, points)[0][-1].tolist()
