"""Dense exact linear algebra over GF(p).

Matrices are row-major int buffers tied to a GF instance; all arithmetic is
exact. Every matrix the codes invert is a square Vandermonde matrix, so the
hot paths use ``vandermonde_inv``, an O(m^2) closed form, instead of the
cubic Gauss-Jordan ``Mat.inv``, which stays as the general reference. Pivot
selection always takes the first nonzero entry in column order, which keeps
eliminations (and everything built on them) deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from .errors import DimensionMismatch, RepeatedPoint, Singular
from .gf import GF


class Mat:
    """A rows x cols matrix over GF(p)."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: GF, rows: int, cols: int, data: Sequence[int]):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = [x % field.p for x in data]

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]]) -> "Mat":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(field, nrows, ncols, flat)

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, field: GF, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i * n + i] = 1
        return m

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"Mat({self.field!r}, {self.to_rows()})"

    def transpose(self) -> "Mat":
        out = Mat.zeros(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[i * self.cols + j]
        return out

    @property
    def T(self) -> "Mat":
        return self.transpose()

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p = self.field.p
        out = Mat.zeros(self.field, self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i * self.cols : (i + 1) * self.cols]
            for j in range(other.cols):
                s = 0
                for t in range(self.cols):
                    s += arow[t] * other.data[t * other.cols + j]
                out.data[i * other.cols + j] = s % p
        return out

    def is_zero(self) -> bool:
        return not any(self.data)

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
    data: list[int] = []
    for pt in points:
        data.extend(field.pow(pt, j) for j in range(cols))
    return Mat(field, len(points), cols, data)


def grs_dual_weights(field: GF, points: Sequence[int]) -> list[int]:
    """w_j = (prod_{i != j} (points_j - points_i))^(-1).

    These are the dual-code weights of a generalized Reed-Solomon code on
    the given points: sum_j w_j points_j^m = 0 for every 0 <= m <= d-2.
    """
    pts = [x % field.p for x in points]
    if len(set(pts)) != len(pts):
        raise RepeatedPoint(f"points must be pairwise distinct: {points}")
    return [
        field.inv(prod(pj - pi for i, pi in enumerate(pts) if i != j))
        for j, pj in enumerate(pts)
    ]


def vandermonde_inv(field: GF, points: Sequence[int]) -> Mat:
    """Inverse of the square ``vandermonde(field, points, len(points))``.

    Column i holds the coefficients of the Lagrange basis polynomial
    prod_{j != i} (x - x_j) / (x_i - x_j): the master polynomial
    prod_j (x - x_j), divided synthetically by (x - x_i), times the GRS
    weight of x_i. O(m^2); repeated points raise RepeatedPoint.
    """
    p = field.p
    pts = [x % p for x in points]
    master = [1]  # coefficients of prod_j (x - x_j), constant term first
    for x in pts:
        master = [(a - x * b) % p for a, b in zip([0] + master, master + [0])]
    cols = []
    for x, w in zip(pts, grs_dual_weights(field, pts)):
        acc, col = 0, []
        for c in reversed(master[1:]):  # quotient coefficients, highest first
            acc = (c + x * acc) % p
            col.append(acc * w % p)
        cols.append(col[::-1])
    return Mat.from_rows(field, list(zip(*cols)))


def vstack(blocks: Sequence[Mat]) -> Mat:
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise DimensionMismatch("column counts differ")
    data: list[int] = []
    for b in blocks:
        data.extend(b.data)
    return Mat(blocks[0].field, sum(b.rows for b in blocks), cols, data)


def matvec(a: Mat, v: Sequence[int]) -> list[int]:
    if len(v) != a.cols:
        raise DimensionMismatch(f"vector length {len(v)} != {a.cols}")
    p = a.field.p
    return [
        sum(a.data[i * a.cols + t] * v[t] for t in range(a.cols)) % p
        for i in range(a.rows)
    ]


def dot(field: GF, x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths {len(x)} != {len(y)}")
    return sum(a * b for a, b in zip(x, y)) % field.p
