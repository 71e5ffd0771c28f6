"""Gauss-Jordan helpers over GF(p) that only the tests need, and the
pure-Python loops that ``Mat``'s numpy products are checked against."""

from functools import cache
from math import isqrt, prod

from qregen.errors import DimensionMismatch
from qregen.gf import is_prime
from qregen.matrix import Mat


def zeros(field, rows, cols):
    """The rows x cols zero matrix."""
    return Mat(field, rows, cols, [0] * (rows * cols))


def rref(m):
    """Reduced row echelon form of m and the list of pivot columns."""
    p = m.field.p
    a = m.to_rows()
    pivots = []
    r = 0
    for col in range(m.cols):
        if r == m.rows:
            break
        pivot = next((i for i in range(r, m.rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv_piv = m.field.inv(a[r][col])
        a[r] = [x * inv_piv % p for x in a[r]]
        for i in range(m.rows):
            if i == r or a[i][col] == 0:
                continue
            f = a[i][col]
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    red = Mat.from_rows(m.field, a) if a else zeros(m.field, m.rows, m.cols)
    return red, pivots


def rank(m):
    return len(rref(m)[1])


def right_kernel(m):
    """Basis vectors v with m @ v = 0, one per free column."""
    red, pivots = rref(m)
    p = m.field.p
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [0] * m.cols
        v[fcol] = 1
        for r, pcol in enumerate(pivots):
            v[pcol] = -red.data[r, fcol] % p
        basis.append(v)
    return basis


def blkdiag(field, blocks):
    """Block-diagonal assembly; blocks may be rectangular."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = zeros(field, rows, cols)
    r0 = c0 = 0
    for b in blocks:
        if b.field != field:
            raise DimensionMismatch("field mismatch")
        out.data[r0 : r0 + b.rows, c0 : c0 + b.cols] = b.data
        r0 += b.rows
        c0 += b.cols
    return out


def matmul_ref(a, b):
    """Rows of a @ b by the triple loop over Python ints."""
    p = a.field.p
    a_rows, b_rows = a.to_rows(), b.to_rows()
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = 0
            for t in range(a.cols):
                s += a_rows[i][t] * b_rows[t][j]
            row.append(s % p)
        out.append(row)
    return out


def transpose_ref(a):
    """Rows of a^T, entry by entry."""
    rows = a.to_rows()
    return [[rows[i][j] for i in range(a.rows)] for j in range(a.cols)]


def matvec(a, v):
    """a v over Python ints."""
    if len(v) != a.cols:
        raise DimensionMismatch(f"vector length {len(v)} != {a.cols}")
    return [dot(a.field, row, v) for row in a.to_rows()]


def dot(field, x, y):
    """x . y over Python ints."""
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths {len(x)} != {len(y)}")
    return sum(a * b for a, b in zip(x, y)) % field.p


def grs_weights(field, points):
    """w_j = 1 / prod_{i != j} (x_j - x_i), one field inversion per point."""
    return [
        field.inv(prod(xj - xi for i, xi in enumerate(points) if i != j))
        for j, xj in enumerate(points)
    ]


@cache
def int64_bound_primes(inner):
    """The largest prime p with inner (p - 1)^2 < 2^63, and the next prime."""
    top = isqrt(((1 << 63) - 1) // inner) + 1  # the largest p - 1 the bound allows
    below = next(q for q in range(top, 1, -1) if is_prime(q))
    above = next(q for q in range(top + 1, 2 * top) if is_prime(q))
    assert inner * (below - 1) ** 2 < 1 << 63 <= inner * (above - 1) ** 2
    return below, above
