"""Gauss-Jordan helpers over GF(p) that only the tests need."""

from qregen.errors import DimensionMismatch
from qregen.matrix import Mat


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
    red = Mat.from_rows(m.field, a) if a else Mat(m.field, m.rows, m.cols, m.data)
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
            v[pcol] = -red[r, fcol] % p
        basis.append(v)
    return basis


def blkdiag(field, blocks):
    """Block-diagonal assembly; blocks may be rectangular."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = Mat.zeros(field, rows, cols)
    r0 = c0 = 0
    for b in blocks:
        if b.field != field:
            raise DimensionMismatch("field mismatch")
        for i in range(b.rows):
            base = (r0 + i) * cols + c0
            out.data[base : base + b.cols] = b.row(i)
        r0 += b.rows
        c0 += b.cols
    return out
