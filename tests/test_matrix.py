"""Exact linear algebra: golden matrices and re-multiplication properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qregen.matrix
from qregen.errors import DimensionMismatch, RepeatedPoint, Singular
from qregen.gf import GF
from qregen.matrix import (
    Mat,
    exact_dtype,
    grs_dual_weights,
    lagrange_folds,
    matmul_mod,
    vandermonde,
    vandermonde_inv,
)
from qregen.rng import SplitMix64

from linalg import (
    blkdiag,
    grs_weights,
    int64_bound_primes,
    matmul_ref,
    matvec,
    rank,
    right_kernel,
    transpose_ref,
    zeros,
)
from sampling import sample

F13 = GF(13)

# the 6 x 4 encoding matrix over GF(13) on points 1..6
V_GOLDEN = [
    [1, 1, 1, 1],
    [1, 2, 4, 8],
    [1, 3, 9, 1],
    [1, 4, 3, 12],
    [1, 5, 12, 8],
    [1, 6, 10, 8],
]

# its rows at the helper points (2, 4, 5, 6)
V_HELPERS = [
    [1, 2, 4, 8],
    [1, 4, 3, 12],
    [1, 5, 12, 8],
    [1, 6, 10, 8],
]


def solve(a, b):
    """Reference solve of a @ x = b through the Gauss-Jordan inverse."""
    return a.inv() @ b


def random_mat(field, rng, rows, cols):
    return Mat(field, rows, cols, [rng.below(field.p) for _ in range(rows * cols)])


def random_nonsingular(field, rng, n):
    while True:
        m = random_mat(field, rng, n, n)
        if rank(m) == n:
            return m


def test_vandermonde_golden():
    assert vandermonde(F13, range(1, 7), 4).to_rows() == V_GOLDEN
    assert vandermonde(F13, (2, 4, 5, 6), 4).to_rows() == V_HELPERS
    assert vandermonde(F13, (5,), 1).to_rows() == [[1]]


def test_mat_mul_identity_and_zero():
    b = Mat.from_rows(F13, [[3, 1], [4, 1], [5, 9]])
    assert Mat.identity(F13, 3) @ b == b
    assert not (zeros(F13, 2, 3) @ b).data.any()


def test_mat_mul_matches_two_term_row_decomposition():
    # row of node 2 against the all-ones message stack: direct product must
    # equal vbar2^T S1 + lam2 vbar2^T S2 computed separately
    row = Mat.from_rows(F13, [[1, 2, 4, 8]])
    stack = Mat.from_rows(F13, [[1, 1]] * 4)
    prod = row @ stack
    s_top = Mat.from_rows(F13, [[1, 1], [1, 1]])
    vbar = Mat.from_rows(F13, [[1, 2]])
    top = (vbar @ s_top).data[0].tolist()  # vbar2^T S1 = vbar2^T S2 here
    expected = Mat.from_rows(F13, [[(a + 4 * b) % 13 for a, b in zip(top, top)]])
    assert prod == expected
    assert prod.to_rows() == [[2, 2]]  # (1+2+4+8) mod 13


def test_mat_mul_dimension_mismatch():
    a = zeros(F13, 2, 3)
    with pytest.raises(DimensionMismatch):
        a @ a


def test_inverse_identity_and_helper_block():
    eye = Mat.identity(F13, 4)
    assert eye.inv() == eye
    vt = Mat.from_rows(F13, V_HELPERS)
    assert vt @ vt.inv() == eye
    assert vt.inv() @ vt == eye


def test_inverse_singular():
    with pytest.raises(Singular):
        Mat.from_rows(F13, [[1, 1], [1, 1]]).inv()
    with pytest.raises(DimensionMismatch):
        zeros(F13, 2, 3).inv()


@pytest.mark.parametrize("p", [13, 101])
def test_inverse_random_round_trip(p):
    field = GF(p)
    rng = SplitMix64(p * 7)
    for trial in range(100):
        n = 1 + rng.below(8)
        m = random_nonsingular(field, rng, n)
        assert m @ m.inv() == Mat.identity(field, n)


def test_vandermonde_full_column_rank():
    rng = SplitMix64(3)
    for p in (13, 101):
        field = GF(p)
        for _ in range(20):
            count = 2 + rng.below(min(8, p - 1) - 1)
            points = sample(rng, range(1, p), count)
            cols = 1 + rng.below(count)
            assert rank(vandermonde(field, points, cols)) == cols


def test_blkdiag_assembly():
    v = Mat.from_rows(F13, V_GOLDEN)
    stacked = blkdiag(F13, [v, v])
    assert (stacked.rows, stacked.cols) == (12, 8)
    assert stacked.to_rows()[1][:4] == V_GOLDEN[1]
    assert stacked.to_rows()[7][4:] == V_GOLDEN[1]
    assert all(x == 0 for x in stacked.to_rows()[1][4:])
    assert blkdiag(F13, []).to_rows() == []
    assert blkdiag(F13, [Mat.from_rows(F13, [[5]])]).to_rows() == [[5]]


def test_solve_identity_and_random():
    b = Mat.from_rows(F13, [[7], [11], [0]])
    assert solve(Mat.identity(F13, 3), b) == b
    rng = SplitMix64(17)
    for p in (13, 101):
        field = GF(p)
        for _ in range(30):
            n = 1 + rng.below(6)
            a = random_nonsingular(field, rng, n)
            rhs = random_mat(field, rng, n, 2)
            x = solve(a, rhs)
            assert a @ x == rhs
    with pytest.raises(Singular):
        solve(Mat.from_rows(F13, [[1, 1], [1, 1]]), zeros(F13, 2, 1))


def test_right_kernel_annihilates():
    rng = SplitMix64(23)
    field = GF(13)
    for _ in range(30):
        rows = 1 + rng.below(4)
        cols = rows + 1 + rng.below(3)
        a = random_mat(field, rng, rows, cols)
        basis = right_kernel(a)
        assert len(basis) == cols - rank(a)
        for v in basis:
            assert all(x == 0 for x in matvec(a, v))


def test_matvec_and_dot():
    # a matrix-vector product and a dot product are products with a column
    a = Mat.from_rows(F13, [[1, 2], [3, 4]])
    assert (a @ Mat.from_rows(F13, [[1], [1]])).to_rows() == [[3], [7]]
    row = Mat.from_rows(F13, [[1, 2, 3]])
    column = Mat.from_rows(F13, [[4], [5], [6]])
    assert (row @ column).to_rows() == [[(4 + 10 + 18) % 13]]
    with pytest.raises(DimensionMismatch):
        a @ Mat.from_rows(F13, [[1]])
    with pytest.raises(DimensionMismatch):
        row @ Mat.from_rows(F13, [[1], [2]])


KERNEL_PRIMES = [2, 13, 67, 2**61 - 1]


@st.composite
def products(draw):
    """(a, b) over one GF(p) with a.cols == b.rows; any side may be 0."""
    field = GF(draw(st.sampled_from(KERNEL_PRIMES)))
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    entries = st.integers(-field.p, 2 * field.p)  # the constructor reduces

    def mat(r, c):
        return Mat(field, r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c)))

    return mat(rows, inner), mat(inner, cols)


def edge(p, rows, inner, cols):
    field = GF(p)
    return (Mat(field, rows, inner, [p - 1] * (rows * inner)),
            Mat(field, inner, cols, [p - 2] * (inner * cols)))


@settings(max_examples=150, deadline=None)
@given(products())
@example(edge(2**61 - 1, 0, 3, 2))
@example(edge(2**61 - 1, 2, 0, 3))
@example(edge(13, 3, 2, 0))
@example(edge(2**61 - 1, 1, 1, 1))
@example(edge(2, 1, 1, 1))
def test_kernel_matches_the_loops(case):
    a, b = case
    product, at = a @ b, a.T
    assert product.to_rows() == matmul_ref(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert at.to_rows() == transpose_ref(a)
    assert (at.rows, at.cols) == (a.cols, a.rows)
    for m in (product, at):
        assert all(type(x) is int for x in m.data.flat)
        assert all(type(x) is int for row in m.to_rows() for x in row)


def object_array(values, shape):
    out = np.empty(len(values), dtype=object)  # Python ints, never numpy's
    out[:] = values
    return out.reshape(shape)


@st.composite
def mod_products(draw):
    """(a, b, p): a batched (..., rows, K) and b (K,) or (K, cols), entries in
    (-p, p), p on either side of the int64 bound for K."""
    inner = draw(st.integers(1, 6))
    p = draw(st.sampled_from([13, 67, *int64_bound_primes(inner), 2**61 - 1]))
    a_shape = (*draw(st.lists(st.integers(1, 3), max_size=2)),
               draw(st.integers(0, 4)), inner)
    b_shape = draw(st.sampled_from([(inner,), (inner, draw(st.integers(0, 4)))]))
    entries = st.integers(-(p - 1), p - 1)

    def array(shape):
        size = int(np.prod(shape))
        values = draw(st.lists(entries, min_size=size, max_size=size))
        return object_array(values, shape)

    return array(a_shape), array(b_shape), p


@settings(max_examples=200, deadline=None)
@given(mod_products())
def test_matmul_mod_matches_the_loops(case):
    a, b, p = case
    field = GF(p)
    out = matmul_mod(a, b, p)
    assert out.dtype == object
    assert out.shape == a.shape[:-1] + b.shape[1:]
    assert all(type(x) is int and 0 <= x < p for x in out.flat)
    cols = b.shape[1] if b.ndim == 2 else 1
    right = Mat.from_array(field, b.reshape(len(b), cols))
    for index in np.ndindex(a.shape[:-2]):
        want = matmul_ref(Mat.from_array(field, a[index]), right)
        assert out[index].reshape(a.shape[-2], cols).tolist() == want


def test_matmul_mod_overflow_witness():
    # just past the bound, all entries p - 1: an int64 product wraps, and
    # the kernel does not
    inner = 4
    p = int64_bound_primes(inner)[1]
    a = object_array([p - 1] * 2 * inner, (2, inner))
    b = object_array([p - 1] * inner * 3, (inner, 3))
    want = matmul_ref(Mat.from_array(GF(p), a), Mat.from_array(GF(p), b))
    plain = a.astype(np.int64) @ b.astype(np.int64) % p
    assert plain.tolist() != want
    assert matmul_mod(a, b, p).tolist() == want


def test_matmul_mod_keeps_int64_operands_in_int64():
    # the result keeps its operands' dtype, exact on either side of the
    # bound: two int64 operands give int64, two object ones Python ints
    inner = 4
    for p in int64_bound_primes(inner):
        a = object_array([p - 1] * 2 * inner, (2, inner))
        b = object_array([p - 1] * inner * 3, (inner, 3))
        want = matmul_ref(Mat.from_array(GF(p), a), Mat.from_array(GF(p), b))
        out = matmul_mod(a.astype(np.int64), b.astype(np.int64), p)
        assert out.dtype == np.int64 and out.tolist() == want
        out = matmul_mod(a, b, p)
        assert out.dtype == object and out.tolist() == want
        assert all(type(x) is int for x in out.ravel())


def test_transpose():
    a = Mat.from_rows(F13, [[1, 2], [3, 4]])
    assert a.T.to_rows() == [[1, 3], [2, 4]]
    b = Mat.from_rows(F13, [[1, 2, 3]])
    assert b.T.to_rows() == [[1], [2], [3]]
    assert b.T.T == b


@st.composite
def point_sets(draw):
    """(field, distinct nonzero points) with 1 to 40 points."""
    p = draw(st.sampled_from([13, 17, 67, 2**61 - 1]))
    size = draw(st.integers(1, min(40, p - 1)))
    if p < 100:
        points = draw(st.permutations(range(1, p)))[:size]
    else:
        points = draw(
            st.lists(st.integers(1, p - 1), min_size=size, max_size=size, unique=True)
        )
    return GF(p), points


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_vandermonde_inv_closed_form(case):
    field, points = case
    m = len(points)
    inv, w_recip = vandermonde_inv(field, points)
    assert inv.dtype == exact_dtype(1, field.p) and inv.shape == (m, m)
    rows = inv.tolist()
    assert all(type(x) is int and 0 <= x < field.p for row in rows for x in row)
    v = vandermonde(field, points, m)
    assert Mat.from_rows(field, rows) @ v == Mat.identity(field, m)
    # leading Lagrange coefficients are the dual GRS weights (used by css)
    w = inv[m - 1].tolist()
    assert w == grs_dual_weights(field, points) == grs_weights(field, points)
    # and their reciprocals come with them, so no caller inverts w again
    assert all(type(r) is int and 0 < r < field.p for r in w_recip)
    assert [wj * rj % field.p for wj, rj in zip(w, w_recip)] == [1] * m
    if m <= 12:
        assert inv.tolist() == v.inv().to_rows()  # Gauss-Jordan stays the reference


@settings(max_examples=30, deadline=None)
@given(point_sets(), st.data())
def test_vandermonde_inv_repeated_point(case, data):
    field, points = case
    dup = data.draw(st.sampled_from(points))
    at = data.draw(st.integers(0, len(points)))
    with pytest.raises(RepeatedPoint):
        vandermonde_inv(field, points[:at] + [dup] + points[at:])


def powers_of(sets, e, p):
    """The (len(sets), m, e) stack of each point's row (1, x, ..., x^(e-1))."""
    rows = [[[pow(x, j, p) for j in range(e)] for x in pts] for pts in sets]
    return np.array(rows, dtype=exact_dtype(1, p))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stacked_folds_equal_each_sets_own(data):
    # a stack long enough for the array steps gives every set what the list
    # loop gives it alone, for a plan's m = a0 + 1 and a code's m = 2 a0
    p = data.draw(st.sampled_from([13, 4093, 4099, 3037000493, 3037000507, 2**61 - 1]))
    a0 = data.draw(st.integers(1, 4))
    m = data.draw(st.sampled_from([a0 + 1, 2 * a0]))
    distinct = st.lists(st.integers(1, p - 1), min_size=m, max_size=m, unique=True)
    size = data.draw(st.integers(qregen.matrix._STACKED, qregen.matrix._STACKED + 6))
    sets = data.draw(st.lists(distinct, min_size=size, max_size=size))
    c = data.draw(st.integers(0, p - 1))
    powers = powers_of(sets, 2 * a0, p)
    cols, slopes = lagrange_folds(powers, a0, c, p)
    assert cols.dtype == slopes.dtype == powers.dtype
    for b in range(size):
        lone = lagrange_folds(powers[b : b + 1], a0, c, p)
        assert cols[b].tolist() == lone[0][0].tolist()
        assert slopes[b].tolist() == lone[1][0].tolist()


@pytest.mark.parametrize("size", [1, 3, qregen.matrix._STACKED, 28])
def test_lagrange_folds_repeated_point_in_one_set(size):
    # one set with a repeated point raises, whichever path its stack takes
    sets = [[1 + (b + j) % 12 for j in range(6)] for b in range(size)]
    sets[size // 2][4] = sets[size // 2][1]
    with pytest.raises(RepeatedPoint, match=r"distinct: \[.*\]$") as info:
        lagrange_folds(powers_of(sets, 6, 13), 3, 5, 13)
    assert str(sets[size // 2]) in str(info.value)


def test_vandermonde_inv_golden():
    inv, w_recip = vandermonde_inv(F13, (5,))
    assert (inv.tolist(), w_recip) == ([[1]], [1])
    inv, w_recip = vandermonde_inv(F13, (2, 4, 5, 6))
    assert inv.dtype == exact_dtype(1, 13)
    assert inv.tolist() == Mat.from_rows(F13, V_HELPERS).inv().to_rows()
    assert w_recip == [2, 4, 10, 8]  # 1 / (7, 10, 4, 5), the weights
