"""Prime field arithmetic: golden values, exhaustive properties."""

import numpy as np
import pytest

import qregen.gf
from qregen.errors import DivisionByZero
from qregen.gf import GF, is_prime
from qregen.rng import SplitMix64


def brute_force_inverse(p, a):
    return next(b for b in range(1, p) if a * b % p == 1)


def test_field_requires_prime_order():
    GF(2)
    GF(13)
    for bad in (0, 1, 4, 9, 12, 91):
        with pytest.raises(ValueError):
            GF(bad)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    assert {n for n in range(32) if is_prime(n)} == primes
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 - 3)


def test_is_prime_large_and_pseudoprimes():
    assert is_prime(2**61 - 1)  # trial division would take minutes here
    assert is_prime(2**64 - 59)  # largest 64-bit prime
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    # Carmichael number 211 * 421 * 631: passes Fermat to every coprime base
    assert pow(2, 56052360, 56052361) == 1
    assert not is_prime(56052361)
    # strong pseudoprime to bases 2, 3, 5, 7 (151 * 751 * 28351)
    assert not is_prime(3215031751)
    # strong pseudoprime to every prime base up to 23
    assert not is_prime(3825123056546413051)
    assert GF(2**61 - 1).inv(3) * 3 % (2**61 - 1) == 1


def test_inverse_golden_values():
    f = GF(13)
    assert f.inv(1) == 1
    # frozen from brute_force_inverse
    assert brute_force_inverse(13, 3) == 9
    assert f.inv(3) == 9
    assert brute_force_inverse(13, 2) == 7
    assert f.inv(2) == 7


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        GF(13).inv(0)
    with pytest.raises(DivisionByZero):
        GF(13).inv(13)  # zero once reduced


def test_pow_golden_values():
    f = GF(13)
    assert f.powers(6, 3)[2] == 10  # lam of node 6
    assert f.powers(5, 1) == [1]
    assert f.powers(4, 4)[3] == 12  # Vandermonde entry (4, 4)
    assert f.powers(0, 1) == [1]  # 0**0 == 1
    assert f.powers(-1, 3) == [1, 12, 1]  # the base is reduced
    assert f.powers(2, 0) == []


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 257])
def test_inverse_exhaustive(p):
    f = GF(p)
    for a in range(1, p):
        assert a * f.inv(a) % p == 1


@pytest.mark.parametrize("p", [2, 13, 257, 2**61 - 1])
def test_inv_all_matches_inv(p):
    f = GF(p)
    rng = SplitMix64(p)
    values = [rng.below(p - 1) + 1 - p * rng.below(3) for _ in range(40)]
    assert f.inv_all(values) == [f.inv(v) for v in values]
    assert f.inv_all([]) == []
    with pytest.raises(DivisionByZero):
        f.inv_all([*values[:3], p, *values[3:]])


@pytest.mark.parametrize("p", [2, 13, 4093, 4099, 3037000493, 3037000507, 2**61 - 1])
def test_inv_array_matches_inv_all_on_both_sides_of_the_cap(p):
    # a gather from the field's table at p <= 2^12, inv_all above it: the
    # same inverses, in the values' shape and dtype; a 0 raises either way
    f = GF(p)
    rng = SplitMix64(p)
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    values = np.array([rng.below(p - 1) + 1 for _ in range(24)], dtype=dtype).reshape(2, 3, 4)
    got = f.inv_array(values)
    assert (got.shape, got.dtype) == (values.shape, values.dtype)
    assert got.ravel().tolist() == f.inv_all(values.ravel().tolist())
    assert all(type(x) is int for x in got.ravel().tolist())
    assert f.inv_array(values[:0]).shape == (0, 3, 4)
    values[1, 2, 3] = 0
    with pytest.raises(DivisionByZero):
        f.inv_array(values)


def test_inv_array_table_is_one_read_only_inversion(monkeypatch):
    # each field's table costs one GF.inv, built on its first use and read
    # by every later gather; it is read-only and holds 0 at 0
    qregen.gf._inverses.cache_clear()
    calls = []
    real = GF.inv
    monkeypatch.setattr(GF, "inv", lambda f, a: calls.append(a) or real(f, a))
    f = GF(4093)
    for _ in range(3):
        assert f.inv_array(np.arange(1, 4093)).tolist() == [f.inv(a) for a in range(1, 4093)]
    assert len(calls) == 1 + 3 * 4092  # the table's, then the references'
    table = qregen.gf._inverses(f)
    assert table[0] == 0 and not table.flags.writeable


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 257])
def test_fermat_exhaustive(p):
    f = GF(p)
    for a in range(1, p):
        assert f.powers(a, p)[-1] == 1  # a^(p-1)


@pytest.mark.parametrize("p", [13, 101, 257])
def test_ring_axioms_on_sampled_triples(p):
    f = GF(p)
    rng = SplitMix64(p)
    for _ in range(300):
        a, b, c = (rng.below(p - 1) + 1 for _ in range(3))
        # the inverse respects products: 1/(ab) = (1/a)(1/b), 1/(1/a) = a
        assert f.inv(a * b) == f.inv(a) * f.inv(b) % p
        assert f.inv(f.inv(a)) == a
        assert f.inv_all([a, b, c, a * b * c]) == [
            f.inv(a), f.inv(b), f.inv(c), f.inv(a) * f.inv(b) * f.inv(c) % p
        ]
        # the powers respect products and sums of exponents
        pa, pb = f.powers(a, 8), f.powers(b, 8)
        assert f.powers(a * b, 8) == [x * y % p for x, y in zip(pa, pb)]
        assert pa[3] * pa[4] % p == pa[7]


def test_reduction_and_div():
    f = GF(7)
    assert f.inv(-1) == 6  # the argument is reduced first
    assert f.inv(15) == 1
    for a in range(7):
        for b in range(1, 7):
            assert a * f.inv(b) % 7 * b % 7 == a % 7
