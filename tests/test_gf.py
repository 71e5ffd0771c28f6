"""Prime field arithmetic: golden values, exhaustive properties."""

import pytest

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
    assert f.pow(6, 2) == 10  # lam of node 6
    assert f.pow(5, 0) == 1
    assert f.pow(4, 3) == 12  # Vandermonde entry (4, 4)
    assert f.pow(0, 0) == 1
    with pytest.raises(ValueError):
        f.pow(2, -1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 257])
def test_inverse_exhaustive(p):
    f = GF(p)
    for a in f.units():
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p", [2, 13, 257, 2**61 - 1])
def test_inv_all_matches_inv(p):
    f = GF(p)
    rng = SplitMix64(p)
    values = [rng.below(p - 1) + 1 - p * rng.below(3) for _ in range(40)]
    assert f.inv_all(values) == [f.inv(v) for v in values]
    assert f.inv_all([]) == []
    with pytest.raises(DivisionByZero):
        f.inv_all([*values[:3], p, *values[3:]])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 257])
def test_fermat_exhaustive(p):
    f = GF(p)
    for a in f.units():
        assert f.pow(a, p - 1) == 1


@pytest.mark.parametrize("p", [13, 101, 257])
def test_ring_axioms_on_sampled_triples(p):
    f = GF(p)
    rng = SplitMix64(p)
    for _ in range(300):
        a, b, c = (rng.below(p) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, (b + c) % p) == (f.mul(a, b) + f.mul(a, c)) % p
        assert f.sub(a, b) == (a + -b % p) % p
        assert f.sub(f.sub(a, b), c) == f.sub(a, (b + c) % p)


def test_reduction_and_div():
    f = GF(7)
    assert f.mul(-1, 1) == 6
    assert f.sub(15, 0) == 1
    for a in range(7):
        for b in f.units():
            assert f.mul(f.mul(a, f.inv(b)), b) == a % 7
