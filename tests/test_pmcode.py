"""Storage code: parameter validation, packing, encoding, retrieval."""

from collections import Counter
from dataclasses import fields, replace
from itertools import combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qregen.gf
import qregen.pmcode
from qregen.cli import main
from qregen.errors import (
    BadShareSet,
    DivisionByZero,
    InvalidParams,
    NoValidPoints,
    WrongLength,
)
from qregen.gf import GF, is_prime
from qregen.matrix import Mat, exact_dtype, vandermonde, vandermonde_inv
from qregen.pmcode import (
    SystemParams,
    _compiled_plan,
    _unfold,
    encode_file,
    make_params,
    pack_file,
    random_symbols,
    retrieve,
    retrieve_file,
    unpack_file,
)
from qregen.css import build_repair_css
from qregen.rng import SplitMix64

from caches import clear_caches
from linalg import dot, int64_bound_primes


def test_make_params_reference_instance():
    p = make_params(6, 3, 4, 13)
    assert p.eval_points == (1, 2, 3, 4, 5, 6)
    assert p.lam == (1, 4, 9, 3, 12, 10)
    assert p.alpha0 == 2
    assert p.B == 12
    assert p.alpha == 4
    assert p.subfiles == 1
    assert len(set(p.lam)) == p.n


@pytest.mark.parametrize("p, dtype", [(17, np.int64), (3037000493, np.int64),
                                      (3037000507, object), (2**61 - 1, object)])
def test_params_hash_and_powers_table(p, dtype):
    # the hash is stored when params are made and the table of powers is
    # built on first use: neither changes equality or the hash
    a = make_params(12, 4, 8, p)
    b = make_params(12, 4, 8, p, eval_points=a.eval_points)
    assert hash(a) == hash(b)
    table = a.powers
    assert a == b and hash(a) == hash(b) and {b: 1}[a] == 1
    assert table is a.powers and table.shape == (12, 6) and table.dtype == dtype
    assert not table.flags.writeable
    for i, v in enumerate(a.eval_points):
        assert table[i].tolist() == a.field.powers(v, 6)
        assert table[i, 3] == a.lam[i]
    assert hash(replace(a, d=9)) != hash(a)  # one hash per field set, recomputed


def test_make_params_interns_equal_params():
    # one object per (n, k, d, p, points), whether the points are given or
    # found, so that every cache keyed by params hits by identity
    a = make_params(12, 4, 8, 17)
    assert make_params(12, 4, 8, 17, eval_points=a.eval_points) is a
    assert make_params(12, 4, 8, 17, eval_points=[v + 17 for v in a.eval_points]) is a
    other = make_params(12, 4, 8, 17, eval_points=a.eval_points[::-1])
    assert other is not a and other != a
    assert qregen.pmcode._interned.cache_info().maxsize is not None  # bounded
    clear_caches()
    b = make_params(12, 4, 8, 17)
    assert b is not a and b == a and hash(b) == hash(a)
    assert make_params(12, 4, 8, 17) is b


def test_params_fields_are_the_defining_ones():
    # everything else is derived, so equality compares what the hash hashes
    assert [f.name for f in fields(SystemParams)] == ["n", "k", "d", "field", "eval_points"]
    params = make_params(8, 3, 4, 17)
    assert params.alpha0 == 2 and params.subfiles == comb(4, 4) == 1
    pts = (1, 2, 3, 4, 5, 6, 7, 11)
    moved = replace(params, eval_points=pts)
    assert moved.lam == tuple(v * v % 17 for v in pts) != params.lam
    assert moved.powers[:, 2].tolist() == list(moved.lam)


@pytest.mark.parametrize("d, k", [(d, k) for k in range(2, 8) for d in range(2 * k - 2, 13)])
def test_family_gives_every_helper_the_same_load(d, k):
    params = make_params(d + 1, k, d, 101)
    family = params.family
    assert params.family is family and not family.flags.writeable
    assert family.shape == (params.subfiles, 2 * k - 2) and params.subfiles == comb(d, 2 * k - 2)
    rows = family.tolist()
    assert all(a < b for row in rows for a, b in zip(row, row[1:]))
    colex = [tuple(row[::-1]) for row in rows]  # largest slot first
    assert colex == sorted(set(colex))  # distinct rows, in colex order
    assert np.bincount(family.ravel(), minlength=d).tolist() == [comb(d - 1, 2 * k - 3)] * d
    assert family.size == params.B // params.k


def test_make_params_proves_each_prime_once(monkeypatch, capsys):
    # Miller-Rabin runs once per prime and process; a composite is not
    # cached, so every call refuses it again, and each CLI call exits 2
    calls, real = Counter(), qregen.gf.is_prime
    monkeypatch.setattr(qregen.gf, "is_prime", lambda n: calls.update([n]) or real(n))
    clear_caches()
    p = 2**61 - 1
    assert make_params(8, 3, 5, p) is make_params(8, 3, 5, p)
    assert calls == {p: 1}
    argv = ["repair", "--n", "6", "--k", "3", "--d", "4", "--prime", "15",
            "--failed", "1", "--helpers", "2,4,5,6"]
    for _ in range(2):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: field order must be prime, got 15\n"
    assert calls[15] == 2
    assert qregen.pmcode._field.cache_info().maxsize is not None  # bounded


def test_make_params_alpha0_one():
    p = make_params(4, 2, 2, 7)
    assert p.alpha0 == 1
    assert p.lam == p.eval_points  # lam_i = v_i when alpha0 = 1
    assert p.B == 4


def test_make_params_rejects_bad_regimes():
    with pytest.raises(InvalidParams):
        make_params(6, 1, 4, 13)  # k too small
    with pytest.raises(InvalidParams):
        make_params(6, 3, 3, 13)  # d < 2k-2
    with pytest.raises(InvalidParams):
        make_params(4, 3, 4, 13)  # d >= n
    with pytest.raises(InvalidParams):
        make_params(6, 3, 4, 5)  # p < n+1
    with pytest.raises(InvalidParams):
        make_params(6, 3, 4, 15)  # p not prime
    with pytest.raises(InvalidParams):
        make_params(6, 3, 4, 13, eval_points=[1, 2, 3, 4, 5, 5])
    with pytest.raises(InvalidParams):
        make_params(6, 3, 4, 13, eval_points=[0, 1, 2, 3, 4, 5])
    with pytest.raises(InvalidParams):
        # explicit points whose squares collide (6^2 = 7^2 mod 13)
        make_params(6, 3, 4, 13, eval_points=[1, 2, 3, 4, 6, 7])


def test_make_params_no_valid_points():
    # only six distinct nonzero squares exist mod 13, so n = 8 is impossible
    with pytest.raises(NoValidPoints):
        make_params(8, 3, 4, 13)
    p17 = make_params(8, 3, 4, 17)
    assert len(set(p17.lam)) == p17.n


def test_make_params_greedy_fallback():
    # cubes mod 31 collide on the default points (5^3 = 1^3), so the greedy
    # scan must skip to a distinct-lam assignment
    p = make_params(8, 4, 6, 31)
    assert p.eval_points == (1, 2, 3, 4, 6, 8, 11, 12)
    assert len(set(p.lam)) == 8


def default_points_before_the_scan(n, a0, p):
    """The earlier default: v_i = i when those lam = v^a0 are distinct,
    else the first n nonzero points with distinct lam, else None."""
    pts = tuple(range(1, n + 1))
    if len({pow(v, a0, p) for v in pts}) == n:
        return pts
    chosen, seen = [], set()
    for c in range(1, p):
        lam = pow(c, a0, p)
        if lam not in seen:
            chosen.append(c)
            seen.add(lam)
            if len(chosen) == n:
                return tuple(chosen)
    return None


def test_greedy_scan_keeps_the_earlier_default_points():
    # every (n, k, p) with p < 200, 2 <= k <= 7 and 2k - 1 <= n < p
    valid = 0
    for p in filter(is_prime, range(3, 200)):
        for k in range(2, 8):
            for n in range(2 * k - 1, p):
                want = default_points_before_the_scan(n, k - 1, p)
                if want is None:
                    with pytest.raises(NoValidPoints):
                        make_params(n, k, 2 * k - 2, p)
                else:
                    assert make_params(n, k, 2 * k - 2, p).eval_points == want
                    valid += 1
    assert valid == 13789


def test_pack_message_reference_labeling():
    params = make_params(6, 3, 4, 13)
    packed = pack_file(params, list(range(1, 13)))
    assert packed.shape == (1, 2, 4, 2)
    assert packed[0, 0].tolist() == [[1, 2], [2, 3], [4, 5], [5, 6]]  # [S1; S2]
    assert packed[0, 1].tolist() == [[7, 8], [8, 9], [10, 11], [11, 12]]  # [S1'; S2']


def test_pack_message_zero_and_errors():
    params = make_params(6, 3, 4, 13)
    assert not pack_file(params, [0] * 12).any()
    with pytest.raises(WrongLength):
        pack_file(params, [0] * 11)


def test_pack_unpack_round_trip():
    params = make_params(7, 4, 6, 17)
    rng = SplitMix64(1)
    for _ in range(20):
        symbols = [rng.below(17) for _ in range(params.B)]
        assert list(unpack_file(params, pack_file(params, symbols))) == symbols


def test_encode_node1_reference_sums():
    params = make_params(6, 3, 4, 13)
    u = list(range(1, 13))
    stored = encode_file(params, u)[0]
    s = [0] + u  # 1-based labels
    row_m, row_mp = stored[0].tolist()
    assert row_m == [(s[1] + s[2] + s[4] + s[5]) % 13, (s[2] + s[3] + s[5] + s[6]) % 13]
    assert row_mp == [(s[7] + s[8] + s[10] + s[11]) % 13,
                      (s[8] + s[9] + s[11] + s[12]) % 13]


def test_encode_zero_message():
    params = make_params(6, 3, 4, 13)
    stored = encode_file(params, [0] * 12)[0]
    assert stored.shape == (6, 2, 2) and not stored.any()


def test_encode_matches_two_term_decomposition():
    # every sub-file's rows, each instance from its own S pair: a batched
    # product that mixed up sub-files, instances or nodes would fail here
    rng = SplitMix64(2)
    for params in (make_params(6, 3, 4, 13), make_params(6, 2, 3, 13)):
        field, a0 = params.field, params.alpha0
        for _ in range(10):
            symbols = random_symbols(params, rng)
            packed = pack_file(params, symbols)
            storage = encode_file(params, symbols)
            for sub, (m, mp) in zip(storage, packed):
                for i in range(1, 7):
                    vbar = params.field.powers(params.eval_points[i - 1], params.alpha0)
                    lam = params.lam[i - 1]
                    for row, pair in zip(sub[i - 1].tolist(), (m, mp)):
                        expect = [  # column j of S is row j of S^T
                            (dot(field, vbar, a) + lam * dot(field, vbar, b)) % 13
                            for a, b in zip(pair[:a0].T.tolist(), pair[a0:].T.tolist())
                        ]
                        assert row == expect


def test_encode_linearity():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(3)
    a = random_symbols(params, rng)
    b = random_symbols(params, rng)
    summed = [(x + y) % 13 for x, y in zip(a, b)]
    enc_a = encode_file(params, a)[0]
    enc_b = encode_file(params, b)[0]
    enc_sum = encode_file(params, summed)[0]
    assert enc_sum.tolist() == ((enc_a + enc_b) % 13).tolist()


def test_storage_size_matches_point():
    for n, k, d, p in ((6, 3, 4, 13), (7, 4, 6, 17), (4, 2, 2, 7)):
        params = make_params(n, k, d, p)
        stored = encode_file(params, [1] * params.B)[0]
        assert stored.shape == (n, 2, k - 1)  # 2(k-1) dits per node
        assert params.B == params.k * params.alpha


@pytest.mark.parametrize(
    "n,k,d,p",
    [(6, 3, 4, 13), (7, 4, 6, 17), (8, 3, 4, 17)],
)
def test_retrieve_exhaustive_subsets(n, k, d, p, trials=50):
    params = make_params(n, k, d, p)
    rng = SplitMix64(n * 1000 + p)
    for _ in range(trials):
        symbols = random_symbols(params, rng)
        storage = encode_file(params, symbols)
        for subset in combinations(range(1, n + 1), k):
            assert list(retrieve_file(params, storage, subset)) == symbols


def test_retrieve_zero_shares():
    params = make_params(6, 3, 4, 13)
    storage = encode_file(params, [0] * 12)
    rows = storage[0, :3].swapaxes(0, 1)  # (2, k, a0): rows of M, then of M'
    assert not retrieve(params, (1, 2, 3), rows).any()  # all four S matrices
    assert retrieve_file(params, storage, (1, 2, 3)).tolist() == [0] * 12


@pytest.mark.parametrize("p", [13, 3037000493, 3037000507])
def test_retrieve_file_returns_the_message_as_an_array(p):
    # int64 up to the largest exact prime, Python ints past it
    params = make_params(6, 3, 4, p)
    symbols = random_symbols(params, SplitMix64(3))
    got = retrieve_file(params, encode_file(params, symbols), (2, 4, 6))
    assert got.dtype == exact_dtype(1, p) and got.shape == (params.B,)
    assert got.tolist() == symbols


@pytest.mark.parametrize("ids", [(1, 2), (1, 2, 3, 4)])
def test_retrieve_refuses_an_id_count_other_than_k(ids):
    params = make_params(6, 3, 4, 13)
    storage = encode_file(params, list(range(12)))
    rows = storage[:, [i - 1 for i in ids]].swapaxes(1, 2)
    with pytest.raises(BadShareSet, match="need 3 node ids"):
        retrieve(params, ids, rows)


def test_retrieve_recovers_symmetric_matrices():
    params = make_params(7, 4, 6, 17)
    rng = SplitMix64(5)
    symbols = random_symbols(params, rng)
    stored = encode_file(params, symbols)[0]
    ids = (1, 3, 5, 7)
    rows = stored[[i - 1 for i in ids]].swapaxes(0, 1)
    got = retrieve(params, ids, rows)  # [S1; S2] and [S1'; S2']
    assert got.shape == (2, 6, 3)
    for m in got.reshape(4, 3, 3):
        assert (m == m.T).all()
    assert (got == pack_file(params, symbols)[0]).all()


def test_retrieve_share_set_validation():
    params = make_params(6, 3, 4, 13)
    storage = encode_file(params, [1] * 12)
    for ids in ((1, 2), (1, 1, 2), (1, 2, 3, 4)):
        with pytest.raises(BadShareSet):
            retrieve_file(params, storage, ids)


def test_repeated_lam_params_fail_with_division_by_zero():
    # make_params never returns repeated lam; params built around it fail
    # loudly, in the decode plan and in the repair-time build
    params = make_params(8, 3, 4, 17)
    pts = (1, 2, 3, 4, 5, 6, 7, 10)  # 7^2 = 10^2 mod 17
    bad = replace(params, eval_points=pts)  # lam is derived from the points
    assert bad.lam[6] == bad.lam[7]
    symbols = random_symbols(bad, SplitMix64(77))
    storage = encode_file(bad, symbols)
    assert list(retrieve_file(bad, storage, (1, 2, 3))) == symbols
    with pytest.raises(DivisionByZero):
        retrieve_file(bad, storage, (7, 8, 1))
    with pytest.raises(DivisionByZero):
        build_repair_css(bad, 7, (1, 2, 3, 8))


def test_file_layer_round_trip():
    params = make_params(6, 2, 3, 13)
    assert params.subfiles == 3
    assert params.B == 12
    rng = SplitMix64(8)
    symbols = random_symbols(params, rng)
    msgs = pack_file(params, symbols)
    assert len(msgs) == 3
    assert list(unpack_file(params, msgs)) == symbols
    storage = encode_file(params, symbols)
    assert storage.shape == (3, 6, 2, 1)
    assert list(retrieve_file(params, storage, (2, 5))) == symbols
    with pytest.raises(WrongLength):
        pack_file(params, symbols[:-1])
    with pytest.raises(BadShareSet):
        retrieve_file(params, storage[:2], (2, 5))


def test_retrieve_file_every_subset_at_12_4_8_17():
    params = make_params(12, 4, 8, 17)
    symbols = random_symbols(params, SplitMix64(12))
    storage = encode_file(params, symbols)
    subsets = list(combinations(range(1, 13), 4))
    assert len(subsets) == 495
    for ids in subsets:
        assert list(retrieve_file(params, storage, ids)) == symbols


def test_retrieve_file_checks_id_set_and_shape():
    # every sub-file is read from one id set: k distinct ids in [1, n], in
    # any order, from storage of the code's shape
    params = make_params(6, 2, 3, 13)
    symbols = random_symbols(params, SplitMix64(21))
    storage = encode_file(params, symbols)
    assert list(retrieve_file(params, storage, [4, 1])) == symbols
    for ids in ([1, 1], [0, 4], [1, 7], [1], [1, 4, 5], []):
        with pytest.raises(BadShareSet):
            retrieve_file(params, storage, ids)
    for bad in (storage[:, :5], storage[..., :0], storage[:, :, :1], storage[0]):
        with pytest.raises(BadShareSet):
            retrieve_file(params, bad, [1, 4])


def test_file_layer_is_one_pass(monkeypatch):
    # encode makes one product, params.powers times every sub-file's M and
    # M', and no Mat product; retrieve decodes every sub-file in one call
    params = make_params(12, 4, 8, 17)
    assert params.subfiles == 28
    symbols = random_symbols(params, SplitMix64(23))
    calls = Counter()

    def count(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qregen.pmcode, "matmul_mod",
                        count("matmul_mod", qregen.pmcode.matmul_mod))
    monkeypatch.setattr(Mat, "__matmul__", count("Mat.__matmul__", Mat.__matmul__))
    monkeypatch.setattr(qregen.pmcode, "retrieve",
                        count("retrieve", qregen.pmcode.retrieve))
    monkeypatch.setattr(qregen.pmcode, "lagrange_folds",
                        count("lagrange_folds", qregen.pmcode.lagrange_folds))
    clear_caches()
    storage = encode_file(params, symbols)
    assert calls == {"matmul_mod": 1}

    # one cold plan for the id set: its one Lagrange fold gives top and w,
    # which give both S1 and S2
    calls.clear()
    assert list(retrieve_file(params, storage, (9, 3, 12, 5))) == symbols
    assert (calls["retrieve"], calls["lagrange_folds"]) == (1, 1)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_unfold_recovers_symmetric_s_whatever_the_diagonal(data):
    # S = top X top^T once the diagonal of X = Phi S Phi^T is refilled from
    # w^T X = 0: exact, in the field's one dtype on either side of its bound
    p = data.draw(st.sampled_from((13, 67, 2**61 - 1)))
    kind = exact_dtype(1, p)
    field = GF(p)
    k = data.draw(st.integers(2, min(24, p)))
    a0 = k - 1
    pts = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k,
                             unique=True))
    entries = st.lists(st.integers(0, p - 1), min_size=a0 * a0, max_size=a0 * a0)
    s = np.array(data.draw(entries), dtype=object).reshape(a0, a0)
    s = np.triu(s) + np.triu(s, 1).T  # symmetric
    phi = vandermonde(field, pts, a0).data
    want = phi @ s @ phi.T % p  # on Python ints
    x = want.astype(kind)
    scrambled = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    x[range(k), range(k)] = scrambled
    v_inv, w_recip = vandermonde_inv(field, pts)
    got = _unfold(x, v_inv[:-1], v_inv[-1], np.array(w_recip, dtype=kind), p)
    assert got.dtype == kind and all(type(v) is int for v in got.ravel().tolist())
    assert got.tolist() == s.tolist()
    assert x.tolist() == want.tolist()  # the diagonal refilled


def test_retrieve_inverts_once_per_point_plus_one(monkeypatch):
    # a cold plan inverts every w_b / lam_b and every lam_a - lam_b in one
    # batch: above the table cap that is one inv_all, and at or below it one
    # gather from the field's table, whose building is the one inversion
    calls = Counter()
    real_inv = GF.inv

    def inv(self, a):
        calls["inv"] += 1
        return real_inv(self, a)

    monkeypatch.setattr(GF, "inv", inv)
    for p in (67, 4099):
        params = make_params(64, 20, 38, p)
        symbols = random_symbols(params, SplitMix64(9))
        storage = encode_file(params, symbols)
        ids = list(range(3, 64, 3))[: params.k]
        clear_caches()
        calls.clear()
        assert list(retrieve_file(params, storage, ids)) == symbols
        assert calls["inv"] == 1
        assert list(retrieve_file(params, storage, ids[::-1])) == symbols
        assert calls["inv"] == 1


def test_repeated_retrieve_reuses_its_plan(monkeypatch):
    # the second retrieve from the same ids, in any order, inverts nothing
    params = make_params(64, 20, 38, 67)
    symbols = random_symbols(params, SplitMix64(9))
    storage = encode_file(params, symbols)
    ids = list(range(3, 64, 3))[: params.k]
    clear_caches()
    assert list(retrieve_file(params, storage, ids)) == symbols
    calls = Counter()
    real_inv, real_folds = GF.inv, qregen.pmcode.lagrange_folds

    def inv(self, a):
        calls["inv"] += 1
        return real_inv(self, a)

    def folds(*args):
        calls["lagrange_folds"] += 1
        return real_folds(*args)

    monkeypatch.setattr(GF, "inv", inv)
    monkeypatch.setattr(qregen.pmcode, "lagrange_folds", folds)
    assert list(retrieve_file(params, storage, ids[::-1])) == symbols
    assert calls == {}


def test_plan_cache_holds_16_plans():
    params = make_params(12, 4, 8, 17)
    storage = encode_file(params, random_symbols(params, SplitMix64(2)))
    clear_caches()
    for ids in islice(combinations(range(1, 13), 4), 48):
        retrieve_file(params, storage, ids)
        assert qregen.pmcode._compiled_plan.cache_info().currsize <= 16
    assert qregen.pmcode._compiled_plan.cache_info().currsize == 16


@pytest.mark.parametrize("n,k,d", [(6, 3, 4), (40, 20, 38)])
def test_decode_plan_is_in_the_fields_dtype_on_both_sides_of_its_bound(n, k, d):
    # on both sides of k (p - 1)^2 < 2^63 the plan is int64, as the field's
    # data is, and only matmul_mod's products cross to Python ints above
    # it; at 2^61 - 1 the plan is object; every message comes back exactly
    for p in (*int64_bound_primes(k), 2**61 - 1):
        params = make_params(n, k, d, p)
        symbols = random_symbols(params, SplitMix64(k))
        storage = encode_file(params, symbols)
        ids = list(range(n - k + 1, n + 1))
        plan = _compiled_plan(params, tuple(ids))
        for array in (plan.phibar_t, plan.lam, plan.diff_inv, plan.top, plan.w,
                      plan.w_recip):
            assert array.dtype == exact_dtype(1, p)
        assert list(retrieve_file(params, storage, ids)) == symbols


@pytest.mark.parametrize("n, k, d, p", [(6, 3, 4, 13), (64, 20, 38, 67)])
def test_decode_plan_differences_match_pairwise_inverses(n, k, d, p):
    params = make_params(n, k, d, p)
    field = params.field
    ids = list(range(n - k + 1, n + 1))
    lam = [params.lam[i - 1] for i in ids]
    pairwise = [[field.inv(la - lb) if a != b else 0 for b, lb in enumerate(lam)]
                for a, la in enumerate(lam)]
    assert _compiled_plan(params, tuple(ids)).diff_inv.tolist() == pairwise
