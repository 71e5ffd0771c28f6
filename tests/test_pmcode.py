"""Storage code: parameter validation, packing, encoding, retrieval."""

from collections import Counter
from dataclasses import replace
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qregen.pmcode
from qregen.errors import (
    BadShareSet,
    DivisionByZero,
    InvalidParams,
    NoValidPoints,
    WrongLength,
)
from qregen.gf import GF, is_prime
from qregen.matrix import Mat, vandermonde_inv
from qregen.pmcode import (
    _LeaveOneOut,
    _compiled_plan,
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
                    vbar = params.point_powers(i)
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
    assert retrieve_file(params, storage, (1, 2, 3)) == (0,) * 12


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
    bad = replace(params, eval_points=pts, lam=tuple(v * v % 17 for v in pts))
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
    # encode builds V once and makes one product for all 28 sub-files;
    # retrieve decodes every sub-file in one call
    params = make_params(12, 4, 8, 17)
    assert params.subfiles == 28
    symbols = random_symbols(params, SplitMix64(23))
    calls = Counter()

    def count(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qregen.pmcode, "vandermonde",
                        count("vandermonde", qregen.pmcode.vandermonde))
    monkeypatch.setattr(Mat, "__matmul__", count("matmul", Mat.__matmul__))
    monkeypatch.setattr(qregen.pmcode, "retrieve",
                        count("retrieve", qregen.pmcode.retrieve))
    monkeypatch.setattr(qregen.pmcode, "vandermonde_inv",
                        count("vandermonde_inv", qregen.pmcode.vandermonde_inv))
    clear_caches()
    storage = encode_file(params, symbols)
    assert calls == {"vandermonde": 1, "matmul": 1}

    # one inverse for the id set: every leave-one-out solve and W^-T
    # follow from it
    calls.clear()
    assert list(retrieve_file(params, storage, (9, 3, 12, 5))) == symbols
    assert (calls["retrieve"], calls["vandermonde_inv"]) == (1, 1)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_leave_one_out_matches_direct_inverses(data):
    # every inverse Vandermonde matrix on k-1 of k points, and the column
    # solve through them, equals the direct one: exact, all Python ints
    p = data.draw(st.sampled_from((13, 67, 2**61 - 1)))
    field = GF(p)
    k = data.draw(st.integers(2, min(24, p)))
    pts = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k,
                             unique=True))
    vals = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=k * k,
                                       max_size=k * k)), dtype=object).reshape(k, k)
    loo = _LeaveOneOut.of(field, pts, object)
    cols = loo.solve(vals)  # k x k like theta; the diagonal is ignored
    assert cols.shape == (k - 1, k - 1)
    assert all(type(x) is int for x in cols.ravel())
    for j in range(k):  # j = k-1 gives W^-1, W the vbar rows of the first k-1
        direct = vandermonde_inv(field, pts[:j] + pts[j + 1 :])[0]
        inverse = loo.inverse(j)
        assert all(type(x) is int for x in inverse.ravel())
        assert inverse.tolist() == direct.tolist()
        if j < k - 1:
            solved = direct @ np.delete(vals[:, j], j) % p
            assert cols[:, j].tolist() == solved.tolist()


def test_retrieve_inverts_once_per_point_plus_one(monkeypatch):
    # one batched inversion each for the GRS weights, whose inverses
    # vandermonde_inv returns with them, and for every 1 / (lam_a - lam_b)
    params = make_params(64, 20, 38, 67)
    symbols = random_symbols(params, SplitMix64(9))
    storage = encode_file(params, symbols)
    calls = Counter()
    real_inv = GF.inv

    def inv(self, a):
        calls["inv"] += 1
        return real_inv(self, a)

    monkeypatch.setattr(GF, "inv", inv)
    ids = list(range(3, 64, 3))[: params.k]
    clear_caches()
    assert list(retrieve_file(params, storage, ids)) == symbols
    assert 1 <= calls["inv"] <= 2


def test_repeated_retrieve_reuses_its_plan(monkeypatch):
    # the second retrieve from the same ids, in any order, inverts nothing
    params = make_params(64, 20, 38, 67)
    symbols = random_symbols(params, SplitMix64(9))
    storage = encode_file(params, symbols)
    ids = list(range(3, 64, 3))[: params.k]
    clear_caches()
    assert list(retrieve_file(params, storage, ids)) == symbols
    calls = Counter()
    real_inv, real_vinv = GF.inv, qregen.pmcode.vandermonde_inv

    def inv(self, a):
        calls["inv"] += 1
        return real_inv(self, a)

    def vinv(field, points):
        calls["vandermonde_inv"] += 1
        return real_vinv(field, points)

    monkeypatch.setattr(GF, "inv", inv)
    monkeypatch.setattr(qregen.pmcode, "vandermonde_inv", vinv)
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
def test_decode_runs_in_int64_up_to_its_bound(n, k, d):
    # the largest prime with k (p - 1)^2 < 2^63 decodes in int64, the next
    # prime on Python ints; both return the message exactly
    for p, dtype in zip(int64_bound_primes(k), (np.int64, object)):
        params = make_params(n, k, d, p)
        symbols = random_symbols(params, SplitMix64(k))
        storage = encode_file(params, symbols)
        ids = list(range(n - k + 1, n + 1))
        plan = _compiled_plan(params, tuple(ids))
        for array in (plan.phibar_t, plan.lam, plan.diff_inv, plan.w_t_inv,
                      plan.loo.top, plan.loo.w, plan.loo.w_recip):
            assert array.dtype == dtype
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
