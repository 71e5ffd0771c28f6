"""Storage code: parameter validation, packing, encoding, retrieval."""

from itertools import combinations

import pytest

from qregen.errors import (
    BadShareSet,
    InvalidParams,
    NoValidPoints,
    Singular,
    WrongLength,
)
from qregen.pmcode import (
    encode,
    encode_file,
    make_params,
    pack_file,
    pack_message,
    random_symbols,
    retrieve,
    retrieve_file,
    unpack_file,
    unpack_message,
)
from qregen.rng import SplitMix64

from linalg import dot
from sampling import sample


def test_make_params_reference_instance():
    p = make_params(6, 3, 4, 13)
    assert p.eval_points == (1, 2, 3, 4, 5, 6)
    assert p.lam == (1, 4, 9, 3, 12, 10)
    assert p.alpha0 == 2
    assert p.B == 12
    assert p.alpha == 4
    assert p.subfiles == 1
    assert p.lambda_distinct


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
    relaxed = make_params(8, 3, 4, 13, allow_repeated_lambda=True)
    assert not relaxed.lambda_distinct
    assert relaxed.lam == (1, 4, 9, 3, 12, 10, 10, 12)
    assert make_params(8, 3, 4, 17).lambda_distinct


def test_make_params_greedy_fallback():
    # cubes mod 31 collide on the default points (5^3 = 1^3), so the greedy
    # scan must skip to a distinct-lam assignment
    p = make_params(8, 4, 6, 31)
    assert p.eval_points == (1, 2, 3, 4, 6, 8, 11, 12)
    assert len(set(p.lam)) == 8


def test_pack_message_reference_labeling():
    params = make_params(6, 3, 4, 13)
    msg = pack_message(params, list(range(1, 13)))
    assert msg.s1.to_rows() == [[1, 2], [2, 3]]
    assert msg.s2.to_rows() == [[4, 5], [5, 6]]
    assert msg.s1p.to_rows() == [[7, 8], [8, 9]]
    assert msg.s2p.to_rows() == [[10, 11], [11, 12]]


def test_pack_message_zero_and_errors():
    params = make_params(6, 3, 4, 13)
    msg = pack_message(params, [0] * 12)
    for m in (msg.s1, msg.s2, msg.s1p, msg.s2p):
        assert m.is_zero()
    with pytest.raises(WrongLength):
        pack_message(params, [0] * 11)


def test_pack_unpack_round_trip():
    params = make_params(7, 4, 6, 17)
    rng = SplitMix64(1)
    for _ in range(20):
        symbols = [rng.below(17) for _ in range(params.B)]
        assert list(unpack_message(params, pack_message(params, symbols))) == symbols


def test_encode_node1_reference_sums():
    params = make_params(6, 3, 4, 13)
    u = list(range(1, 13))
    stored = encode(params, pack_message(params, u))
    s = [0] + u  # 1-based labels
    assert stored[0].row_m == ((s[1] + s[2] + s[4] + s[5]) % 13,
                               (s[2] + s[3] + s[5] + s[6]) % 13)
    assert stored[0].row_mp == ((s[7] + s[8] + s[10] + s[11]) % 13,
                                (s[8] + s[9] + s[11] + s[12]) % 13)


def test_encode_zero_message():
    params = make_params(6, 3, 4, 13)
    stored = encode(params, pack_message(params, [0] * 12))
    assert all(not any(s.row_m) and not any(s.row_mp) for s in stored)


def test_encode_matches_two_term_decomposition():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(2)
    field = params.field
    for _ in range(10):
        msg = pack_message(params, random_symbols(params, rng))
        stored = encode(params, msg)
        for i in range(1, 7):
            vbar = params.point_powers(i)
            lam = params.lam[i - 1]
            for row, s_a, s_b in (
                (stored[i - 1].row_m, msg.s1, msg.s2),
                (stored[i - 1].row_mp, msg.s1p, msg.s2p),
            ):
                expect = tuple(  # column j of S is row j of S^T
                    (dot(field, vbar, a_col) + lam * dot(field, vbar, b_col)) % 13
                    for a_col, b_col in zip(s_a.T.to_rows(), s_b.T.to_rows())
                )
                assert row == expect


def test_encode_linearity():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(3)
    a = random_symbols(params, rng)
    b = random_symbols(params, rng)
    summed = [(x + y) % 13 for x, y in zip(a, b)]
    enc_a = encode(params, pack_message(params, a))
    enc_b = encode(params, pack_message(params, b))
    enc_sum = encode(params, pack_message(params, summed))
    for sa, sb, ss in zip(enc_a, enc_b, enc_sum):
        assert ss.row_m == tuple((x + y) % 13 for x, y in zip(sa.row_m, sb.row_m))
        assert ss.row_mp == tuple((x + y) % 13 for x, y in zip(sa.row_mp, sb.row_mp))


def test_storage_size_matches_point():
    for n, k, d, p in ((6, 3, 4, 13), (7, 4, 6, 17), (4, 2, 2, 7)):
        params = make_params(n, k, d, p)
        stored = encode(params, pack_message(params, [1] * params.B))
        assert all(len(s.row_m) + len(s.row_mp) == 2 * (k - 1) for s in stored)
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
        stored = encode(params, pack_message(params, symbols))
        for subset in combinations(range(1, n + 1), k):
            got = retrieve(params, [stored[i - 1] for i in subset])
            assert list(unpack_message(params, got)) == symbols


def test_retrieve_zero_shares():
    params = make_params(6, 3, 4, 13)
    stored = encode(params, pack_message(params, [0] * 12))
    got = retrieve(params, stored[:3])
    assert all(m.is_zero() for m in (got.s1, got.s2, got.s1p, got.s2p))


def test_retrieve_recovers_symmetric_matrices():
    params = make_params(7, 4, 6, 17)
    rng = SplitMix64(5)
    stored = encode(params, pack_message(params, random_symbols(params, rng)))
    got = retrieve(params, [stored[i] for i in (0, 2, 4, 6)])
    for m in (got.s1, got.s2, got.s1p, got.s2p):
        assert m == m.T


def test_retrieve_share_set_validation():
    params = make_params(6, 3, 4, 13)
    stored = encode(params, pack_message(params, [1] * 12))
    with pytest.raises(BadShareSet):
        retrieve(params, stored[:2])
    with pytest.raises(BadShareSet):
        retrieve(params, [stored[0], stored[0], stored[1]])
    with pytest.raises(BadShareSet):
        retrieve(params, stored[:4])


def test_retrieve_with_repeated_lambda():
    # relaxed parameters keep encoding and lam-compatible retrieval working,
    # but a share set hitting a repeated-lam pair has a singular decode step
    relaxed = make_params(8, 3, 4, 13, allow_repeated_lambda=True)
    rng = SplitMix64(77)
    symbols = random_symbols(relaxed, rng)
    stored = encode(relaxed, pack_message(relaxed, symbols))
    got = retrieve(relaxed, [stored[0], stored[1], stored[2]])
    assert list(unpack_message(relaxed, got)) == symbols
    assert relaxed.lam[5] == relaxed.lam[6]
    with pytest.raises(Singular):
        retrieve(relaxed, [stored[5], stored[6], stored[0]])


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
    shares = [[sub[i] for i in (1, 4)] for sub in storage]
    assert list(retrieve_file(params, shares)) == symbols
    with pytest.raises(WrongLength):
        pack_file(params, symbols[:-1])
    with pytest.raises(BadShareSet):
        retrieve_file(params, shares[:2])


def test_retrieve_file_distinct_subsets_per_subfile():
    # the decode plan is keyed on the ids, so sub-files read from different
    # k-subsets (and repeated ones) must each decode with their own plan
    params = make_params(12, 4, 8, 17)
    rng = SplitMix64(19)
    symbols = random_symbols(params, rng)
    storage = encode_file(params, symbols)
    subsets = [sample(rng, range(1, 13), 4) for _ in range(params.subfiles - 2)]
    subsets += subsets[:2]
    assert len({tuple(sorted(s)) for s in subsets}) > 1
    shares = [[sub[i - 1] for i in ids] for sub, ids in zip(storage, subsets)]
    assert list(retrieve_file(params, shares)) == symbols


def test_retrieve_file_every_subset_at_12_4_8_17():
    params = make_params(12, 4, 8, 17)
    symbols = random_symbols(params, SplitMix64(12))
    storage = encode_file(params, symbols)
    subsets = list(combinations(range(1, 13), 4))
    assert len(subsets) == 495
    for ids in subsets:
        shares = [[sub[i - 1] for i in ids] for sub in storage]
        assert list(retrieve_file(params, shares)) == symbols
