"""Syndrome backends: linear map, symplectic phases, state-vector oracle."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qregen.stabilizer
from qregen.css import build_repair_css
from qregen.errors import (
    DimensionMismatch,
    DualContainmentViolated,
    ResidualOutOfTolerance,
    TooLarge,
)
from qregen.matrix import Mat, exact_dtype
from qregen.pmcode import encode_file, make_params, pack_file, random_symbols
from qregen.rng import SplitMix64
from qregen.stabilizer import (
    StabGroup,
    STATE_LIMIT,
    check_dual_containment,
    _measure_exponent,
    prepare_codespace,
    syndrome_linear,
    syndrome_statevector,
    syndrome_symplectic,
)

from densestate import DenseSpace, reference_codespace, reference_exponent
from groupgen import random_error, random_group
from linalg import dot, matvec

BACKENDS = (syndrome_linear, syndrome_symplectic, syndrome_statevector)


def stab_group(p, x_rows, z_rows, n):
    """The StabGroup on n qudits with these X and Z generator rows."""
    hx, hz = (np.array(rows, dtype=object).reshape(len(rows), n)
              for rows in (x_rows, z_rows))
    return StabGroup(x_type=hx, z_type=hz, p=p)


def lists(syndrome, p):
    """(s_x, s_z) as lists, once both are checked to be arrays in
    ``exact_dtype(1, p)`` whose lists hold Python ints."""
    syndrome = tuple(syndrome)
    for s in syndrome:
        assert s.dtype == exact_dtype(1, p)
        assert all(type(v) is int for v in s.tolist())
    return tuple(s.tolist() for s in syndrome)


def reference_group():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    return params, c, StabGroup(x_type=c.hx, z_type=c.hz, p=13)


def test_zero_error_zero_syndrome():
    _, _, group = reference_group()
    for backend in BACKENDS:
        syn = backend(group, [0] * 4, [0] * 4)
        assert lists(syn, 13) == ([0, 0], [0, 0])


def test_single_qudit_defining_cases():
    z_gen = stab_group(5, [], [[1]], 1)
    x_gen = stab_group(5, [[1]], [], 1)
    for backend in BACKENDS:
        assert lists(backend(z_gen, [1], [0]), 5)[0] == [1]
        for a in range(5):
            assert lists(backend(x_gen, [a], [0]), 5)[1] == [0]
        assert lists(backend(x_gen, [0], [3]), 5)[1] == [3]


def test_linear_syndrome_is_linear():
    _, _, group = reference_group()
    rng = SplitMix64(6)
    for _ in range(30):
        e1 = random_error(13, 4, rng)
        e2 = random_error(13, 4, rng)
        esum = (
            [(a + b) % 13 for a, b in zip(e1[0], e2[0])],
            [(a + b) % 13 for a, b in zip(e1[1], e2[1])],
        )
        s1 = lists(syndrome_linear(group, *e1), 13)
        s2 = lists(syndrome_linear(group, *e2), 13)
        ssum = lists(syndrome_linear(group, *esum), 13)
        assert ssum[0] == [(a + b) % 13 for a, b in zip(s1[0], s2[0])]
        assert ssum[1] == [(a + b) % 13 for a, b in zip(s1[1], s2[1])]


def test_repair_error_syndrome_reads_failed_node_rows():
    # the repair-time error vector must produce the failed node's two rows,
    # computed here straight from the message matrices as the oracle
    params, c, group = reference_group()
    field = params.field
    rng = SplitMix64(12)
    for _ in range(10):
        symbols = random_symbols(params, rng)
        stored = encode_file(params, symbols)[0]
        vbar = params.field.powers(params.eval_points[0], params.alpha0)
        # [S1 vbar; S2 vbar] and [S1' vbar; S2' vbar]
        m_v, mp_v = (
            matvec(Mat.from_array(field, pair), vbar)
            for pair in pack_file(params, symbols)[0]
        )
        x = [c.lam1[j] * dot(field, stored[s - 1, 0].tolist(), vbar) % 13
             for j, s in enumerate(c.helpers)]
        z = [c.lam2[j] * dot(field, stored[s - 1, 1].tolist(), vbar) % 13
             for j, s in enumerate(c.helpers)]
        s_x, s_z = lists(syndrome_linear(group, x, z), 13)
        lam_f = params.lam[0]
        expect_x = [(a + lam_f * b) % 13 for a, b in zip(m_v[:2], m_v[2:])]
        expect_z = [(a + lam_f * b) % 13 for a, b in zip(mp_v[:2], mp_v[2:])]
        assert s_x == expect_x == stored[0, 0].tolist()
        assert s_z == expect_z == stored[0, 1].tolist()


@pytest.mark.parametrize("p", [3, 5, 13])
def test_linear_vs_symplectic_agreement(p):
    rng = SplitMix64(p * 101)
    for _ in range(200):
        n_qudits = 2 + rng.below(5)
        r_x = 1 + rng.below(max(1, n_qudits - 1))
        group = random_group(p, n_qudits, r_x, rng)
        err = random_error(p, n_qudits, rng)
        want = lists(syndrome_linear(group, *err), p)
        assert lists(syndrome_symplectic(group, *err), p) == want


def test_statevector_agreement_small():
    rng = SplitMix64(55)
    group = random_group(5, 4, 2, rng)
    for _ in range(25):
        err = random_error(5, 4, rng)
        # a residual of RESIDUAL_TOL or more raises ResidualOutOfTolerance
        want = lists(syndrome_linear(group, *err), 5)
        assert lists(syndrome_statevector(group, *err), 5) == want


def small_groups(p, count, seed):
    """Random commuting groups at p with at most 13^4 amplitudes."""
    rng = SplitMix64(seed)
    max_n = {3: 6, 5: 5, 13: 4}[p]
    for _ in range(count):
        n_qudits = 2 + rng.below(max_n - 1)
        yield random_group(p, n_qudits, 1 + rng.below(n_qudits - 1), rng), rng


@pytest.mark.parametrize("p", [3, 5, 13])
def test_prepare_codespace_matches_reference(p):
    groups = [group for group, _ in small_groups(p, 12, 300 + p)]
    groups.append(reference_group()[2])
    for group in groups:
        support, amps = prepare_codespace(group)
        want, basis = reference_codespace(group)
        assert basis == 0  # |0> always survives the projector
        want_support, want_amps = DenseSpace(group.p, group.n).support_form(want)
        assert support.dtype == np.int64
        assert np.array_equal(support, want_support)
        np.testing.assert_allclose(amps, want_amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [3, 5, 13])
def test_measure_exponent_matches_full_pauli(p):
    for group, rng in small_groups(p, 6, 400 + p):
        space = DenseSpace(p, group.n)
        x, z = random_error(p, group.n, rng)
        state = space.dense(*prepare_codespace(group))
        corrupted = space.apply_pauli(state, x, z)
        support, amps = space.support_form(corrupted)
        zero = [0] * group.n
        gens = [(zero, h) for h in group.z_type.tolist()]
        gens += [(g, zero) for g in group.x_type.tolist()]
        for a, b in gens:
            # a stack of one state read with one generator
            s, res = _measure_exponent(support[None], amps[None], p, [[a]], [[b]])
            want_s, want_res = reference_exponent(space, corrupted, a, b)
            assert s.shape == res.shape == (1, 1)
            assert s[0, 0] == want_s
            assert abs(res[0, 0] - want_res) <= 1e-12


def test_statevector_agreement_reference_group():
    params, c, group = reference_group()
    rng = SplitMix64(56)
    for _ in range(10):
        err = random_error(13, 4, rng)
        want = lists(syndrome_linear(group, *err), 13)
        assert lists(syndrome_statevector(group, *err), 13) == want


def test_statevector_zero_error_preserves_state():
    rng = SplitMix64(57)
    group = random_group(5, 3, 1, rng)
    x = z = [0, 0, 0]
    assert lists(syndrome_statevector(group, x, z), 5)[0] == [0] * len(group.z_type)
    # overlap magnitude 1 means unchanged up to a global phase
    space = DenseSpace(5, 3)
    state = space.dense(*prepare_codespace(group))
    moved = space.apply_pauli(state, x, z)
    assert abs(np.vdot(state, moved)) == pytest.approx(1.0)


def test_syndrome_independent_of_codeword(monkeypatch):
    # a group with logical content: different surviving basis states of the
    # dense reference project to different codewords, but syndromes must agree
    group = stab_group(5, [[1, 1, 0, 0]], [[0, 0, 1, 1]], 4)
    state0, basis0 = reference_codespace(group, 0)
    state1, basis1 = reference_codespace(group, basis0 + 1)
    assert basis1 == 9  # basis 1..8 violate the Z generator
    assert abs(np.vdot(state0, state1)) < 1 - 1e-9  # genuinely different states
    space = DenseSpace(5, 4)
    rng = SplitMix64(58)
    for _ in range(10):
        err = random_error(5, 4, rng)
        want = lists(syndrome_linear(group, *err), 5)
        for state in (state0, state1):
            # syndrome_statevector prepares through the module global
            monkeypatch.setattr(qregen.stabilizer, "prepare_codespace",
                                lambda _, state=state: space.support_form(state))
            assert lists(syndrome_statevector(group, *err), 5) == want


def test_group_rejects_non_commuting_pair():
    hx = np.array([[1, 0]], dtype=object)
    with pytest.raises(DualContainmentViolated):
        StabGroup(x_type=hx, z_type=np.array([[1, 0]], dtype=object), p=5)
    with pytest.raises(DimensionMismatch):
        StabGroup(x_type=hx, z_type=np.zeros((0, 3), dtype=object), p=5)


def file_codes(p):
    """The 28 codes of a (12,4,8,p) file repair of node 1, each with its own
    random u."""
    params = make_params(12, 4, 8, p)
    rng = SplitMix64(p % 1000)
    return [build_repair_css(params, 1, hs, [rng.unit(p) for _ in range(6)])
            for hs in combinations(range(2, 10), 6)]


def stacked(codes):
    """The codes' HX and HZ as two (T, r, N) stacks."""
    return np.stack([c.hx for c in codes]), np.stack([c.hz for c in codes])


def group_of(code):
    """The checked stabilizer group of one repair code."""
    return StabGroup(x_type=code.hx, z_type=code.hz, p=code.p)


@pytest.mark.parametrize("p", [17, 2**61 - 1])
def test_stacked_group_measures_like_each_group(p):
    codes = file_codes(p)
    group = StabGroup(*stacked(codes), p=p)
    assert group.n == 6
    rng = SplitMix64(21)
    errors = [random_error(p, 6, rng) for _ in codes]
    x, z = ([e[i] for e in errors] for i in (0, 1))
    # the state-vector backend has 17^3 support entries per group at p = 17
    for backend in BACKENDS if p <= STATE_LIMIT else BACKENDS[:2]:
        s_x, s_z = backend(group, x, z)
        assert s_x.shape == s_z.shape == (28, 3)
        for c, err, sx, sz in zip(codes, errors, s_x, s_z):
            want = lists(syndrome_linear(group_of(c), *err), p)
            assert lists((sx, sz), p) == lists(backend(group_of(c), *err), p) == want
    with pytest.raises(DimensionMismatch):
        syndrome_linear(group, x[:27], z[:27])
    with pytest.raises(DimensionMismatch):
        syndrome_symplectic(group, x[0], z[0])
    with pytest.raises(DimensionMismatch):
        syndrome_statevector(group, x[0], z[0])
    if p > STATE_LIMIT:
        with pytest.raises(TooLarge):
            syndrome_statevector(group, x, z)


def random_stack(p, n_qudits, r_x, count, rng, dependent=()):
    """A stack of ``count`` random commuting groups of one shape; in each
    group listed in ``dependent`` the last X row becomes c times the first,
    for the c given, so that HX loses rank (c = 1 repeats a row)."""
    groups = [random_group(p, n_qudits, r_x, rng) for _ in range(count)]
    hx, hz = np.stack([g.x_type for g in groups]), np.stack([g.z_type for g in groups])
    for t, c in dependent:
        hx[t, -1] = c * hx[t, 0] % p
    return StabGroup(x_type=hx, z_type=hz, p=p)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stacked_statevector_equals_linear_group_by_group(data):
    p = data.draw(st.sampled_from([3, 5, 13, 17]))
    n_qudits = data.draw(st.integers(2, {3: 6, 5: 5, 13: 4, 17: 4}[p]))
    r_x = data.draw(st.integers(1, n_qudits - 1))
    count = data.draw(st.integers(1, 4))
    dependent = data.draw(st.dictionaries(st.integers(0, count - 1), st.integers(0, p - 1)))
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    group = random_stack(p, n_qudits, r_x, count, rng, dependent.items())
    errors = [random_error(p, n_qudits, rng) for _ in range(count)]
    x, z = ([e[i] for e in errors] for i in (0, 1))
    s_x, s_z = syndrome_statevector(group, x, z)
    for t, err in enumerate(errors):
        one = StabGroup(x_type=group.x_type[t], z_type=group.z_type[t], p=p)
        assert lists((s_x[t], s_z[t]), p) == lists(syndrome_linear(one, *err), p)


def test_one_group_measures_like_a_stack_of_one():
    rng = SplitMix64(23)
    groups = [reference_group()[2], random_group(5, 4, 2, rng)]
    groups.append(random_stack(5, 4, 2, 1, rng, [(0, 3)]))  # rank 1 of 2
    for group in groups:
        one = StabGroup(x_type=group.x_type.reshape(-1, group.n),
                        z_type=group.z_type.reshape(-1, group.n), p=group.p)
        stack = StabGroup(x_type=one.x_type[None], z_type=one.z_type[None], p=group.p)
        for _ in range(5):
            x, z = random_error(group.p, group.n, rng)
            s_x, s_z = syndrome_statevector(stack, [x], [z])
            want = lists(syndrome_statevector(one, x, z), group.p)
            assert lists((s_x[0], s_z[0]), group.p) == want


def test_stacked_codespace_keeps_p_to_the_r_rows():
    # a repeated codeword keeps its row with amplitude 0, so every group of
    # the stack holds p^r rows; a single group lists only distinct codewords
    group = random_stack(5, 4, 2, 3, SplitMix64(24), [(1, 1), (2, 0)])
    support, amps = prepare_codespace(group)
    assert support.shape == (3, 25, 4) and amps.shape == (3, 25)
    assert support.dtype == np.int64 and not support[:, 0].any()  # t = 0 first
    assert (np.count_nonzero(amps, axis=1) == [25, 5, 5]).all()
    np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, rtol=0, atol=1e-12)
    for t in range(3):
        one = StabGroup(x_type=group.x_type[t], z_type=group.z_type[t], p=5)
        distinct, one_amps = prepare_codespace(one)
        kept = support[t][amps[t] != 0]
        assert sorted(kept.tolist()) == distinct.tolist()
        np.testing.assert_allclose(amps[t][amps[t] != 0], one_amps, rtol=0, atol=1e-12)


def test_a_read_never_lands_on_a_masked_row():
    # group 0's zero X row repeats the zero codeword, so 4 of its 5 rows are
    # masked with key -1, no codeword's key; group 1, shifted by its X error
    # 3 (1, 1, 1, 1), reads its X generator at (4, 4, 4, 4), the largest key
    # of its own range, which keys offset downwards would make -1 as well
    hx = np.array([[[0, 0, 0, 0]], [[1, 1, 1, 1]]], dtype=np.int64)
    hz = np.array([[[1, 4, 0, 0]], [[1, 4, 0, 0]]], dtype=np.int64)
    group = StabGroup(x_type=hx, z_type=hz, p=5)
    x, z = [[1, 2, 3, 4], [3, 3, 3, 3]], [[2, 0, 1, 3], [3, 1, 4, 2]]
    s_x, s_z = syndrome_statevector(group, x, z)
    for t in range(2):
        one = StabGroup(x_type=hx[t], z_type=hz[t], p=5)
        assert lists((s_x[t], s_z[t]), 5) == lists(syndrome_linear(one, x[t], z[t]), 5)


def test_stack_measured_in_slices_under_the_state_limit(monkeypatch):
    # 28 groups of 17^3 = 4913 support entries: under a limit of 5000 entries
    # each slice holds one group, and the syndromes do not change
    codes = file_codes(17)
    group = StabGroup(*stacked(codes), p=17)
    rng = SplitMix64(25)
    errors = [random_error(17, 6, rng) for _ in codes]
    x, z = ([e[i] for e in errors] for i in (0, 1))
    whole = lists((s.ravel() for s in syndrome_statevector(group, x, z)), 17)
    prepared = []
    real = qregen.stabilizer.prepare_codespace

    def counting(g):
        prepared.append(g.x_type.shape)
        return real(g)

    monkeypatch.setattr(qregen.stabilizer, "STATE_LIMIT", 5000)
    monkeypatch.setattr(qregen.stabilizer, "prepare_codespace", counting)
    sliced = syndrome_statevector(group, x, z)
    assert prepared == [(1, 3, 6)] * 28
    assert lists((s.ravel() for s in sliced), 17) == whole
    assert whole == lists((s.ravel() for s in syndrome_linear(group, x, z)), 17)


def test_statevector_keys_past_int64():
    # 13^18 > 2^63: the codewords' keys leave int64 for Python ints, with
    # the same support and syndromes
    rng = SplitMix64(26)
    group = random_stack(13, 18, 1, 2, rng)
    for t in range(2):
        one = StabGroup(x_type=group.x_type[t], z_type=group.z_type[t], p=13)
        support, _ = prepare_codespace(one)
        assert support.dtype == np.int64 and len(support) == 13
        assert support.tolist() == sorted(support.tolist())
    errors = [random_error(13, 18, rng) for _ in range(2)]
    x, z = ([e[i] for e in errors] for i in (0, 1))
    assert (lists((s.ravel() for s in syndrome_statevector(group, x, z)), 13)
            == lists((s.ravel() for s in syndrome_linear(group, x, z)), 13))


def test_stacked_check_catches_one_bad_group():
    hx, hz = stacked(file_codes(17))
    assert check_dual_containment(hx, hz, 17)
    hz[27, 2, 5] = (hz[27, 2, 5] + 1) % 17
    assert not check_dual_containment(hx, hz, 17)
    with pytest.raises(DualContainmentViolated):
        StabGroup(x_type=hx, z_type=hz, p=17)
    for other in (hz[:27], hz[0], hz[:, :, :5]):
        with pytest.raises(DimensionMismatch):
            check_dual_containment(hx, other, 17)


def test_statevector_size_guard():
    # six independent X generators: 13^6 support entries, though every one
    # of them stays far below int64
    x_rows = [[int(i == j) for j in range(7)] for i in range(6)]
    group = stab_group(13, x_rows, [[0, 0, 0, 0, 0, 0, 1]], 7)
    with pytest.raises(TooLarge, match=r"13\^6 amplitudes"):
        syndrome_statevector(group, [0] * 7, [0] * 7)


def test_statevector_refuses_p_over_limit():
    # no X generators, so p^0 = 1 support entry; but exponents would leave
    # int64 and float64 cannot tell the p-th roots of unity apart
    p = 2**61 - 1
    group = stab_group(p, [], [[1, 2]], 2)
    with pytest.raises(TooLarge, match="limit"):
        prepare_codespace(group)
    with pytest.raises(TooLarge):
        syndrome_statevector(group, [p - 1, 5], [3, p - 2])


def test_statevector_at_largest_prime_under_limit():
    # p support entries, each phase w^s computed from s; neighbouring roots
    # of unity are 2 pi / p ~ 6e-6 apart, over the residual tolerance
    p = 1048573
    assert p <= STATE_LIMIT < p + 4
    group = stab_group(p, [[1, 1]], [[1, p - 1]], 2)
    assert len(prepare_codespace(group)[0]) == p
    for x, z in (([1, 0], [0, 1]), ([p - 1, 3], [p // 2, 7]), ([12345, 0], [0, 54321])):
        want = lists(syndrome_linear(group, x, z), p)
        assert lists(syndrome_statevector(group, x, z), p) == want


def test_error_dimension_check():
    # every backend checks both exponent vectors against the group's width
    _, _, group = reference_group()
    for backend in BACKENDS:
        with pytest.raises(DimensionMismatch):
            backend(group, [1], [0])
        with pytest.raises(DimensionMismatch):
            backend(group, [1, 2, 3, 4], [0])
        with pytest.raises(DimensionMismatch):
            backend(group, [0], [1, 2, 3, 4])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_backends_reduce_exponents_mod_p(data):
    # exponents anywhere in (-3p, 3p) give the syndromes of their residues
    p = data.draw(st.sampled_from([13, 2**61 - 1]))
    params = make_params(6, 3, 4, p)
    group = group_of(build_repair_css(params, 1, (2, 4, 5, 6)))
    vectors = st.lists(st.integers(-3 * p + 1, 3 * p - 1), min_size=4, max_size=4)
    x, z = data.draw(vectors), data.draw(vectors)
    reduced = [v % p for v in x], [v % p for v in z]
    backends = BACKENDS if p <= STATE_LIMIT else BACKENDS[:2]
    for backend in backends:
        assert lists(backend(group, x, z), p) == lists(backend(group, *reduced), p)


def test_statevector_residual_check_raises(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    params, c, group = reference_group()
    err = random_error(13, 4, SplitMix64(58))
    monkeypatch.setattr(qregen.stabilizer, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ResidualOutOfTolerance):
        syndrome_statevector(group, *err)
