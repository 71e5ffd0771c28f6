"""Syndrome backends: linear map, symplectic phases, state-vector oracle."""

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
from qregen.matrix import Mat
from qregen.pmcode import encode_file, make_params, pack_file, random_symbols
from qregen.rng import SplitMix64
from qregen.stabilizer import (
    StabGroup,
    STATE_LIMIT,
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


def lists(syndrome):
    """(s_x, s_z) as lists, once both are checked to be object arrays of
    Python ints."""
    for s in syndrome:
        assert s.dtype == object and all(type(v) is int for v in s)
    return tuple(s.tolist() for s in syndrome)


def reference_group():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    return params, c, StabGroup(x_type=c.hx, z_type=c.hz, p=13)


def test_zero_error_zero_syndrome():
    _, _, group = reference_group()
    for backend in BACKENDS:
        syn = backend(group, [0] * 4, [0] * 4)
        assert lists(syn) == ([0, 0], [0, 0])


def test_single_qudit_defining_cases():
    z_gen = stab_group(5, [], [[1]], 1)
    x_gen = stab_group(5, [[1]], [], 1)
    for backend in BACKENDS:
        assert lists(backend(z_gen, [1], [0]))[0] == [1]
        for a in range(5):
            assert lists(backend(x_gen, [a], [0]))[1] == [0]
        assert lists(backend(x_gen, [0], [3]))[1] == [3]


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
        s1 = lists(syndrome_linear(group, *e1))
        s2 = lists(syndrome_linear(group, *e2))
        ssum = lists(syndrome_linear(group, *esum))
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
        vbar = params.point_powers(1)
        # [S1 vbar; S2 vbar] and [S1' vbar; S2' vbar]
        m_v, mp_v = (
            matvec(Mat.from_array(field, pair), vbar)
            for pair in pack_file(params, symbols)[0]
        )
        x = [field.mul(c.lam1[j], dot(field, stored[s - 1, 0].tolist(), vbar))
             for j, s in enumerate(c.helpers)]
        z = [field.mul(c.lam2[j], dot(field, stored[s - 1, 1].tolist(), vbar))
             for j, s in enumerate(c.helpers)]
        s_x, s_z = lists(syndrome_linear(group, x, z))
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
        want = lists(syndrome_linear(group, *err))
        assert lists(syndrome_symplectic(group, *err)) == want


def test_statevector_agreement_small():
    rng = SplitMix64(55)
    group = random_group(5, 4, 2, rng)
    for _ in range(25):
        err = random_error(5, 4, rng)
        # a residual of RESIDUAL_TOL or more raises ResidualOutOfTolerance
        want = lists(syndrome_linear(group, *err))
        assert lists(syndrome_statevector(group, *err)) == want


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
            s, res = _measure_exponent(support, amps, p, a, b)
            want_s, want_res = reference_exponent(space, corrupted, a, b)
            assert s == want_s
            assert abs(res - want_res) <= 1e-12


def test_statevector_agreement_reference_group():
    params, c, group = reference_group()
    rng = SplitMix64(56)
    for _ in range(10):
        err = random_error(13, 4, rng)
        want = lists(syndrome_linear(group, *err))
        assert lists(syndrome_statevector(group, *err)) == want


def test_statevector_zero_error_preserves_state():
    rng = SplitMix64(57)
    group = random_group(5, 3, 1, rng)
    x = z = [0, 0, 0]
    assert lists(syndrome_statevector(group, x, z))[0] == [0] * len(group.z_type)
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
        want = lists(syndrome_linear(group, *err))
        for state in (state0, state1):
            # syndrome_statevector prepares through the module global
            monkeypatch.setattr(qregen.stabilizer, "prepare_codespace",
                                lambda _, state=state: space.support_form(state))
            assert lists(syndrome_statevector(group, *err)) == want


def test_group_rejects_non_commuting_pair():
    hx = np.array([[1, 0]], dtype=object)
    with pytest.raises(DualContainmentViolated):
        StabGroup(x_type=hx, z_type=np.array([[1, 0]], dtype=object), p=5)
    with pytest.raises(DimensionMismatch):
        StabGroup(x_type=hx, z_type=np.zeros((0, 3), dtype=object), p=5)


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
        want = lists(syndrome_linear(group, x, z))
        assert lists(syndrome_statevector(group, x, z)) == want


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
    group = build_repair_css(params, 1, (2, 4, 5, 6)).group
    vectors = st.lists(st.integers(-3 * p + 1, 3 * p - 1), min_size=4, max_size=4)
    x, z = data.draw(vectors), data.draw(vectors)
    reduced = [v % p for v in x], [v % p for v in z]
    backends = BACKENDS if p <= STATE_LIMIT else BACKENDS[:2]
    for backend in backends:
        assert lists(backend(group, x, z)) == lists(backend(group, *reduced))


def test_statevector_residual_check_raises(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    params, c, group = reference_group()
    err = random_error(13, 4, SplitMix64(58))
    monkeypatch.setattr(qregen.stabilizer, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ResidualOutOfTolerance):
        syndrome_statevector(group, *err)
