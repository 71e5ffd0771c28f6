"""Syndrome backends: linear map, symplectic phases, state-vector oracle."""

import numpy as np
import pytest

import qregen.stabilizer
from qregen.css import build_repair_css
from qregen.errors import (
    DimensionMismatch,
    DualContainmentViolated,
    ResidualOutOfTolerance,
    TooLarge,
)
from qregen.gf import GF
from qregen.matrix import Mat
from qregen.pmcode import encode_file, make_params, pack_file, random_symbols
from qregen.rng import SplitMix64
from qregen.stabilizer import (
    PauliError,
    StabGroup,
    Syndrome,
    _measure_exponent,
    _StateSpace,
    prepare_codespace,
    syndrome_linear,
    syndrome_statevector,
    syndrome_symplectic,
)

from groupgen import random_error, random_group
from linalg import dot, matvec, zeros

BACKENDS = (syndrome_linear, syndrome_symplectic, syndrome_statevector)


def reference_group():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    return params, c, StabGroup(x_type=c.hx, z_type=c.hz)


def test_zero_error_zero_syndrome():
    _, _, group = reference_group()
    err = PauliError.make(13, [0] * 4, [0] * 4)
    for backend in BACKENDS:
        syn = backend(group, err)
        assert syn == Syndrome(s_x=(0, 0), s_z=(0, 0))


def test_single_qudit_defining_cases():
    f5 = GF(5)
    z_gen = StabGroup(x_type=zeros(f5, 0, 1), z_type=Mat.from_rows(f5, [[1]]))
    x_gen = StabGroup(x_type=Mat.from_rows(f5, [[1]]), z_type=zeros(f5, 0, 1))
    for backend in BACKENDS:
        assert backend(z_gen, PauliError.make(5, [1], [0])).s_x == (1,)
        for a in range(5):
            assert backend(x_gen, PauliError.make(5, [a], [0])).s_z == (0,)
        assert backend(x_gen, PauliError.make(5, [0], [3])).s_z == (3,)


def test_linear_syndrome_is_linear():
    _, _, group = reference_group()
    rng = SplitMix64(6)
    for _ in range(30):
        e1 = random_error(13, 4, rng)
        e2 = random_error(13, 4, rng)
        esum = PauliError.make(
            13,
            [(a + b) % 13 for a, b in zip(e1.x, e2.x)],
            [(a + b) % 13 for a, b in zip(e1.z, e2.z)],
        )
        s1 = syndrome_linear(group, e1)
        s2 = syndrome_linear(group, e2)
        ssum = syndrome_linear(group, esum)
        assert ssum.s_x == tuple((a + b) % 13 for a, b in zip(s1.s_x, s2.s_x))
        assert ssum.s_z == tuple((a + b) % 13 for a, b in zip(s1.s_z, s2.s_z))


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
        x = [field.mul(c.lam1[j], dot(field, stored[s - 1].row_m, vbar))
             for j, s in enumerate(c.helpers)]
        z = [field.mul(c.lam2[j], dot(field, stored[s - 1].row_mp, vbar))
             for j, s in enumerate(c.helpers)]
        syn = syndrome_linear(group, PauliError.make(13, x, z))
        lam_f = params.lam[0]
        expect_x = tuple((a + lam_f * b) % 13 for a, b in zip(m_v[:2], m_v[2:]))
        expect_z = tuple((a + lam_f * b) % 13 for a, b in zip(mp_v[:2], mp_v[2:]))
        assert syn.s_x == expect_x == stored[0].row_m
        assert syn.s_z == expect_z == stored[0].row_mp


@pytest.mark.parametrize("p", [3, 5, 13])
def test_linear_vs_symplectic_agreement(p):
    rng = SplitMix64(p * 101)
    for _ in range(200):
        n_qudits = 2 + rng.below(5)
        r_x = 1 + rng.below(max(1, n_qudits - 1))
        group = random_group(p, n_qudits, r_x, rng)
        err = random_error(p, n_qudits, rng)
        assert syndrome_linear(group, err) == syndrome_symplectic(group, err)


def test_statevector_agreement_small():
    rng = SplitMix64(55)
    group = random_group(5, 4, 2, rng)
    state, _ = prepare_codespace(group)
    for _ in range(25):
        err = random_error(5, 4, rng)
        expected = syndrome_linear(group, err)
        got, residual = syndrome_statevector(
            group, err, state=state, with_residual=True
        )
        assert got == expected
        assert residual < 1e-6


def reference_codespace(group, start_basis=0):
    """The projector with p shift tables per X generator, summed in t order."""
    p = group.p
    space = _StateSpace(p, group.n)
    z_masks = [space.phase_exponents(h) == 0 for h in group.z_type.to_rows()]
    x_shifts = [
        [space.shift_indices([t * x for x in g]) for t in range(p)]
        for g in group.x_type.to_rows()
    ]
    for basis in range(start_basis, space.size):
        state = np.zeros(space.size, dtype=complex)
        state[basis] = 1.0
        for mask in z_masks:
            state = state * mask
        for shifts in x_shifts:
            acc = np.zeros_like(state)
            for idx in shifts:
                acc[idx] += state
            state = acc / p
        norm = np.linalg.norm(state)
        if norm > 1e-9:
            return state / norm, basis
    raise AssertionError("no basis state survives")


def reference_exponent(space, state, a, b):
    """Eigenvalue exponent read off the fully moved state X(a)Z(b)|state>."""
    moved = space.apply_pauli(state, a, b)
    i0 = int(np.argmax(np.abs(state)))
    ratio = moved[i0] / state[i0]
    s = int(round(space.p * (np.angle(ratio) % (2 * np.pi)) / (2 * np.pi))) % space.p
    return s, abs(ratio - space.omega_pow[s])


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
        state, basis = prepare_codespace(group)
        want, want_basis = reference_codespace(group)
        assert basis == want_basis
        assert np.array_equal(state, want)
    group = groups[0]
    _, used = prepare_codespace(group)
    assert np.array_equal(
        prepare_codespace(group, used + 1)[0], reference_codespace(group, used + 1)[0]
    )


@pytest.mark.parametrize("p", [3, 5, 13])
def test_measure_exponent_matches_full_pauli(p):
    for group, rng in small_groups(p, 6, 400 + p):
        space = _StateSpace(p, group.n)
        state, _ = prepare_codespace(group)
        err = random_error(p, group.n, rng)
        corrupted = space.apply_pauli(state, err.x, err.z)
        zero = [0] * group.n
        gens = [(zero, h) for h in group.z_type.to_rows()]
        gens += [(g, zero) for g in group.x_type.to_rows()]
        for a, b in gens:
            s, res = _measure_exponent(space, corrupted, a, b)
            want_s, want_res = reference_exponent(space, corrupted, a, b)
            assert s == want_s
            assert abs(res - want_res) <= 1e-12


def test_statevector_agreement_reference_group():
    params, c, group = reference_group()
    rng = SplitMix64(56)
    state, _ = prepare_codespace(group)
    for _ in range(10):
        err = random_error(13, 4, rng)
        assert syndrome_statevector(group, err, state=state) == syndrome_linear(
            group, err
        )


def test_statevector_zero_error_preserves_state():
    rng = SplitMix64(57)
    group = random_group(5, 3, 1, rng)
    state, _ = prepare_codespace(group)
    err = PauliError.make(5, [0, 0, 0], [0, 0, 0])
    assert syndrome_statevector(group, err, state=state).s_x == (0,) * group.z_type.rows
    # overlap magnitude 1 means unchanged up to a global phase
    space = _StateSpace(5, 3)
    moved = space.apply_pauli(state, err.x, err.z)
    assert abs(np.vdot(state, moved)) == pytest.approx(1.0)


def test_syndrome_independent_of_codeword():
    # a group with logical content: different surviving basis states may
    # project to different codewords, but syndromes must agree
    f5 = GF(5)
    group = StabGroup(
        x_type=Mat.from_rows(f5, [[1, 1, 0, 0]]),
        z_type=Mat.from_rows(f5, [[0, 0, 1, 1]]),
    )
    state0, basis0 = prepare_codespace(group, 0)
    state1, basis1 = prepare_codespace(group, basis0 + 1)
    assert basis1 > basis0
    assert abs(np.vdot(state0, state1)) < 1 - 1e-9  # genuinely different states
    rng = SplitMix64(58)
    for _ in range(10):
        err = random_error(5, 4, rng)
        s0 = syndrome_statevector(group, err, state=state0)
        s1 = syndrome_statevector(group, err, state=state1)
        assert s0 == s1 == syndrome_linear(group, err)


def test_group_rejects_non_commuting_pair():
    f5 = GF(5)
    with pytest.raises(DualContainmentViolated):
        StabGroup(
            x_type=Mat.from_rows(f5, [[1, 0]]),
            z_type=Mat.from_rows(f5, [[1, 0]]),
        )
    with pytest.raises(DimensionMismatch):
        StabGroup(
            x_type=Mat.from_rows(f5, [[1, 0]]),
            z_type=zeros(f5, 0, 3),
        )


def test_statevector_size_guard():
    f13 = GF(13)
    group = StabGroup(
        x_type=zeros(f13, 0, 7),
        z_type=Mat.from_rows(f13, [[1, 0, 0, 0, 0, 0, 0]]),
    )
    with pytest.raises(TooLarge):
        syndrome_statevector(group, PauliError.make(13, [0] * 7, [0] * 7))


def test_prepare_codespace_retry_and_exhaustion():
    f5 = GF(5)
    group = StabGroup(
        x_type=Mat.from_rows(f5, [[1, 1, 0, 0]]),
        z_type=Mat.from_rows(f5, [[0, 0, 1, 1]]),
    )
    # basis 1..8 violate the Z mask, so the deterministic retry lands on 9
    _, used = prepare_codespace(group, start_basis=1)
    assert used == 9
    from qregen.errors import ZeroProjection

    with pytest.raises(ZeroProjection):
        prepare_codespace(group, start_basis=5**4)


def test_error_dimension_check():
    _, _, group = reference_group()
    with pytest.raises(DimensionMismatch):
        syndrome_linear(group, PauliError.make(13, [1], [0]))
    with pytest.raises(DimensionMismatch):
        PauliError.make(13, [1, 2], [0])


def test_statevector_residual_check_raises(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    params, c, group = reference_group()
    err = random_error(13, 4, SplitMix64(58))
    monkeypatch.setattr(qregen.stabilizer, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ResidualOutOfTolerance):
        syndrome_statevector(group, err)
