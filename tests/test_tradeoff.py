"""Tradeoff bounds: feasibility sums, the simultaneous optimum, tables."""

from fractions import Fraction

import pytest

import qregen.tradeoff
from qregen.errors import BoundNotMet, Indivisible, InvalidRegime, RegimeViolation
from qregen.tradeoff import (
    alpha_min_classical,
    alpha_min_quantum,
    check_regime,
    classical_msr_bandwidth,
    classical_sum,
    optimal_point,
    quantum_sum,
    table_csv,
    tradeoff_table,
)


def classical_feasible(k, d, alpha, beta_c, b) -> bool:
    check_regime(k, d, alpha, beta_c, b)
    return classical_sum(k, d, alpha, beta_c) >= b


def quantum_feasible(k, d, alpha, beta_q, b) -> bool:
    check_regime(k, d, alpha, beta_q, b)
    return quantum_sum(k, d, alpha, beta_q) >= b


def test_classical_feasible_golden():
    # sum_i min((4-i)*4, 4) = 4+4+4 = 12
    assert classical_feasible(3, 4, 4, 4, 12)
    assert classical_sum(3, 4, 4, 4) == 12
    assert not classical_feasible(3, 4, 4, 0, 12)
    assert not classical_feasible(1, 1, 0, 0, 1)


def test_classical_msr_point_meets_bound_with_equality():
    for k, d, B in ((3, 4, 12), (4, 6, 24), (10, 20, 2200)):
        alpha = Fraction(B, k)
        beta = alpha / (d - k + 1)
        assert classical_sum(k, d, alpha, beta) == B
        assert classical_feasible(k, d, alpha, beta, B)
        total = beta * d
        assert total == classical_msr_bandwidth(k, d, B)


def test_quantum_feasible_golden():
    # sum_i min(2(4-i), 4, 4) = 4+4+4 = 12 with equality
    assert quantum_sum(3, 4, 4, 1) == 12
    assert quantum_feasible(3, 4, 4, 1, 12)
    assert not quantum_feasible(3, 4, 4, 0, 12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_quantum_equality_at_smallest_regime(k):
    d = 2 * k - 2
    for t in (1, 2, 3):
        b = k * d * t
        assert quantum_sum(k, d, b // k, b // (k * d)) == b


def test_optimal_point_goldens():
    pt = optimal_point(3, 4, 12)
    assert (pt.alpha, pt.d * pt.beta) == (4, 4)
    pt = optimal_point(2, 2, 4)
    assert (pt.alpha, pt.d * pt.beta) == (2, 2)
    pt = optimal_point(10, 20, 2200)
    assert (pt.alpha, pt.d * pt.beta) == (220, 220)
    assert classical_msr_bandwidth(10, 20, 2200) == Fraction(400)
    assert classical_msr_bandwidth(10, 20, 2200) / 220 == Fraction(20, 11)


def test_msr_bandwidth_degenerate_d_equals_k():
    # d = k collapses the saving: the download equals the whole file
    assert classical_msr_bandwidth(3, 3, 12) == 12


def test_optimal_point_errors():
    with pytest.raises(RegimeViolation):
        optimal_point(4, 5, 40)  # d < 2k-2
    with pytest.raises(Indivisible):
        optimal_point(3, 4, 13)
    with pytest.raises(Indivisible):
        optimal_point(3, 4, 15)  # divisible by k but not k*d
    # the regime is checked before B is divided by k * d
    with pytest.raises(InvalidRegime):
        optimal_point(0, 3, 12)  # no division by zero
    with pytest.raises(InvalidRegime):
        optimal_point(-1, 3, 12)  # no bound checked at a negative point


def test_optimal_point_bound_check_raises(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    monkeypatch.setattr(qregen.tradeoff, "quantum_sum", lambda k, d, a, b: 0)
    with pytest.raises(BoundNotMet):
        optimal_point(3, 4, 12)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_point_infeasible_below_regime(k):
    # with d < 2k-2 some terms drop under d*beta, so B/k storage cannot
    # meet the bound at d*beta = B/k
    d = 2 * k - 3
    b = k * d * 2
    assert quantum_sum(k, d, b // k, Fraction(b, k * d)) < b
    assert not quantum_feasible(k, d, b // k, Fraction(b, k * d), b)


def test_feasibility_monotone():
    b = 24
    for k, d in ((3, 4), (4, 6)):
        feas_alpha = [quantum_sum(k, d, a, 1) for a in range(0, 3 * b)]
        assert all(x <= y for x, y in zip(feas_alpha, feas_alpha[1:]))
        feas_beta = [quantum_sum(k, d, 8, Fraction(t, 4)) for t in range(0, 40)]
        assert all(x <= y for x, y in zip(feas_beta, feas_beta[1:]))
    sums_d = [quantum_sum(3, d, 6, 1) for d in range(3, 12)]
    assert all(x <= y for x, y in zip(sums_d, sums_d[1:]))


def test_invalid_regime():
    with pytest.raises(InvalidRegime):
        quantum_feasible(3, 2, 4, 1, 12)
    with pytest.raises(InvalidRegime):
        classical_feasible(0, 4, 4, 1, 12)
    with pytest.raises(InvalidRegime):
        quantum_feasible(3, 4, -1, 1, 12)
    with pytest.raises(InvalidRegime):
        classical_msr_bandwidth(5, 4, 10)


def test_alpha_min_scans():
    # at beta_q = B/(kd) the minimal storage is exactly B/k
    for k, d, t in ((2, 2, 1), (3, 4, 2), (4, 6, 3)):
        b = k * d * t
        assert alpha_min_quantum(k, d, Fraction(b, k * d), b) == b // k
    # storage-limited regime: huge beta drives both to ceil(B/k)
    assert alpha_min_classical(3, 4, 10**6, 13) == 5
    assert alpha_min_quantum(3, 4, 10**6, 13) == 5
    # starved bandwidth is infeasible at any alpha
    assert alpha_min_classical(3, 4, 0, 12) is None
    assert alpha_min_quantum(3, 4, Fraction(1, 100), 12) is None
    # past sys.maxsize, where range(B + 1) can no longer be bisected
    b = 12 * 10**18
    assert alpha_min_quantum(3, 4, Fraction(b, 12), b) == b // 3


def test_table_quantum_never_above_classical():
    rows = tradeoff_table(3, 4, 12, [Fraction(t, 2) for t in range(1, 9)])
    for _, a_c, a_q in rows:
        if a_c is not None:
            assert a_q is not None
            assert a_q <= a_c


def test_table_csv_format():
    rows = tradeoff_table(3, 4, 12, [1, 2])
    text = table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "beta,alpha_min_classical,alpha_min_quantum"
    assert lines[1] == "1,,4"
    assert lines[2] == "2,4,4"
    assert table_csv([]) == "beta,alpha_min_classical,alpha_min_quantum\n"


def scan_alpha_min(summand, k, d, beta, b):
    """The least feasible alpha by trying every alpha in [0, B]."""
    return next((a for a in range(b + 1) if summand(k, d, a, beta) >= b), None)


def test_alpha_min_bisection_matches_scan():
    betas = (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2), 4)
    for k in range(1, 5):
        for d in range(k, 7):
            for b in range(30):
                for beta in betas:
                    assert alpha_min_classical(k, d, beta, b) == scan_alpha_min(
                        classical_sum, k, d, beta, b)
                    assert alpha_min_quantum(k, d, beta, b) == scan_alpha_min(
                        quantum_sum, k, d, beta, b)


def test_closed_form_sums_match_term_loops():
    betas = [Fraction(t, 4) for t in (0, 1, 2, 3, 4, 6, 8, 12)] + [Fraction(7, 3)]
    alphas = list(range(0, 24, 2)) + [1, Fraction(1, 3), Fraction(7, 2), Fraction(29, 3)]
    for k in range(1, 7):
        for d in range(k, 10):
            for alpha in alphas:
                for beta in betas:
                    assert classical_sum(k, d, alpha, beta) == sum(
                        min((d - i) * beta, alpha) for i in range(k))
                    assert quantum_sum(k, d, alpha, beta) == sum(
                        min(2 * (d - i) * beta, d * beta, alpha) for i in range(k))
