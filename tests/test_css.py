"""Repair-time CSS construction: goldens, dual containment, identities."""

from itertools import combinations

import pytest

import qregen.css
from qregen.css import build_repair_css, check_dual_containment, grs_dual_weights
from qregen.errors import (
    DimensionMismatch,
    DualContainmentViolated,
    InvalidHelperSet,
    RepeatedPoint,
    ZeroU,
)
from qregen.gf import GF
from qregen.matrix import Mat, vandermonde
from qregen.pmcode import make_params
from qregen.rng import SplitMix64
from qregen.stabilizer import StabGroup

from linalg import zeros
from sampling import sample

F13 = GF(13)


def test_grs_weights_golden():
    # frozen from the product formula; these also reproduce the reference
    # instance's second precoding diagonal (11, 5, 11, 2)
    assert grs_dual_weights(F13, (2, 4, 5, 6)) == [7, 10, 4, 5]


def test_grs_weights_pair_antisymmetry():
    f = GF(101)
    for a, b in ((3, 17), (1, 100), (55, 54)):
        wa, wb = grs_dual_weights(f, (a, b))
        assert wa == f.inv(f.sub(a, b))
        assert (wa + wb) % 101 == 0


def test_grs_weights_power_sums():
    # sum_j w_j v_j^m = 0 for m <= d-2 and != 0 at m = d-1
    rng = SplitMix64(31)
    for p in (13, 101):
        f = GF(p)
        for _ in range(20):
            d = 2 + rng.below(min(8, p - 2))
            pts = sample(rng, range(1, p), d)
            w = grs_dual_weights(f, pts)
            for m in range(d - 1):
                assert sum(wj * f.pow(v, m) for wj, v in zip(w, pts)) % p == 0
            assert sum(wj * f.pow(v, d - 1) for wj, v in zip(w, pts)) % p != 0


def test_grs_weights_repeated_point():
    with pytest.raises(RepeatedPoint):
        grs_dual_weights(F13, (2, 4, 4, 6))


def test_build_reference_instance_goldens():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    assert c.lam1 == (9, 7, 6, 3)
    assert c.lam2 == (11, 5, 11, 2)
    assert c.hx.to_rows() == [[11, 10, 3, 9], [4, 2, 1, 0]]
    assert c.hz.to_rows() == [[12, 9, 12, 6], [2, 7, 4, 0]]
    assert c.u == (1, 1, 1, 1)
    assert c.u_prime == (7, 10, 4, 5)
    assert params.lam[c.failed_node - 1] == 1
    assert check_dual_containment(c.hx, c.hz)
    assert all(x != 0 for x in c.lam1 + c.lam2)


def diag(field, entries):
    n = len(entries)
    rows = [[e if i == j else 0 for j in range(n)] for i, e in enumerate(entries)]
    return Mat.from_rows(field, rows)


def _selector(params, failed):
    lam_f = params.lam[failed - 1]
    ident = Mat.identity(params.field, params.alpha0).to_rows()
    return Mat.from_rows(params.field, [row + [lam_f * x for x in row] for row in ident])


def test_construction_identities():
    # HZ (L1 Vt) = HX (L2 Vt) = [I | lam_f I]; this is what turns the
    # syndrome into the failed node's content
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(77)
    for failed in range(1, 7):
        rest = [i for i in range(1, 7) if i != failed]
        for helpers in combinations(rest, 4):
            u = [rng.unit(13) for _ in range(4)]
            c = build_repair_css(params, failed, helpers, u)
            pts = [params.eval_points[s - 1] for s in c.helpers]
            vt = vandermonde(params.field, pts, 4)
            sel = _selector(params, c.failed_node)
            assert c.hz @ (diag(params.field, c.lam1) @ vt) == sel
            assert c.hx @ (diag(params.field, c.lam2) @ vt) == sel


def test_build_makes_4m_field_inversions(monkeypatch):
    # 1/lam1 = (lam_h - lam_f) / u reuses the inverses of u that u' takes:
    # m each for u, lam_h - lam_f, lam2 and the Vandermonde inverse's weights
    params = make_params(64, 20, 38, 67)
    rng = SplitMix64(5)
    calls = []
    real = GF.inv

    def counting(field, a):
        calls.append(a)
        return real(field, a)

    monkeypatch.setattr(GF, "inv", counting)
    for u in (None, [rng.unit(67) for _ in range(38)]):
        calls.clear()
        build_repair_css(params, 1, range(2, 40), u)
        assert len(calls) == 4 * 38 == 152


def test_dual_containment_exhaustive_with_random_u():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(13)
    for failed in range(1, 7):
        rest = [i for i in range(1, 7) if i != failed]
        for helpers in combinations(rest, 4):
            for _ in range(5):
                u = [rng.unit(13) for _ in range(4)]
                c = build_repair_css(params, failed, helpers, u)
                assert (c.hx @ c.hz.T).is_zero()


def test_u_scaling_leaves_identities_intact():
    params = make_params(7, 4, 6, 17)
    base = build_repair_css(params, 3, (1, 2, 4, 5, 6, 7))
    field = params.field
    for scale in (2, 5, 16):
        scaled = build_repair_css(
            params, 3, (1, 2, 4, 5, 6, 7), [field.mul(scale, x) for x in base.u]
        )
        assert scaled.lam1 != base.lam1
        assert check_dual_containment(scaled.hx, scaled.hz)
        pts = [params.eval_points[s - 1] for s in scaled.helpers]
        vt = vandermonde(field, pts, 6)
        sel = _selector(params, scaled.failed_node)
        assert scaled.hz @ (diag(field, scaled.lam1) @ vt) == sel
        assert scaled.hx @ (diag(field, scaled.lam2) @ vt) == sel


def test_u_times_u_prime_is_grs_weights():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(4)
    u = [rng.unit(13) for _ in range(4)]
    c = build_repair_css(params, 2, (1, 3, 5, 6), u)
    pts = [params.eval_points[s - 1] for s in c.helpers]
    w = grs_dual_weights(params.field, pts)
    assert [a * b % 13 for a, b in zip(c.u, c.u_prime)] == w


def test_build_rejects_bad_inputs():
    params = make_params(6, 3, 4, 13)
    with pytest.raises(InvalidHelperSet):
        build_repair_css(params, 1, (1, 2, 3, 4))  # failed among helpers
    with pytest.raises(InvalidHelperSet):
        build_repair_css(params, 1, (2, 3, 4))  # wrong count
    with pytest.raises(InvalidHelperSet):
        build_repair_css(params, 1, (2, 3, 4, 7))  # out of range
    with pytest.raises(InvalidHelperSet):
        build_repair_css(params, 0, (2, 3, 4, 5))
    with pytest.raises(ZeroU):
        build_repair_css(params, 1, (2, 4, 5, 6), (1, 0, 1, 1))
    with pytest.raises(ZeroU):
        build_repair_css(params, 1, (2, 4, 5, 6), (1, 13, 1, 1))
    with pytest.raises(ZeroU):
        build_repair_css(params, 1, (2, 4, 5, 6), (1, 1, 1))


def test_build_rejects_lam_collision_with_failed_node():
    # under relaxed params, a helper sharing lam with the failed node makes
    # the precoding denominators vanish
    relaxed = make_params(8, 3, 4, 13, allow_repeated_lambda=True)
    assert relaxed.lam[5] == relaxed.lam[6]  # nodes 6 and 7 collide
    with pytest.raises(InvalidHelperSet):
        build_repair_css(relaxed, 6, (1, 2, 7, 8))
    # a collision among the helpers themselves is fine
    c = build_repair_css(relaxed, 1, (5, 6, 7, 8))
    assert check_dual_containment(c.hx, c.hz)


def test_corrupted_construction_fails_closed(monkeypatch):
    # the StabGroup built inside build_repair_css is the only check left
    params = make_params(6, 3, 4, 13)
    real = qregen.css.vandermonde_inv

    def perturbed(field, points):
        v_inv = real(field, points)
        v_inv.data[0, 0] = (v_inv.data[0, 0] + 1) % field.p
        return v_inv

    monkeypatch.setattr(qregen.css, "vandermonde_inv", perturbed)
    with pytest.raises(DualContainmentViolated):
        build_repair_css(params, 1, (2, 4, 5, 6))


def test_repair_css_holds_its_checked_group():
    c = build_repair_css(make_params(6, 3, 4, 13), 1, (2, 4, 5, 6))
    assert isinstance(c.group, StabGroup)
    assert (c.hx, c.hz) == (c.group.x_type, c.group.z_type)


def test_check_dual_containment_trivia():
    one_row = Mat.from_rows(F13, [[1, 0]])
    assert not check_dual_containment(one_row, one_row)
    assert check_dual_containment(one_row, zeros(F13, 1, 2))
    with pytest.raises(DimensionMismatch):
        check_dual_containment(one_row, zeros(F13, 1, 3))


def test_css_json_shape():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    d = c.to_json_dict()
    assert list(d) == ["HX", "HZ", "Lam1", "Lam2", "u", "uPrime"]
