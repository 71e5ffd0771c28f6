"""Repair-time CSS construction: goldens, dual containment, identities."""

from itertools import combinations, islice

import numpy as np
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

from caches import clear_caches
from linalg import grs_weights
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
            assert w == grs_weights(f, pts)
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
    assert c.hx.dtype == c.hz.dtype == object
    assert c.hx.tolist() == [[11, 10, 3, 9], [4, 2, 1, 0]]
    assert c.hz.tolist() == [[12, 9, 12, 6], [2, 7, 4, 0]]
    assert c.u == (1, 1, 1, 1)
    assert c.u_prime == (7, 10, 4, 5)
    assert params.lam[c.failed_node - 1] == 1
    assert check_dual_containment(c.hx, c.hz, 13)
    assert all(x != 0 for x in c.lam1 + c.lam2)


def as_mat(field, array):
    """The Mat of a parity check, once it is known to hold Python ints in
    [0, p) in an object array."""
    assert array.dtype == object
    assert all(type(x) is int and 0 <= x < field.p for x in array.ravel())
    return Mat.from_array(field, array)


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
            assert as_mat(params.field, c.hz) @ (diag(params.field, c.lam1) @ vt) == sel
            assert as_mat(params.field, c.hx) @ (diag(params.field, c.lam2) @ vt) == sel


def count_field_inversions(monkeypatch):
    """The list that every later GF.inv call appends its argument to."""
    calls = []
    real = GF.inv

    def counting(field, a):
        calls.append(a)
        return real(field, a)

    monkeypatch.setattr(GF, "inv", counting)
    return calls


def test_build_field_inversions_cold_and_warm(monkeypatch):
    # a cold build inverts the m GRS weights in one batch inside
    # vandermonde_inv, which hands back their reciprocals, then every
    # lam_h - lam_f in one batch; u costs one more batch. A warm build
    # inverts only u
    params = make_params(64, 20, 38, 67)
    u = [SplitMix64(5).unit(67) for _ in range(38)]
    calls = count_field_inversions(monkeypatch)
    for warm in (False, True):
        for u_or_none, cold_count, warm_count in ((None, 2, 0), (u, 3, 1)):
            if not warm:
                clear_caches()
            calls.clear()
            build_repair_css(params, 1, range(2, 40), u_or_none)
            assert len(calls) == (warm_count if warm else cold_count)


@pytest.mark.parametrize("n,k,d,p", [
    (6, 3, 4, 13), (12, 4, 8, 17), (64, 20, 38, 67), (6, 3, 4, 2**61 - 1),
])
def test_cached_build_equals_fresh_build(n, k, d, p):
    # HX_u = HX_1 diag(u) and HZ_u = HZ_1 diag(1 / u) off the cached basis
    params = make_params(n, k, d, p)
    rng = SplitMix64(n + p)
    helpers = tuple(range(2, 2 * k))
    for _ in range(3):
        u = [rng.unit(p) for _ in range(2 * k - 2)]
        clear_caches()
        fresh = build_repair_css(params, 1, helpers, u)
        build_repair_css(params, 1, helpers)  # the key stays warm
        cached = build_repair_css(params, 1, helpers, u)
        assert len(qregen.css._BASES) == 1
        assert cached.to_json_dict() == fresh.to_json_dict()
        assert (cached.failed_node, cached.helpers) == (fresh.failed_node, fresh.helpers)
        for a, b in ((cached.hx, fresh.hx), (cached.hz, fresh.hz)):
            assert a.dtype == b.dtype == object
            assert a.tolist() == b.tolist()


@pytest.mark.parametrize("n,k,d,p", [(7, 3, 4, 17), (12, 4, 8, 17)])
def test_basis_cache_holds_16_repairs(n, k, d, p):
    # the bound is 16 T entries, T the sub-files of one file repair
    params = make_params(n, k, d, p)
    bound = 16 * params.subfiles
    clear_caches()
    keys = ((failed, helpers) for failed in range(1, n + 1)
            for helpers in combinations(
                [i for i in range(1, n + 1) if i != failed], 2 * k - 2))
    for failed, helpers in islice(keys, 3 * bound):
        build_repair_css(params, failed, helpers)
        assert len(qregen.css._BASES) <= bound
    assert len(qregen.css._BASES) == bound


def test_dual_containment_exhaustive_with_random_u():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(13)
    for failed in range(1, 7):
        rest = [i for i in range(1, 7) if i != failed]
        for helpers in combinations(rest, 4):
            for _ in range(5):
                u = [rng.unit(13) for _ in range(4)]
                c = build_repair_css(params, failed, helpers, u)
                field = params.field
                assert (as_mat(field, c.hx) @ as_mat(field, c.hz).T).is_zero()


def test_u_scaling_leaves_identities_intact():
    params = make_params(7, 4, 6, 17)
    base = build_repair_css(params, 3, (1, 2, 4, 5, 6, 7))
    field = params.field
    for scale in (2, 5, 16):
        scaled = build_repair_css(
            params, 3, (1, 2, 4, 5, 6, 7), [field.mul(scale, x) for x in base.u]
        )
        assert scaled.lam1 != base.lam1
        assert check_dual_containment(scaled.hx, scaled.hz, 17)
        pts = [params.eval_points[s - 1] for s in scaled.helpers]
        vt = vandermonde(field, pts, 6)
        sel = _selector(params, scaled.failed_node)
        assert as_mat(field, scaled.hz) @ (diag(field, scaled.lam1) @ vt) == sel
        assert as_mat(field, scaled.hx) @ (diag(field, scaled.lam2) @ vt) == sel


def test_u_times_u_prime_is_grs_weights():
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(4)
    u = [rng.unit(13) for _ in range(4)]
    c = build_repair_css(params, 2, (1, 3, 5, 6), u)
    pts = [params.eval_points[s - 1] for s in c.helpers]
    w = grs_weights(params.field, pts)
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


def test_corrupted_construction_fails_closed(monkeypatch):
    # the StabGroup built inside build_repair_css is the only check left
    clear_caches()
    params = make_params(6, 3, 4, 13)
    real = qregen.css.vandermonde_inv

    def perturbed(field, points):
        v_inv, w_recip = real(field, points)
        v_inv[0, 0] = (v_inv[0, 0] + 1) % field.p
        return v_inv, w_recip

    monkeypatch.setattr(qregen.css, "vandermonde_inv", perturbed)
    for _ in range(2):  # a failed first build of a key caches nothing
        with pytest.raises(DualContainmentViolated):
            build_repair_css(params, 1, (2, 4, 5, 6))
        assert len(qregen.css._BASES) == 0
    monkeypatch.undo()
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    assert check_dual_containment(c.hx, c.hz, 13)
    assert list(qregen.css._BASES) == [(params, 1, (2, 4, 5, 6))]


def test_repair_css_holds_its_checked_group():
    c = build_repair_css(make_params(6, 3, 4, 13), 1, (2, 4, 5, 6))
    assert isinstance(c.group, StabGroup)
    assert c.hx is c.group.x_type and c.hz is c.group.z_type
    assert c.group.p == 13


def test_check_dual_containment_trivia():
    one_row = np.array([[1, 0]], dtype=object)
    assert not check_dual_containment(one_row, one_row, 13)
    assert check_dual_containment(one_row, np.zeros((1, 2), dtype=object), 13)
    with pytest.raises(DimensionMismatch):
        check_dual_containment(one_row, np.zeros((1, 3), dtype=object), 13)


def test_css_json_shape():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    d = c.to_json_dict()
    assert list(d) == ["HX", "HZ", "Lam1", "Lam2", "u", "uPrime"]
