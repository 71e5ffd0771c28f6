"""Repair-time CSS construction: goldens, dual containment, identities."""

from itertools import combinations, islice

import numpy as np
import pytest

import qregen.css
import qregen.gf
import qregen.repair
from qregen.css import (
    RepairCSS,
    build_repair_css,
    check_dual_containment,
    check_helpers,
    grs_dual_weights,
)
from qregen.errors import (
    DimensionMismatch,
    DualContainmentViolated,
    InvalidHelperSet,
    RepeatedPoint,
    ZeroU,
)
from qregen.gf import GF
from qregen.matrix import Mat, exact_dtype, vandermonde
from qregen.pmcode import encode_file, make_params, random_symbols
from qregen.repair import run_repair
from qregen.rng import SplitMix64

from caches import clear_caches
from documents import css_doc
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
        assert wa == f.inv((a - b) % 101)
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
                assert sum(wj * pow(v, m, p) for wj, v in zip(w, pts)) % p == 0
            assert sum(wj * pow(v, d - 1, p) for wj, v in zip(w, pts)) % p != 0


def test_grs_weights_repeated_point():
    with pytest.raises(RepeatedPoint):
        grs_dual_weights(F13, (2, 4, 4, 6))


def test_build_reference_instance_goldens():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    assert c.lam1.tolist() == [9, 7, 6, 3]
    assert c.lam2.tolist() == [11, 5, 11, 2]
    assert c.block.dtype == exact_dtype(1, 13)
    assert c.hx.tolist() == [[11, 10, 3, 9], [4, 2, 1, 0]]
    assert c.hz.tolist() == [[12, 9, 12, 6], [2, 7, 4, 0]]
    assert c.u.tolist() == [1, 1, 1, 1]
    assert c.u_prime.tolist() == [7, 10, 4, 5]
    assert params.lam[c.failed_node - 1] == 1
    assert check_dual_containment(c.hx, c.hz, 13)
    assert c.block[-4:-2].all()  # lam1 and lam2 have no zero entry


def as_mat(field, array):
    """The Mat of a parity check, once it is known to hold ints in [0, p)
    in ``exact_dtype(1, p)``, which list as Python ints."""
    assert array.dtype == exact_dtype(1, field.p)
    rows = array.tolist()
    assert all(type(x) is int and 0 <= x < field.p for row in rows for x in row)
    return Mat.from_rows(field, rows)


def diag(field, entries):
    entries, n = [int(e) for e in entries], len(entries)
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
    # above the table cap a cold build inverts the m GRS weights'
    # reciprocals, which lagrange_folds hands back, in one batch, then
    # every lam_h - lam_f in one batch; a u costs one more batch, and a
    # warm build inverts only its u. At or below it every batch is a gather
    # from the field's table, whose one inversion a cold build pays
    rng = SplitMix64(5)
    calls = count_field_inversions(monkeypatch)
    for p, counts in ((67, ((False, 1, 0), (True, 1, 0))),
                      (4099, ((False, 2, 0), (True, 3, 1)))):
        params = make_params(64, 20, 38, p)
        for warm in (False, True):
            u = [rng.unit(p) for _ in range(38)]  # a new u in each pass
            for with_u, cold_count, warm_count in counts:
                if not warm:
                    clear_caches()
                calls.clear()
                build_repair_css(params, 1, range(2, 40), u if with_u else None)
                assert len(calls) == (warm_count if warm else cold_count)


@pytest.mark.parametrize("n,k,d,p", [
    (6, 3, 4, 13), (6, 2, 3, 13), (12, 4, 8, 17), (6, 3, 4, 4099), (12, 4, 8, 4099),
])
def test_file_repair_with_u_makes_one_more_field_inversion(monkeypatch, n, k, d, p):
    # above the table cap one u scales the whole stack of T codes after one
    # batched inversion, cold or warm, whatever T is; at or below it the u
    # is a gather too, and a cold repair's one inversion is the table's
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(p)))
    helpers, u = tuple(range(2, d + 2)), [3] * (2 * k - 2)
    calls = count_field_inversions(monkeypatch)
    table = p <= qregen.gf._TABLE_CAP
    for cold in (True, False):
        counts = []
        for u_or_none in (None, u):
            if cold:
                clear_caches()
            calls.clear()
            run_repair(params, storage, 1, helpers, u_or_none)
            counts.append(len(calls))
        if table:
            assert counts == ([1, 1] if cold else [0, 0])
        else:
            assert counts == ([2, 3] if cold else [0, 1])


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
        assert css_doc(cached) == css_doc(fresh)
        assert (cached.failed_node, cached.helpers) == (fresh.failed_node, fresh.helpers)
        for a, b in ((cached.hx, fresh.hx), (cached.hz, fresh.hz)):
            assert a.dtype == b.dtype == exact_dtype(1, p)
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
                assert not (as_mat(field, c.hx) @ as_mat(field, c.hz).T).data.any()


def test_u_scaling_leaves_identities_intact():
    params = make_params(7, 4, 6, 17)
    base = build_repair_css(params, 3, (1, 2, 4, 5, 6, 7))
    field = params.field
    for scale in (2, 5, 16):
        scaled = build_repair_css(
            params, 3, (1, 2, 4, 5, 6, 7), [scale * x % 17 for x in base.u]
        )
        assert scaled.lam1.tolist() != base.lam1.tolist()
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
        build_repair_css(params, 1, (0, 2, 3, 4))  # helper 0 reads node 6's point
    with pytest.raises(InvalidHelperSet):
        build_repair_css(params, 0, (2, 3, 4, 5))
    with pytest.raises(ZeroU):
        build_repair_css(params, 1, (2, 4, 5, 6), (1, 0, 1, 1))
    with pytest.raises(ZeroU):
        build_repair_css(params, 1, (2, 4, 5, 6), (1, 13, 1, 1))
    with pytest.raises(ZeroU):
        build_repair_css(params, 1, (2, 4, 5, 6), (1, 1, 1))


def test_a_cold_build_refuses_unchecked_keys():
    # helper 0 would read node 6's point, failed node 7 no point at all; a
    # miss checks its key before the builder sees it, so nothing is cached
    params = make_params(6, 3, 4, 13)
    clear_caches()
    for failed, helpers in ((1, (0, 2, 3, 4)), (7, (1, 2, 3, 4))):
        with pytest.raises(InvalidHelperSet):
            build_repair_css(params, failed, helpers)
        assert len(qregen.css._BASES) == 0


def test_corrupted_construction_fails_closed(monkeypatch):
    # the stacked StabGroup in _admit checks every basis before it is
    # cached; a warm build_repair_css checks nothing itself. Any one wrong
    # entry of helper 2's row of the powers table (1, v, v^2 = lam, v^3)
    # breaks HX_1 HZ_1^T = 0
    clear_caches()
    params = make_params(6, 3, 4, 13)
    table = params.powers
    for e in range(4):
        bad = table.copy()
        bad[1, e] = (bad[1, e] + 1) % 13
        monkeypatch.setitem(params.__dict__, "powers", bad)
        for _ in range(2):  # a failed first build of a key caches nothing
            with pytest.raises(DualContainmentViolated):
                build_repair_css(params, 1, (2, 4, 5, 6))
            assert len(qregen.css._BASES) == 0
    monkeypatch.undo()
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    assert check_dual_containment(c.hx, c.hz, 13)
    assert list(qregen.css._BASES) == [(params, 1, (2, 4, 5, 6))]


def test_repair_css_fields_are_views_of_its_block():
    # rows HX, HZ, lam1, lam2, u, u' of one code, or of a stack of codes
    params = make_params(12, 4, 8, 17)
    storage = encode_file(params, random_symbols(params, SplitMix64(9)))
    one = build_repair_css(params, 1, (2, 3, 4, 5, 6, 7), [5] * 6)
    stack, u_free = (run_repair(params, storage, 1, range(2, 10), u).css for u in ([5] * 6, None))
    assert (u_free.u == 1).all()
    for c, lead in ((one, ()), (stack, (28,)), (u_free, (28,))):
        assert c.block.shape == lead + (10, 6) and c.p == 17
        assert not c.block.flags.writeable
        fields = (c.hx, c.hz, c.lam1, c.lam2, c.u, c.u_prime)
        assert [f.shape for f in fields] == [lead + (3, 6)] * 2 + [lead + (6,)] * 4
        assert all(np.shares_memory(f, c.block) for f in fields)
        rows = np.concatenate([c.hx, c.hz, np.stack(fields[2:], -2)], -2)
        assert rows.tolist() == c.block.tolist()
    assert (one.u == 5).all() and (stack.u == 5).all()
    assert stack.helpers.shape == (28, 6)
    assert one.helpers == (2, 3, 4, 5, 6, 7) == tuple(stack.helpers[0].tolist())


def test_u_free_builds_share_the_cached_read_only_arrays():
    # the cache holds the finished code, which every u-free build returns
    params = make_params(12, 4, 8, 17)
    helpers = (2, 3, 4, 5, 6, 7)
    c = build_repair_css(params, 1, helpers)
    assert qregen.css._BASES[params, 1, helpers] is c
    assert build_repair_css(params, 1, helpers) is c
    block = c.block
    for array in (block, c.hx, c.hz):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
        with pytest.raises(ValueError):
            array.flags.writeable = True  # a view of the read-only stack
    scaled = build_repair_css(params, 1, helpers, [2] * 6)
    assert scaled is not c and not np.shares_memory(scaled.block, block)
    assert not (scaled.hx == c.hx).all()
    assert not scaled.block.flags.writeable


def file_setup(p=17):
    """(12,4,8,p) params, its 28-sub-file storage and 8 helpers of node 1."""
    params = make_params(12, 4, 8, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(19)))
    return params, storage, tuple(range(2, 10))


def test_file_repair_field_inversions_cold_and_warm(monkeypatch):
    # the bases a repair lacks are built in one batch: above the table cap,
    # one inversion of all their GRS weights' reciprocals from
    # lagrange_folds and one of every lam_h - lam_f, however many sub-files
    # are cold; at or below it only gathers, after the one inversion that
    # builds the field's table, which a prewarming build has already paid.
    # A warm repair inverts nothing
    calls = count_field_inversions(monkeypatch)
    for p in (17, 4099):
        params, storage, helpers = file_setup(p)
        for prewarmed in ((), helpers[:6], helpers[2:]):
            clear_caches()
            if prewarmed:
                build_repair_css(params, 1, prewarmed)
            calls.clear()
            run_repair(params, storage, 1, helpers)
            if p <= qregen.gf._TABLE_CAP:
                assert len(calls) == (0 if prewarmed else 1)
            else:
                assert len(calls) == 2
            calls.clear()
            run_repair(params, storage, 1, helpers)
            assert calls == []


def test_a_warm_file_repair_checks_its_helpers_once(monkeypatch):
    # only a checked key enters the cache, and the T subsets of the d
    # helpers a repair has checked are admitted as they are: a cold file
    # repair checks once, as a warm one does
    calls = []

    def counted(*args):
        calls.append(args)
        return check_helpers(*args)

    monkeypatch.setattr(qregen.css, "check_helpers", counted)
    monkeypatch.setattr(qregen.repair, "check_helpers", counted)
    params, storage, helpers = file_setup()
    clear_caches()
    run_repair(params, storage, 1, helpers)
    assert calls == [(params, 1, helpers, 8)]
    assert len(qregen.css._BASES) == params.subfiles
    calls.clear()
    run_repair(params, storage, 1, helpers)
    assert calls == [(params, 1, helpers, 8)]


@pytest.mark.parametrize("n,k,d,p", [
    (6, 3, 4, 13), (12, 4, 8, 17), (64, 20, 38, 67), (8, 3, 5, 2**61 - 1),
])
def test_file_repair_stacks_the_single_builds(n, k, d, p):
    # the file's one scaled stack is the T blocks that T single builds with
    # the same u make, sub-file t through its colex subset of the helpers
    params = make_params(n, k, d, p)
    rng = SplitMix64(k + p)
    storage = encode_file(params, random_symbols(params, rng))
    helpers = tuple(range(2, d + 2))
    for _ in range(2):
        u = [rng.unit(p) for _ in range(2 * k - 2)]
        css = run_repair(params, storage, 1, helpers, u).css
        colex = sorted(combinations(helpers, 2 * k - 2), key=lambda s: s[::-1])
        singles = [build_repair_css(params, 1, hs, u) for hs in colex]
        assert css.helpers.tolist() == [list(hs) for hs in colex]
        assert css.block.shape == (params.subfiles, 2 * k + 2, 2 * k - 2)
        assert css.block.dtype == exact_dtype(1, p)
        assert css.block.tolist() == np.stack([c.block for c in singles]).tolist()
        assert (css.failed_node, css.p) == (1, p)


def test_a_full_cache_keeps_the_bases_a_repair_finds(monkeypatch):
    # the bases a repair finds become the most recent before its cold ones
    # are added, so none is evicted before its build uses it; the cold ones
    # take two batched inversions above the table cap, and only gathers at
    # or below it, the first build having built the field's table
    calls = count_field_inversions(monkeypatch)
    for p in (17, 4099):
        params, storage, helpers = file_setup(p)
        bound = 16 * params.subfiles
        clear_caches()
        build_repair_css(params, 1, helpers[:6])  # the oldest entry
        others = combinations([i for i in range(1, 13) if i != 2], 6)
        for hs in islice(others, bound - 1):
            build_repair_css(params, 2, hs)
        assert len(qregen.css._BASES) == bound
        calls.clear()
        t = run_repair(params, storage, 1, helpers)
        assert len(calls) == (0 if p <= qregen.gf._TABLE_CAP else 2)
        assert len(qregen.css._BASES) == bound
        keys = [(params, 1, tuple(h)) for h in t.css.helpers.tolist()]
        assert list(qregen.css._BASES)[-28:] == keys


@pytest.mark.parametrize("mode", ["linear", "symplectic"])
def test_every_repair_rechecks_its_codes(mode):
    # a cached code that stopped commuting is caught by the repair's own
    # stacked check, although the build that hands it out checks nothing;
    # its block, a view of a read-only stack, cannot be written, so the
    # entry is replaced by a code over a corrupted read-only copy
    params, storage, helpers = file_setup()
    clear_caches()
    t = run_repair(params, storage, 1, helpers, mode=mode)
    key = (params, 1, tuple(t.css.helpers[5].tolist()))
    bad = qregen.css._BASES[key].block.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 17  # HX first
    bad.flags.writeable = False
    try:
        qregen.css._BASES[key] = RepairCSS(1, key[2], bad, 17)
        with pytest.raises(DualContainmentViolated):
            run_repair(params, storage, 1, helpers, mode=mode)
        with pytest.raises(DualContainmentViolated):
            run_repair(params, storage, 1, helpers, u=[3] * 6, mode=mode)
    finally:
        clear_caches()


def test_check_dual_containment_trivia():
    one_row = np.array([[1, 0]], dtype=object)
    assert not check_dual_containment(one_row, one_row, 13)
    assert check_dual_containment(one_row, np.zeros((1, 2), dtype=object), 13)
    with pytest.raises(DimensionMismatch):
        check_dual_containment(one_row, np.zeros((1, 3), dtype=object), 13)


def test_css_json_shape():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    d = css_doc(c)
    assert list(d) == ["HX", "HZ", "Lam1", "Lam2", "u", "uPrime"]
