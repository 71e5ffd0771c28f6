"""Cold decode plans and cold repair codes, built from closed forms, equal
the ones built from the inverse Vandermonde matrix, dtype included."""

from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qregen.css import cache_bases
from qregen.errors import InvalidParams, NoValidPoints
from qregen.matrix import exact_dtype, vandermonde, vandermonde_inv
from qregen.pmcode import _compiled_plan, make_params

from caches import clear_caches
from linalg import int64_bound_primes

PLAN_FIELDS = ("phibar_t", "lam", "diff_inv", "top", "w", "w_recip")


def reference_plan(params, ids):
    """The decode plan's six arrays from ``vandermonde_inv`` on the ids'
    points: its first a0 rows are ``top`` and its last row is w."""
    field, a0 = params.field, params.alpha0
    pts = [params.eval_points[i - 1] for i in ids]
    lam = [params.lam[i - 1] for i in ids]
    diff_inv = [[field.inv(la - lb) if a != b else 0 for b, lb in enumerate(lam)]
                for a, la in enumerate(lam)]
    v_inv, w_recip = vandermonde_inv(field, pts)
    arrays = (vandermonde(field, pts, a0).data.T, [[x] for x in lam], diff_inv,
              v_inv[:-1], v_inv[-1], w_recip)
    return [np.array(a, dtype=exact_dtype(1, params.p)) for a in arrays]


def reference_blocks(params, failed, helper_sets):
    """The u-free blocks from ``vandermonde_inv`` on each helper set:
    HZ_1 = [I | lam_f I] Vt^(-1) diag(lam_h - lam_f), HX_1 = HZ_1 diag(1 / w),
    then lam1, lam2, u = 1 and u' = w."""
    field, p, a0 = params.field, params.p, params.alpha0
    lam_f = params.lam[failed - 1]
    v_inv, w_recip = zip(*(vandermonde_inv(field, [params.eval_points[s - 1] for s in hs])
                           for hs in helper_sets))
    v_inv = np.array(v_inv, dtype=object)
    rows = (len(helper_sets), 1, 2 * a0)
    denom = [(params.lam[s - 1] - lam_f) % p for hs in helper_sets for s in hs]
    denom_inv = np.array([field.inv(x) for x in denom], dtype=object).reshape(rows)
    selected = v_inv[:, :a0] + lam_f * v_inv[:, a0:]
    hz = selected * np.array(denom, dtype=object).reshape(rows) % p
    hx = hz * np.array(w_recip, dtype=object).reshape(rows) % p
    w = v_inv[:, -1:]
    ones = np.ones(rows, dtype=object)
    return np.concatenate([hx, hz, denom_inv, w * denom_inv % p, ones, w], 1)


@lru_cache(maxsize=None)
def primes_for(k):
    """Small primes, both sides of the table of inverses' cap 2^12, both
    sides of (p - 1)^2 < 2^63, 2^61 - 1, and both sides of the bounds of
    the plan's k and of the codes' 2k - 2."""
    return (13, 67, 4093, 4099, 3037000493, 3037000507, 2**61 - 1,
            *int64_bound_primes(k), *int64_bound_primes(2 * k - 2))


def only_ints(array):
    return all(type(x) is int for x in array.ravel())


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_cold_plans_and_blocks_equal_the_vandermonde_inverse_ones(data):
    k = data.draw(st.integers(2, 7))
    p = data.draw(st.sampled_from(primes_for(k)))
    n = data.draw(st.integers(2 * k - 1, 2 * k + 3))
    # a whole family: the T = C(2k, 2) sets of a (n, k, 2k) code, 28 at k = 4,
    # on the array path, and few enough for the cache to keep them all
    family = n > 2 * k and 3 <= k <= 4 and data.draw(st.booleans())
    points = None
    if p > 1000 and data.draw(st.booleans()):  # full-size points as well
        points = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n,
                                    unique=True))
    try:
        params = make_params(n, k, 2 * k if family else 2 * k - 2, p, points)
    except (InvalidParams, NoValidPoints):
        assume(False)
    clear_caches()

    ids = tuple(data.draw(st.permutations(range(1, n + 1)))[:k])  # in any order
    plan = _compiled_plan(params, ids)
    for name, want in zip(PLAN_FIELDS, reference_plan(params, ids)):
        got = getattr(plan, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tolist() == want.tolist(), name
        assert got.dtype == np.int64 or only_ints(got), name

    failed = data.draw(st.integers(1, n))
    others = [i for i in range(1, n + 1) if i != failed]
    if family:
        helpers = sorted(data.draw(st.permutations(others))[: 2 * k])
        sets = list(combinations(helpers, 2 * k - 2))
    else:
        helper_set = st.permutations(others).map(lambda s: tuple(sorted(s[: 2 * k - 2])))
        sets = data.draw(st.lists(helper_set, min_size=1, max_size=3, unique=True))
    got = np.stack(cache_bases(params, failed, sets))
    assert got.dtype == exact_dtype(1, p)  # the field's one dtype, as is the table's
    assert got.dtype == np.int64 or only_ints(got)
    assert got.tolist() == reference_blocks(params, failed, sets).tolist()


@pytest.mark.parametrize("p", [17, 4093, 4099, 3037000493, 3037000507, 2**61 - 1])
def test_a_cold_file_family_equals_the_vandermonde_inverse_blocks(p):
    # the T = 28 sets of one (12,4,8) file repair, built in one stack on the
    # array path, on both sides of the table's cap and of the int64 bound
    params = make_params(12, 4, 8, p)
    clear_caches()
    sets = [tuple(s) for s in (np.arange(2, 10)[params.family]).tolist()]
    got = np.stack(cache_bases(params, 1, sets))
    assert got.dtype == exact_dtype(1, p)
    assert got.dtype == np.int64 or only_ints(got)
    assert got.tolist() == reference_blocks(params, 1, sets).tolist()
