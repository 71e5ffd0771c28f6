"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exact field arithmetic (zero tolerance) except the
state-vector eigenvalue readout, which must sit within 1e-6 of an exact
root of unity.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

from qregen.cli import main
from qregen.css import build_repair_css, check_dual_containment
from qregen.matrix import exact_dtype
from qregen.pmcode import encode_file, make_params, random_symbols, retrieve_file
from qregen.reference import GOLDEN, replay
from qregen.repair import helper_encode, run_repair
from qregen.rng import SplitMix64
from qregen.stabilizer import (
    StabGroup,
    prepare_codespace,
    syndrome_linear,
    syndrome_statevector,
    syndrome_symplectic,
)
from qregen.tradeoff import classical_msr_bandwidth, optimal_point, quantum_sum

from groupgen import random_error, random_group
from sampling import sample


@contextmanager
def criterion(num, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    print(
        f"criterion {num}: {'PASS' if ok else 'FAIL'} {description} "
        f"({elapsed:.2f}s, limit {limit_s}s)"
    )
    assert ok, f"criterion {num} exceeded the {limit_s}s budget"


def same(syndrome, other, p):
    """Both (s_x, s_z) pairs are arrays in ``exact_dtype(1, p)``, the field's
    one dtype, and agree entry for entry."""
    arrays = (*syndrome, *other)
    return all(a.dtype == exact_dtype(1, p) for a in arrays) and (
        [a.tolist() for a in syndrome] == [a.tolist() for a in other]
    )


def all_repair_cases(n, d):
    for failed in range(1, n + 1):
        rest = [i for i in range(1, n + 1) if i != failed]
        yield from ((failed, hs) for hs in combinations(rest, d))


def test_criterion_1_golden_replay():
    with criterion(1, "reference-instance golden replay", 1.0):
        report = replay(seed=1)
        assert [r["name"] for r in report[:-1]] == list(GOLDEN)
        for record in report:
            assert record["pass"], record
        assert GOLDEN["lambda_tilde"] == [9, 7, 6, 3]
        assert GOLDEN["lambda_tilde_prime"] == [11, 5, 11, 2]
        assert GOLDEN["HX"] == [[11, 10, 3, 9], [4, 2, 1, 0]]
        assert GOLDEN["HZ"] == [[12, 9, 12, 6], [2, 7, 4, 0]]


def test_criterion_2_dual_containment():
    with criterion(2, "HX HZ^T = 0 across instances and random u", 5.0):
        params = make_params(6, 3, 4, 13)
        rng = SplitMix64(20)
        cases = list(all_repair_cases(6, 4))
        assert len(cases) == 30
        for failed, helpers in cases:
            for _ in range(20):
                u = [rng.unit(13) for _ in range(4)]
                c = build_repair_css(params, failed, helpers, u)
                assert check_dual_containment(c.hx, c.hz, 13)

        # (8,3,4,13) admits no distinct-lam assignment (six nonzero squares
        # mod 13), so eight nodes at k = 3 are exercised over GF(17)
        eight = make_params(8, 3, 4, 17)
        assert len(set(eight.lam)) == 8
        for _ in range(200):
            failed = 1 + rng.below(8)
            helpers = sample(rng, [i for i in range(1, 9) if i != failed], 4)
            u = [rng.unit(17) for _ in range(4)]
            c = build_repair_css(eight, failed, helpers, u)
            assert check_dual_containment(c.hx, c.hz, 17)

        big = make_params(7, 4, 6, 17)
        for _ in range(200):
            failed = 1 + rng.below(7)
            helpers = [i for i in range(1, 8) if i != failed]
            u = [rng.unit(17) for _ in range(6)]
            c = build_repair_css(big, failed, helpers, u)
            assert check_dual_containment(c.hx, c.hz, 17)


def test_criterion_3_exact_repair():
    with criterion(3, "exact regeneration with quditTotal = B/k", 10.0):
        params = make_params(6, 3, 4, 13)
        rng = SplitMix64(30)
        for failed, helpers in all_repair_cases(6, 4):
            for _ in range(20):
                storage = encode_file(params, random_symbols(params, rng))
                t = run_repair(params, storage, failed, helpers)
                assert [list(r) for r in t.regenerated[0]] == storage[0, failed - 1].tolist()
                assert t.qudit_total == params.B // params.k == 4

        big = make_params(7, 4, 6, 17)
        for _ in range(100):
            failed = 1 + rng.below(7)
            helpers = [i for i in range(1, 8) if i != failed]
            storage = encode_file(big, random_symbols(big, rng))
            t = run_repair(big, storage, failed, helpers)
            assert [list(r) for r in t.regenerated[0]] == storage[0, failed - 1].tolist()
            assert t.qudit_total == big.B // big.k == 6


def test_criterion_4_retrieval():
    with criterion(4, "any-3-of-6 retrieval, 50 random messages", 5.0):
        params = make_params(6, 3, 4, 13)
        rng = SplitMix64(40)
        subsets = list(combinations(range(1, 7), 3))
        assert len(subsets) == 20
        for _ in range(50):
            symbols = random_symbols(params, rng)
            storage = encode_file(params, symbols)
            for subset in subsets:
                assert list(retrieve_file(params, storage, subset)) == symbols


def test_criterion_5_backend_equivalence():
    with criterion(5, "linear = symplectic = statevector syndromes", 60.0):
        for p in (3, 5, 13):
            rng = SplitMix64(50 + p)
            for _ in range(1000):
                n_qudits = 2 + rng.below(5)
                r_x = 1 + rng.below(max(1, n_qudits - 1))
                group = random_group(p, n_qudits, r_x, rng)
                err = random_error(p, n_qudits, rng)
                want = syndrome_linear(group, *err)
                assert same(syndrome_symplectic(group, *err), want, p)

        # state-vector oracle on 5^2 of 5^4 basis states; every call raises
        # ResidualOutOfTolerance on an eigenvalue residual of 1e-6 or more
        rng = SplitMix64(51)
        group5 = random_group(5, 4, 2, rng)
        assert len(prepare_codespace(group5)[0]) == 25
        for _ in range(100):
            err = random_error(5, 4, rng)
            want = syndrome_linear(group5, *err)
            assert same(syndrome_statevector(group5, *err), want, 5)

        # state-vector oracle on the repair-time group, 13^2 of 13^4 basis states
        params = make_params(6, 3, 4, 13)
        c = build_repair_css(params, 1, (2, 4, 5, 6))
        group13 = StabGroup(x_type=c.hx, z_type=c.hz, p=13)
        assert len(prepare_codespace(group13)[0]) == 169
        for i in range(100):
            if i == 0:
                # the actual repair-time error vector for a random message
                storage = encode_file(params, random_symbols(params, rng))
                dots = helper_encode(params, storage, 1, c.helpers)[0]
                err = (
                    [lam * y for lam, y in zip(c.lam1, dots[:, 0])],
                    [lam * y for lam, y in zip(c.lam2, dots[:, 1])],
                )
            else:
                err = random_error(13, 4, rng)
            want = syndrome_linear(group13, *err)
            assert same(syndrome_statevector(group13, *err), want, 13)


def test_criterion_6_extension():
    with criterion(6, "sub-file extension at (6,2,3,13)", 5.0):
        ext = make_params(6, 2, 3, 13)
        assert ext.subfiles == comb(3, 2) == 3
        assert ext.B == 12 and ext.B // ext.k == 6
        subsets = ext.family
        per_slot = [sum(slot in s for s in subsets) for slot in range(ext.d)]
        assert per_slot == [comb(ext.d - 1, 2 * ext.k - 3)] * ext.d == [2, 2, 2]
        # the naive accounting of one qudit per helper per sub-file would
        # give d * C(d, 2k-2) = 9, which overshoots B/k = 6; the consistent
        # per-helper count is C(d-1, 2k-3)
        assert ext.d * ext.subfiles == 9 != ext.B // ext.k
        assert ext.subfiles * (2 * ext.k - 2) == ext.B // ext.k

        rng = SplitMix64(60)
        for failed, helpers in all_repair_cases(6, 3):
            for _ in range(20):
                storage = encode_file(ext, random_symbols(ext, rng))
                t = run_repair(ext, storage, failed, helpers)
                assert t.qudit_total == 6
                for sub, regen in zip(storage, t.regenerated):
                    assert [list(r) for r in regen] == sub[failed - 1].tolist()
                # payloads[t, :, j] is the qudit of t.css.helpers[t, j]
                assert t.payloads.shape == (3, 2, 2)
                per_helper = Counter(t.css.helpers.ravel().tolist())
                assert per_helper == {h: 2 for h in helpers}


def test_criterion_7_tradeoff():
    with criterion(7, "simultaneous optimum and classical comparison", 1.0):
        for k, d in ((2, 2), (3, 4), (4, 6), (10, 20)):
            for t in (1, 2, 3):
                b = k * d * t
                point = optimal_point(k, d, b)
                assert point.alpha == b // k
                assert point.d * point.beta == b // k
                assert quantum_sum(k, d, b // k, Fraction(b, k * d)) == b
        for t in (1, 2, 3):
            b = 10 * 20 * t
            classical = classical_msr_bandwidth(10, 20, b)
            quantum = Fraction(b, 10)
            assert classical / quantum == Fraction(20, 11)
            # download drops from the whole file B to B/5.5
            assert Fraction(b) / classical == Fraction(110, 20) > 5


def test_criterion_8_post_repair_health():
    with criterion(8, "retrieval through regenerated nodes", 10.0):
        params = make_params(6, 3, 4, 13)
        rng = SplitMix64(80)
        for failed, helpers in all_repair_cases(6, 4):
            for _ in range(20):
                symbols = random_symbols(params, rng)
                refreshed = encode_file(params, symbols)
                t = run_repair(params, refreshed, failed, helpers)
                refreshed[:, failed - 1] = 0  # the lost node's rows are gone
                refreshed[:, failed - 1] = t.regenerated
                for subset in combinations(range(1, 7), 3):
                    if failed not in subset:
                        continue
                    assert list(retrieve_file(params, refreshed, subset)) == symbols

        big = make_params(7, 4, 6, 17)
        for _ in range(100):
            failed = 1 + rng.below(7)
            helpers = [i for i in range(1, 8) if i != failed]
            symbols = random_symbols(big, rng)
            refreshed = encode_file(big, symbols)
            t = run_repair(big, refreshed, failed, helpers)
            refreshed[:, failed - 1] = 0  # the lost node's rows are gone
            refreshed[:, failed - 1] = t.regenerated
            for subset in combinations(range(1, 8), 4):
                if failed not in subset:
                    continue
                assert list(retrieve_file(big, refreshed, subset)) == symbols


def test_exhaustive_sweep_of_the_28_subfile_instance(capsys):
    # every repair of (12,4,8,17), each with a fresh random u for its 28
    # sub-files, and every retrieval, in one in-process pass
    code = main(["sweep", "--n", "12", "--k", "4", "--d", "8", "--prime", "17", "--trials", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["failures"] == 0
    assert summary["quditTotal"] == {"min": 168, "max": 168, "expected": 168}
