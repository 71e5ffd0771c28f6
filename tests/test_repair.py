"""Repair protocol: payload locality, exact regeneration, sub-files, accounting."""

from fractions import Fraction
from itertools import combinations

import pytest

import qregen.stabilizer
from qregen.errors import InvalidHelperSet, ModeUnavailable, RegenerationMismatch
from qregen.matrix import Mat
from qregen.pmcode import (
    encode_file,
    make_params,
    random_symbols,
    retrieve_file,
)
from qregen.repair import (
    MODES,
    bandwidth_report,
    helper_encode,
    plan_subfiles,
    run_repair,
)
from qregen.rng import SplitMix64


def node_rows(stored, node):
    """Node ``node``'s (row_m, row_mp) in one sub-file's storage, as tuples."""
    return tuple(map(tuple, stored[node - 1].tolist()))


def reference_setup(seed=1):
    """(6,3,4,13) params, a random message and its one-sub-file storage."""
    params = make_params(6, 3, 4, 13)
    rng = SplitMix64(seed)
    symbols = random_symbols(params, rng)
    storage = encode_file(params, symbols)
    return params, symbols, storage


def one_helper_dots(params, failed, rows):
    """Reference for one helper: (row_m . vbar_f, row_mp . vbar_f) mod p in
    pure Python ints, from that node's two rows alone."""
    p, v_f = params.p, params.eval_points[failed - 1]
    vbar_f = [pow(v_f, e, p) for e in range(params.alpha0)]
    return tuple(sum(x * v for x, v in zip(row, vbar_f, strict=True)) % p for row in rows)


def test_helper_encode_sparse_message_golden():
    # message with only the first symbol set: node 2 then stores rows
    # (1, 0) and (0, 0), so helper 2 dots them to (1, 0) and its payload is
    # (lam1_2 * 1, 0) = (9, 0)
    params = make_params(6, 3, 4, 13)
    storage = encode_file(params, [1] + [0] * 11)
    assert node_rows(storage[0], 2) == ((1, 0), (0, 0))
    dots = helper_encode(params, storage, 1, (2, 4, 5, 6))
    assert dots.shape == (1, 4, 2)
    assert tuple(dots[0, 0]) == (1, 0)
    t = run_repair(params, storage, 1, (2, 4, 5, 6))
    assert t.payloads[0, :, 0].tolist() == [9, 0]
    payload = t.to_json_dict()["payloads"][0]
    assert payload == {"helperId": 2, "yX": 9, "yZ": 0, "quditsSent": 1}


def test_helper_encode_zero_storage():
    params = make_params(6, 3, 4, 13)
    storage = encode_file(params, [0] * 12)
    assert helper_encode(params, storage, 1, (2, 4, 5, 6)).tolist() == [[[0, 0]] * 4]


def test_helper_encode_scales_with_message():
    params, symbols, storage = reference_setup(2)
    doubled = encode_file(params, [2 * s % 13 for s in symbols])
    helpers = (1, 2, 5, 6)
    base = helper_encode(params, storage, 3, helpers)
    scaled = helper_encode(params, doubled, 3, helpers)
    assert (scaled == 2 * base % 13).all()
    assert base.any()


@pytest.mark.parametrize("n,k,d,p", [(6, 3, 4, 13), (12, 4, 8, 17)])
def test_helper_encode_reads_only_helper_rows(n, k, d, p):
    # the failed node's rows and every non-helper's rows can change freely
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(17)))
    failed, helpers = 2, tuple(range(n - d + 1, n + 1))
    before = helper_encode(params, storage, failed, helpers)
    changed = storage.copy()
    for node in range(1, n + 1):
        if node not in helpers:
            changed[:, node - 1] = (changed[:, node - 1] + 1 + node) % p
    assert (changed != storage).any()
    assert (helper_encode(params, changed, failed, helpers) == before).all()


@pytest.mark.parametrize("n,k,d,p", [
    (6, 3, 4, 13), (6, 2, 3, 13), (12, 4, 8, 17), (64, 20, 38, 67), (6, 3, 4, 2**61 - 1),
])
def test_helper_encode_matches_one_helper_reference(n, k, d, p):
    # the last set multiplies on Python ints, as K (p - 1)^2 >= 2^63 there
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(n + p)))
    failed, helpers = n, tuple(range(1, d + 1))
    dots = helper_encode(params, storage, failed, helpers)
    assert dots.shape == (params.subfiles, d, 2)
    assert all(type(x) is int for x in dots.ravel())
    for t in range(params.subfiles):
        for j, h in enumerate(helpers):
            ref = one_helper_dots(params, failed, storage[t, h - 1].tolist())
            assert tuple(dots[t, j]) == ref
    # each payload is lam1 and lam2 times the dots of its own node's rows
    transcript = run_repair(params, storage, failed, helpers)
    assert transcript.payloads.shape == (params.subfiles, 2, 2 * k - 2)
    for t, (css, sent) in enumerate(zip(transcript.css, transcript.payloads)):
        for j, node in enumerate(css.helpers):
            own_m, own_mp = one_helper_dots(params, failed, storage[t, node - 1].tolist())
            assert sent[:, j].tolist() == [css.lam1[j] * own_m % p, css.lam2[j] * own_mp % p]


def test_run_repair_exhaustive_reference_instance():
    params, _, _ = reference_setup()
    rng = SplitMix64(3)
    for trial in range(5):
        symbols = random_symbols(params, rng)
        storage = encode_file(params, symbols)
        for failed in range(1, 7):
            rest = [i for i in range(1, 7) if i != failed]
            for helpers in combinations(rest, 4):
                t = run_repair(params, storage, failed, helpers)
                assert t.regenerated.tolist() == storage[:, failed - 1].tolist()
                assert t.qudit_total == 4 == params.B // params.k


def test_run_repair_mode_equivalence():
    params, _, storage = reference_setup(4)
    transcripts = [
        run_repair(params, storage, 2, (1, 3, 4, 6), mode=mode) for mode in MODES
    ]
    for t in transcripts[1:]:
        assert t.payloads.tolist() == transcripts[0].payloads.tolist()
        assert t.regenerated.tolist() == transcripts[0].regenerated.tolist()


def test_run_repair_payload_locality():
    # every payload must be recomputable from that single node's storage
    params, _, storage = reference_setup(5)
    t = run_repair(params, storage, 5, (1, 2, 3, 6))
    (css,), (payloads,) = t.css, t.payloads
    assert css.helpers == (1, 2, 3, 6)
    assert payloads.shape == (2, 4)
    for j, node in enumerate(css.helpers):
        own_m, own_mp = one_helper_dots(params, 5, storage[0, node - 1].tolist())
        solo = [css.lam1[j] * own_m % 13, css.lam2[j] * own_mp % 13]
        assert payloads[:, j].tolist() == solo


def test_run_repair_validation():
    params, _, storage = reference_setup(6)
    with pytest.raises(InvalidHelperSet):
        run_repair(params, storage, 1, (1, 2, 3, 4))
    with pytest.raises(InvalidHelperSet):
        run_repair(params, storage, 1, (2, 3, 4))
    bad_shapes = (storage[0], storage[:, :5], storage[..., :1], storage[None])
    for bad in bad_shapes:
        with pytest.raises(InvalidHelperSet):
            run_repair(params, bad, 1, (2, 3, 4, 5))
    with pytest.raises(ModeUnavailable):
        run_repair(params, storage, 1, (2, 3, 4, 5), mode="nope")
    # checked first: node 0 would read node n's point, and node n + 1 none
    for failed in (0, 7, -1):
        with pytest.raises(InvalidHelperSet, match=f"^failed node {failed} out of range$"):
            run_repair(params, storage, failed, (1, 2, 3, 4), mode="nope")


def test_run_repair_statevector_unavailable_when_too_big():
    params = make_params(11, 6, 10, 17)  # 5 X generators: 17^5 is over the limit
    rng = SplitMix64(7)
    storage = encode_file(params, random_symbols(params, rng))
    with pytest.raises(ModeUnavailable, match=r"17\^5 amplitudes"):
        run_repair(params, storage, 1, tuple(range(2, 12)), mode="statevector")


def test_run_repair_detects_tampered_helper():
    params, _, storage = reference_setup(8)
    tampered = storage.copy()
    tampered[0, 3, 0] = (tampered[0, 3, 0] + 1) % 13  # node 4's row_m
    with pytest.raises(RegenerationMismatch):
        run_repair(params, tampered, 1, (2, 4, 5, 6))


def test_tampered_helper_row_names_its_subfile():
    # (6,2,3,13) with helpers (2, 3, 5): sub-file 1 repairs through slots
    # (0, 2), so node 5 sends in it and node 3 does not
    ext = make_params(6, 2, 3, 13)
    storage = encode_file(ext, random_symbols(ext, SplitMix64(19)))
    tampered = storage.copy()
    tampered[1, 2, 0, 0] = (tampered[1, 2, 0, 0] + 1) % 13  # node 3's row_m
    t = run_repair(ext, tampered, 1, (2, 3, 5))
    assert t.regenerated.tolist() == storage[:, 0].tolist()
    tampered[1, 4, 0, 0] = (tampered[1, 4, 0, 0] + 1) % 13  # node 5's row_m
    with pytest.raises(RegenerationMismatch, match="^sub-file 1: node 1 repaired to "):
        run_repair(ext, tampered, 1, (2, 3, 5))


def test_repaired_node_reenters_retrieval():
    params, symbols, storage = reference_setup(9)
    for failed in range(1, 7):
        rest = [i for i in range(1, 7) if i != failed]
        for helpers in combinations(rest, 4):
            t = run_repair(params, storage, failed, helpers)
            refreshed = storage.copy()
            refreshed[:, failed - 1] = 0  # the lost node's rows are gone
            refreshed[:, failed - 1] = t.regenerated
            for subset in combinations(range(1, 7), 3):
                if failed not in subset:
                    continue
                assert list(retrieve_file(params, refreshed, subset)) == symbols


def per_slot_counts(params):
    """How many sub-files each helper slot joins."""
    subsets = plan_subfiles(params)
    return [sum(slot in s for s in subsets) for slot in range(params.d)]


def test_plan_subfiles_counts():
    ext = make_params(6, 2, 3, 13)
    assert plan_subfiles(ext).tolist() == [[0, 1], [0, 2], [1, 2]]
    assert per_slot_counts(ext) == [2] * 3
    base = make_params(6, 3, 4, 13)
    assert plan_subfiles(base).tolist() == [[0, 1, 2, 3]]
    assert per_slot_counts(base) == [1] * 4
    wide = make_params(8, 2, 4, 13)
    # colex order over slot pairs of d = 4
    assert plan_subfiles(wide).tolist() == [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]]
    assert per_slot_counts(wide) == [3] * 4


def test_run_repair_extended_exhaustive():
    ext = make_params(6, 2, 3, 13)
    rng = SplitMix64(10)
    for trial in range(3):
        symbols = random_symbols(ext, rng)
        storage = encode_file(ext, symbols)
        for failed in range(1, 7):
            rest = [i for i in range(1, 7) if i != failed]
            for helpers in combinations(rest, 3):
                t = run_repair(ext, storage, failed, helpers)
                assert t.qudit_total == 6 == ext.B // ext.k
                assert t.regenerated.shape == (3, 2, 1)
                assert t.regenerated.tolist() == storage[:, failed - 1].tolist()


def test_run_repair_extended_validation():
    ext = make_params(6, 2, 3, 13)
    rng = SplitMix64(12)
    storage = encode_file(ext, random_symbols(ext, rng))
    with pytest.raises(InvalidHelperSet, match="need 3 distinct helpers"):
        run_repair(ext, storage, 1, (2, 3))
    with pytest.raises(InvalidHelperSet, match="need 3 distinct helpers"):
        run_repair(ext, storage, 4, (1, 2, 4))
    with pytest.raises(InvalidHelperSet):
        run_repair(ext, storage[:2], 1, (2, 3, 4))


def test_run_repair_applies_u_to_every_subfile():
    ext = make_params(6, 2, 3, 13)
    storage = encode_file(ext, random_symbols(ext, SplitMix64(16)))
    t = run_repair(ext, storage, 2, (1, 3, 5), u=(3, 5))
    assert [c.u for c in t.css] == [(3, 5)] * 3
    assert t.regenerated.tolist() == storage[:, 1].tolist()


def test_transcript_json_field_order():
    params, _, storage = reference_setup(13)
    doc = run_repair(params, storage, 1, (2, 4, 5, 6)).to_json_dict()
    assert list(doc) == [
        "failedNode", "helpers", "mode", "css", "payloads",
        "syndrome", "regenerated", "quditTotal",
    ]
    assert list(doc["css"]) == ["HX", "HZ", "Lam1", "Lam2", "u", "uPrime"]
    assert list(doc["syndrome"]) == ["sX", "sZ"]
    assert list(doc["regenerated"]) == ["nodeId", "rowM", "rowMp"]
    assert list(doc["payloads"][0]) == ["helperId", "yX", "yZ", "quditsSent"]
    assert doc["quditTotal"] == 4


@pytest.mark.parametrize("n,k,d,p", [(6, 3, 4, 13), (12, 4, 8, 17)])
def test_one_containment_product_per_subfile(monkeypatch, n, k, d, p):
    # HX HZ^T is the only matrix-by-matrix product in a repair, and it runs
    # once per sub-file; no Mat is multiplied at all
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(8)))
    calls, mat_calls = [], []
    real, real_mat = qregen.stabilizer.matmul_mod, Mat.__matmul__

    def counting(a, b, p):
        if a.ndim == b.ndim == 2:
            calls.append((a.shape, b.shape))
        return real(a, b, p)

    def counting_mat(a, b):
        mat_calls.append((a.rows, a.cols, b.cols))
        return real_mat(a, b)

    monkeypatch.setattr(qregen.stabilizer, "matmul_mod", counting)
    monkeypatch.setattr(Mat, "__matmul__", counting_mat)
    for mode in MODES:
        calls.clear()
        run_repair(params, storage, 1, tuple(range(2, d + 2)), mode=mode)
        check = ((k - 1, 2 * k - 2), (2 * k - 2, k - 1))
        assert calls == [check] * params.subfiles
        assert mat_calls == []


def test_transcripts_compare_by_identity():
    # array fields have no single truth value, so equality is identity: two
    # equal repairs compare unequal without raising, and every record hashes
    params, _, storage = reference_setup(13)
    a, b = (run_repair(params, storage, 1, (2, 4, 5, 6)) for _ in range(2))
    assert a.to_json_dict() == b.to_json_dict()
    assert a == a and a != b
    records = (a, b, a.css[0], b.css[0], a.css[0].group, b.css[0].group)
    assert len(set(records)) == len(records)
    assert a.css[0] != b.css[0] and a.css[0].group != b.css[0].group


def test_statevector_repairs_every_subfile_of_12_4_8_17():
    # 17^3 support entries per sub-file, where the full vector has 17^6
    params = make_params(12, 4, 8, 17)
    storage = encode_file(params, random_symbols(params, SplitMix64(16)))
    helpers, u = (2, 3, 5, 7, 8, 9, 10, 12), (3, 5, 7, 11, 13, 2)
    linear = run_repair(params, storage, 1, helpers, u)
    state = run_repair(params, storage, 1, helpers, u, mode="statevector")
    assert state.regenerated.shape == (params.subfiles, 2, 3) == (28, 2, 3)
    assert state.payloads.tolist() == linear.payloads.tolist()
    assert state.regenerated.tolist() == linear.regenerated.tolist()
    assert state.regenerated.tolist() == storage[:, 0].tolist()


def test_transcript_arrays_hold_python_ints_at_2_61_minus_1():
    params = make_params(6, 3, 4, 2**61 - 1)
    storage = encode_file(params, random_symbols(params, SplitMix64(18)))
    t = run_repair(params, storage, 2, (1, 3, 4, 6))
    for array in (t.payloads, t.regenerated):
        assert array.dtype == object
        assert all(type(x) is int for x in array.ravel())
    assert t.regenerated.tolist() == storage[:, 1].tolist()
    assert t.qudit_total == 4


def test_bandwidth_report_reference_instance():
    params, _, storage = reference_setup(14)
    rep = bandwidth_report(params, run_repair(params, storage, 1, (2, 4, 5, 6)))
    assert rep["alpha"] == rep["dBetaQ"] == rep["BOverK"] == 4
    # (B/k) * d / (d-k+1) = 4 * 4/2
    assert rep["classicalMSRBandwidth"] == Fraction(8)


def test_bandwidth_report_extension():
    ext = make_params(6, 2, 3, 13)
    rng = SplitMix64(15)
    storage = encode_file(ext, random_symbols(ext, rng))
    rep = bandwidth_report(ext, run_repair(ext, storage, 2, (1, 3, 5)))
    assert rep["alpha"] == rep["dBetaQ"] == rep["BOverK"] == 6
    assert rep["classicalMSRBandwidth"] == Fraction(6, 1) * Fraction(3, 2)
