"""Repair protocol: payload locality, exact regeneration, sub-files, accounting."""

from fractions import Fraction
from itertools import combinations

import pytest

from qregen.css import build_repair_css
from qregen.errors import (
    InvalidHelperSet,
    ModeUnavailable,
    NotAHelper,
    RegenerationMismatch,
)
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


def test_helper_encode_sparse_message_golden():
    # message with only the first symbol set: node 2 then stores rows
    # (1, 0) and (0, 0), so helper 2's payload is (lam1_2 * 1, 0) = (9, 0)
    params = make_params(6, 3, 4, 13)
    stored = encode_file(params, [1] + [0] * 11)[0]
    assert node_rows(stored, 2) == ((1, 0), (0, 0))
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    payload = helper_encode(params, c, 2, stored[1].tolist())
    assert (payload.y_x, payload.y_z) == (9, 0)
    assert payload.to_json_dict()["quditsSent"] == 1


def test_helper_encode_zero_storage():
    params = make_params(6, 3, 4, 13)
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    payload = helper_encode(params, c, 4, [[0, 0], [0, 0]])
    assert (payload.y_x, payload.y_z) == (0, 0)


def test_helper_encode_scales_with_message():
    params, symbols, storage = reference_setup(2)
    stored = storage[0]
    c = build_repair_css(params, 3, (1, 2, 5, 6))
    doubled = encode_file(params, [2 * s % 13 for s in symbols])[0]
    for s in c.helpers:
        base = helper_encode(params, c, s, stored[s - 1].tolist())
        scaled = helper_encode(params, c, s, doubled[s - 1].tolist())
        assert scaled.y_x == 2 * base.y_x % 13
        assert scaled.y_z == 2 * base.y_z % 13


def test_helper_encode_rejects_non_helper():
    params, _, storage = reference_setup()
    c = build_repair_css(params, 1, (2, 4, 5, 6))
    with pytest.raises(NotAHelper):
        helper_encode(params, c, 3, storage[0, 2].tolist())  # node 3 not a helper


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
                assert t.regenerated == (node_rows(storage[0], failed),)
                assert t.qudit_total == 4 == params.B // params.k


def test_run_repair_mode_equivalence():
    params, _, storage = reference_setup(4)
    transcripts = [
        run_repair(params, storage, 2, (1, 3, 4, 6), mode=mode) for mode in MODES
    ]
    for t in transcripts[1:]:
        assert t.syndrome == transcripts[0].syndrome
        assert t.regenerated == transcripts[0].regenerated


def test_run_repair_payload_locality():
    # every payload must be recomputable from that single node's storage
    params, _, storage = reference_setup(5)
    t = run_repair(params, storage, 5, (1, 2, 3, 6))
    (css,), (payloads,) = t.css, t.payloads
    for payload in payloads:
        node = payload.helper_id
        solo = helper_encode(params, css, node, storage[0, node - 1].tolist())
        assert solo == payload


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


def test_plan_subfiles_counts():
    ext = make_params(6, 2, 3, 13)
    plan = plan_subfiles(ext)
    assert plan.subsets == ((0, 1), (0, 2), (1, 2))
    assert plan.per_helper_qudits == 2
    base = make_params(6, 3, 4, 13)
    assert plan_subfiles(base).subsets == ((0, 1, 2, 3),)
    assert plan_subfiles(base).per_helper_qudits == 1
    wide = make_params(8, 2, 4, 13)
    plan4 = plan_subfiles(wide)
    # colex order over slot pairs of d = 4
    assert plan4.subsets == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    assert plan4.per_helper_qudits == 3
    for slot in range(4):
        assert sum(slot in s for s in plan4.subsets) == 3


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
                assert len(t.regenerated) == 3
                for sub, regen in zip(storage, t.regenerated):
                    assert regen == node_rows(sub, failed)


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
    for sub, regen in zip(storage, t.regenerated):
        assert regen == node_rows(sub, 2)


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
    # HX HZ^T is the only matrix product in a repair, and it runs once
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(8)))
    calls = []
    real = Mat.__matmul__

    def counting(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return real(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counting)
    for mode in MODES:
        calls.clear()
        run_repair(params, storage, 1, tuple(range(2, d + 2)), mode=mode)
        assert calls == [(k - 1, 2 * k - 2, k - 1)] * params.subfiles


def test_statevector_repairs_every_subfile_of_12_4_8_17():
    # 17^3 support entries per sub-file, where the full vector has 17^6
    params = make_params(12, 4, 8, 17)
    storage = encode_file(params, random_symbols(params, SplitMix64(16)))
    helpers, u = (2, 3, 5, 7, 8, 9, 10, 12), (3, 5, 7, 11, 13, 2)
    linear = run_repair(params, storage, 1, helpers, u)
    state = run_repair(params, storage, 1, helpers, u, mode="statevector")
    assert len(state.syndrome) == params.subfiles == 28
    assert state.syndrome == linear.syndrome
    assert state.regenerated == linear.regenerated


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
