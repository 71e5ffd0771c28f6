"""``cli._json_text`` writes exactly what ``json.dumps(indent=2)`` writes.

The CLI's stdout and ``--out`` files are pinned byte for byte, so the
writer is checked against json itself: on random documents that mix in
everything its fast paths must leave to json (bools among ints, None,
floats with nan and inf, escaped strings and keys, non-str keys, tuples,
empty containers). The storage file, the repair transcript and the
retrieved message, their ints written into compiled layouts, are checked
against json's text of the dicts ``tests/documents.py`` builds and of the
message, at one and at many sub-files, at primes whose tables fit the
budget and past it, where each int takes ``str``.
"""

import json
import os
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qregen import cli
from qregen.errors import NoValidPoints
from qregen.matrix import exact_dtype
from qregen.pmcode import encode_file, make_params, random_symbols, retrieve_file
from qregen.repair import MODES, run_repair
from qregen.rng import SplitMix64

from caches import clear_caches
from documents import storage_doc, transcript_doc
from test_trace_targets import load_spans

WRITER = settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])

AWKWARD_TEXT = ['"q"', "back\\slash", "nl\nand\ttab", "\x00\x1f\x7f", "é", "日本",
                "\ud800", "\U0001f600", ""]
TEXT = st.text(max_size=6) | st.sampled_from(AWKWARD_TEXT)
INTS = (st.integers() | st.integers(-3, 3)
        | st.sampled_from([2**63, 2**64, 2**64 + 1, -(2**64) - 1, 10**40]))
SCALARS = (st.none() | st.booleans() | INTS | st.floats() | TEXT
           | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
KEYS = TEXT | st.sampled_from(["nodeId", "rowM", "rowMp", "HX", "helpers"])
ODD_KEYS = KEYS | st.integers(-3, 3) | st.booleans() | st.none() | st.floats()


def containers(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.lists(INTS | st.booleans(), max_size=6)  # bools among ints
            | st.dictionaries(KEYS, inner, max_size=4)
            | st.dictionaries(ODD_KEYS, inner, max_size=3))


DOCS = st.recursive(SCALARS | st.lists(INTS, max_size=6), containers, max_leaves=25)


def dumped(doc):
    return json.dumps(doc, indent=2) + "\n"


def assert_exact(doc):
    assert cli._json_text(doc) == dumped(doc)


@WRITER
@given(doc=DOCS)
@example(doc=[1, True, 2])
@example(doc={"row": [0, False], "nested": [[True], [3, 4]], "t": (1, (2, None))})
@example(doc=[[], {}, (), [[]], {"": {}}, {1: [2], "1": 3}])
def test_writer_matches_json_dumps(doc):
    assert_exact(doc)


def storage_case(n, k, d, p, seed=1):
    params = make_params(n, k, d, p)
    return params, encode_file(params, random_symbols(params, SplitMix64(seed)))


def assert_documents_exact(params, storage, modes, seed):
    """The storage text, the message and every transcript equal json's text
    of the dicts."""
    assert cli._storage_text(params, storage) == dumped(storage_doc(params, storage))
    message = retrieve_file(params, storage, range(1, params.k + 1))
    assert cli._json_text(message, cli._list_doc(params.p)) == dumped(message.tolist())
    rng = SplitMix64(seed)
    helpers = list(range(2, params.d + 2))
    for mode in modes:
        for u in (None, [rng.unit(params.p) for _ in range(2 * params.k - 2)]):
            t = run_repair(params, storage, 1, helpers, u, mode)
            assert cli._transcript_text(t) == dumped(transcript_doc(t))


@pytest.mark.parametrize("n, k, d, p", [
    (6, 3, 4, 13), (6, 2, 3, 13), (12, 4, 8, 17), (64, 20, 38, 67),
    (6, 3, 4, 2**61 - 1), (6, 3, 4, 2**64 - 59),  # dits past int64 in the last
])
def test_writer_on_real_documents(n, k, d, p):
    # one sub-file at (6,3,4) and (64,20,38), whose transcripts hold each
    # per-sub-file entry itself; the state vector only where it fits
    modes = MODES if n < 64 and p < 100 else ("linear", "symplectic")
    params, storage = storage_case(n, k, d, p)
    assert_documents_exact(params, storage, modes, seed=n + p)


@st.composite
def small_params(draw):
    k = draw(st.integers(2, 4))
    d = draw(st.integers(2 * k - 2, 2 * k))
    n = draw(st.integers(d + 1, d + 3))
    # 131 x the 25 distinct pieces of a many-sub-file transcript fit the
    # table budget, 167 x 25 and 257 x 21 do not; a storage file's 3 to 5
    # fit at 257
    p = draw(st.sampled_from([13, 17, 19, 23, 127, 131, 167, 257, 1753413059]))
    return n, k, d, p


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(dims=small_params(), seed=st.integers(0, 2**32))
@example(dims=(8, 3, 5, 131), seed=1)
@example(dims=(8, 3, 5, 167), seed=2)
@example(dims=(6, 3, 4, 257), seed=3)
@example(dims=(12, 4, 8, 257), seed=4)  # transcripts past the budget
@example(dims=(6, 3, 4, 4093), seed=5)  # every document past it
def test_writer_on_small_parameter_sets(dims, seed):
    try:
        params, storage = storage_case(*dims, seed=seed)
    except NoValidPoints:  # too few points with distinct lam at this p
        return
    assert_documents_exact(params, storage, ("linear", "symplectic"), seed)


@pytest.mark.parametrize("n, k, d, p", [(12, 4, 8, 257), (6, 3, 4, 4093)])
def test_documents_past_the_budget_gather_decimal_strings(monkeypatch, n, k, d, p):
    # p within the cap: a document with no table takes each int's str from
    # the one cached column of p strings, not from str of each int
    sizes = []

    def column(piece, size):
        sizes.append((piece, size))
        return cached(piece, size)

    clear_caches()
    cached = cli._column
    monkeypatch.setattr(cli, "_column", column)
    params, storage = storage_case(n, k, d, p)
    t = run_repair(params, storage, 1, list(range(2, d + 2)))
    assert cli._transcript_doc(t.mode, d, params.alpha0, params.subfiles, p).table is None
    sizes.clear()
    assert cli._transcript_text(t) == dumped(transcript_doc(t))
    assert sizes == [("", p)]
    assert_documents_exact(params, storage, ("linear", "symplectic"), seed=p)


def layout_chars(layout):
    """The characters of every literal piece a layout holds."""
    return sum(map(len, chain.from_iterable(chain(*layout))))


def test_storage_layout_does_not_grow_with_subfiles():
    # (12,4,7,17) and (12,4,8,17) differ only in T: 7 sub-files against 28
    lengths = {}
    for d in (7, 8):
        params = make_params(12, 4, d, 17)
        lengths[params.subfiles] = layout_chars(cli._storage_layout(params))
    assert list(lengths) == [7, 28] and lengths[7] == lengths[28]


def test_transcript_layout_does_not_grow_with_subfiles():
    # at (12,4,7,17) and (12,4,8,17) a repair writes 7 and 28 sub-files;
    # the layouts differ by the one more helper id alone
    lengths = {}
    for d in (7, 8):
        params, storage = storage_case(12, 4, d, 17)
        t = run_repair(params, storage, 1, list(range(2, d + 2)), None, "linear")
        lengths[len(t.regenerated)] = layout_chars(
            cli._transcript_layout(t.mode, d, params.alpha0, len(t.regenerated) == 1))
    assert list(lengths) == [7, 28] and lengths[28] - lengths[7] == len(",\n    ")


CAP = cli._DECIMAL_CAP
SIZES = [13, 67, 257, CAP // 25, CAP // 25 + 1, CAP, CAP + 1]  # list docs' column sizes


def near(sizes):
    """Ints at, just below and just above each size."""
    return st.sampled_from(sorted({v for s in sizes for v in (0, s - 1, s, s + 1)}))


@WRITER
@given(data=st.data(), size=st.sampled_from([0, *SIZES]),
       kind=st.sampled_from([np.int64, object]))
def test_decimal_strings_equal_str(data, size, kind):
    # a flat list of none, one or more ints through its table, or past it
    # (size 0: the default list, which has none) as str of each: ints near
    # the size, the budget and the cap, negative, past int64 (object only)
    ints = (near([size, CAP // 25, CAP]) | st.integers(0, 300) | st.integers(-3, -1)
            | st.just(2**63 - 1)
            | (st.sampled_from([2**64 + 1, -(2**70)]) if kind is object else st.nothing()))
    values = data.draw(st.lists(ints, max_size=8))
    doc = cli._list_doc(size) if size else cli._LIST
    assert cli._json_text(np.array(values, dtype=kind), doc) == dumped(values)


@WRITER
@given(data=st.data(), kind=st.sampled_from([np.int64, object]))
def test_storage_text_of_any_ints(data, kind):
    # the storage layout with ints that are not field elements: below p
    # through the table, otherwise each through str
    params = make_params(6, 3, 4, 13)
    size = int(np.prod(params.storage_shape))
    ints = (st.integers(0, 12) | near([13, CAP]) | st.integers(-3, -1)
            | (st.just(2**64 + 1) if kind is object else st.nothing()))
    storage = np.array(data.draw(st.lists(ints, min_size=size, max_size=size)),
                       dtype=kind).reshape(params.storage_shape)
    assert cli._storage_text(params, storage) == dumped(storage_doc(params, storage))


def test_cached_columns_stay_within_the_budget():
    # one code's storage file, transcripts in both tabled modes and
    # message: their tables share columns, and together stay within
    # the budget of one table
    clear_caches()
    params, storage = storage_case(64, 20, 38, 67)
    assert_documents_exact(params, storage, ("linear", "symplectic"), seed=1)
    columns = cli._column.cache_info().currsize
    assert 0 < columns * params.p <= CAP


@pytest.mark.parametrize("p", [13, 4099, 2**61 - 1, 2**64 - 59])  # 4099: past the cap
def test_retrieved_message_text(tmp_path, capsys, p):
    # the message near p - 1, so that at 4099 it takes the fallback; the
    # document through the CLI and from the array equal json's text
    msg, storage = tmp_path / "msg.json", tmp_path / "storage.json"
    symbols = [p - 1 - 3**i % p for i in range(12)]
    msg.write_text(json.dumps(symbols))
    assert cli.main(["encode", "--n", "6", "--k", "3", "--d", "4", "--prime", str(p),
                     "--in", str(msg), "--out", str(storage)]) == 0
    assert cli.main(["retrieve", "--in", str(storage), "--nodes", "2,4,6"]) == 0
    assert capsys.readouterr().out == dumped(symbols)
    assert cli._json_text(np.array(symbols, dtype=exact_dtype(1, p))) == dumped(symbols)
    assert cli._json_text(np.array(symbols[:1])) == dumped(symbols[:1])
    assert cli._json_text(np.array([], dtype=np.int64)) == dumped([])


def test_encode_and_repair_each_open_one_json_dump_span(tmp_path):
    msg, storage = tmp_path / "msg.json", tmp_path / "storage.json"
    params = make_params(12, 4, 8, 17)
    msg.write_text(json.dumps(random_symbols(params, SplitMix64(2))))
    dims = ["--n", "12", "--k", "4", "--d", "8", "--prime", "17"]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.call_op("encode", cli.main, [
            "encode", *dims, "--in", str(msg), "--out", str(storage)]) == 0
        assert tracer.call_op("repair", cli.main, [
            "repair", "--in", str(storage), "--failed", "3",
            "--helpers", "1,2,4,5,6,7,8,9", "--out", os.devnull]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.self_times()
    assert spans["encode", "cli.json_dump"][0] == spans["repair", "cli.json_dump"][0] == 1
