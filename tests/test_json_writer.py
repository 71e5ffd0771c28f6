"""``cli._json_text`` writes exactly what ``json.dumps(indent=2)`` writes.

The CLI's stdout and ``--out`` files are pinned byte for byte, so the
writer is checked against json itself: on random documents that mix in
everything its fast paths must leave to json (bools among ints, None,
floats with nan and inf, escaped strings and keys, non-str keys, tuples,
empty containers), and on the real storage documents and repair
transcripts of four parameter sets.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qregen import cli
from qregen.pmcode import encode_file, make_params, random_symbols
from qregen.repair import run_repair
from qregen.rng import SplitMix64

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


def assert_exact(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


@WRITER
@given(doc=DOCS)
@example(doc=[1, True, 2])
@example(doc={"row": [0, False], "nested": [[True], [3, 4]], "t": (1, (2, None))})
@example(doc=[[], {}, (), [[]], {"": {}}, {1: [2], "1": 3}])
def test_writer_matches_json_dumps(doc):
    assert_exact(doc)


@pytest.mark.parametrize("n, k, d, p", [
    (6, 3, 4, 13), (6, 2, 3, 13), (12, 4, 8, 17), (64, 20, 38, 67),
])
def test_writer_on_real_documents(n, k, d, p):
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(1)))
    assert_exact(cli._storage_to_json(params, storage))
    for mode in ("linear", "symplectic"):
        helpers = list(range(2, d + 2))
        assert_exact(run_repair(params, storage, 1, helpers, mode=mode).to_json_dict())
