"""Fuzzed input at the CLI boundary: storage files and short argv lists.

Whatever arrives, ``main`` exits 0, 1 or 2, lets no exception escape and,
on a nonzero exit, says why in one stderr line. argparse's own rejections
(an unknown flag, a missing value) exit 2 through ``SystemExit`` after a
usage block, so for those the last stderr line is the error.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qregen.cli import main

P634 = ["--n", "6", "--k", "3", "--d", "4", "--prime", "13"]
FUZZ = settings(max_examples=50, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(argv):
    """(exit code, stdout, stderr, whether argparse rejected the argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, parser_exit = main(argv), False
        except SystemExit as exc:
            code, parser_exit = exc.code, True
    return code, out.getvalue(), err.getvalue(), parser_exit


def assert_clean_exit(argv):
    code, _, err, parser_exit = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if parser_exit:
        assert code == 2 and ": error: " in err.splitlines()[-1], (argv, err)
    elif code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    msg, storage = root / "msg.json", root / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    assert main(["encode", *P634, "--in", str(msg), "--out", str(storage)]) == 0
    return {"root": root, "msg": str(msg), "storage": str(storage),
            "doc": json.loads(storage.read_text())}


def paths(doc, prefix=()):
    """Every key/index path into a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, (*prefix, key))


SCALARS = (st.none() | st.booleans() | st.integers(-2, 20)
           | st.sampled_from([10**9, 2**61 - 1, 10**30]) | st.text(max_size=3)
           | st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "k", "p", "nodeId", "rowM", "x"]),
                      inner, max_size=3),
    max_leaves=6,
)


@FUZZ
@given(data=st.data())
def test_fuzzed_storage_file(files, data):
    doc = copy.deepcopy(files["doc"])
    *outer, last = path = data.draw(st.sampled_from(list(paths(doc))[1:]))
    parent = doc
    for key in outer:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = data.draw(st.integers(-1, 14) | VALUES)  # often a dit
    storage = files["root"] / "fuzzed.json"
    storage.write_text(json.dumps(doc))
    note = f"{path}: {json.dumps(doc)[:200]}"
    for argv in (["retrieve", "--in", str(storage)],
                 ["repair", "--in", str(storage), "--failed", "1",
                  "--helpers", "2,4,5,6"]):
        try:
            assert_clean_exit(argv)
        except AssertionError as exc:
            raise AssertionError(note) from exc


@settings(FUZZ, max_examples=30)
@given(doc=VALUES)
def test_random_json_as_storage(files, doc):
    storage = files["root"] / "random.json"
    storage.write_text(json.dumps(doc))
    assert_clean_exit(["retrieve", "--in", str(storage)])


# flag -> values; small ranges and no statevector mode keep every sweep quick
FLAG_VALUES = {
    "--n": ["-1", "6", "7", "x"],
    "--k": ["0", "2", "3"],
    "--d": ["0", "3", "4", "5"],
    "--prime": ["4", "13", "17", str(2**61 - 1)],
    "--seed": ["0", "1", "-5", str(2**70)],
    "--trials": ["-1", "0", "1"],
    "--mode": ["linear", "symplectic", "bogus"],
    "--failed": ["0", "1", "2", "7"],
    "--helpers": ["", "2,4,5,6", "1,3,4,5", "1,1,2,3", "2,3", "a"],
    "--nodes": ["", "1,2,3", "2,4,6", "0,1,2", "1,1,2", "x"],
    "--B": ["-12", "0", "12", "13", "1200000000"],
    "--betas": ["", "1", "1/2,2", "x", "1/0"],
    "--format": ["text", "json", "csv"],
    "--in": ["{msg}", "{storage}", "{root}/missing.json"],
    "--out": ["{root}/out.txt", "{root}/missing/out.txt"],
}
TEMPLATES = [  # one valid call per path through each command
    ["demo-example1", "--seed", "1", "--format", "text"],
    ["encode", *P634, "--in", "{msg}", "--out", "{root}/out.txt"],
    ["retrieve", "--in", "{storage}", "--nodes", "2,4,6"],
    ["repair", "--in", "{storage}", "--failed", "1", "--helpers", "2,4,5,6"],
    ["repair", *P634, "--seed", "7", "--failed", "1", "--helpers", "2,4,5,6",
     "--mode", "symplectic"],
    ["sweep", *P634, "--trials", "1", "--mode", "linear"],
    ["tradeoff", "--k", "3", "--d", "4", "--B", "12"],
    ["tradeoff", "--k", "3", "--d", "4", "--B", "12", "--betas", "1/2,2"],
    ["selftest", "--seed", "2"],
]


@st.composite
def argvs(draw):
    """A valid call with up to three edits: a flag, mostly one the command
    reads, set to a drawn value, dropped, or left without its value."""
    command, *rest = draw(st.sampled_from(TEMPLATES))
    flags = dict(zip(rest[::2], rest[1::2]))
    bare = []
    edited = st.sampled_from([*flags] * 3 + sorted(FLAG_VALUES))
    edits = st.sampled_from(["set", "set", "set", "drop", "bare"])
    for flag, edit in draw(st.lists(st.tuples(edited, edits), max_size=3)):
        if edit == "set":
            flags[flag] = draw(st.sampled_from(FLAG_VALUES[flag]))
        elif edit == "drop":
            flags.pop(flag, None)
        else:
            bare.append(flag)
    return [command, *(x for pair in flags.items() for x in pair), *bare]


@settings(FUZZ, max_examples=80)
@given(argv=argvs())
def test_fuzzed_argv(files, argv):
    assert_clean_exit([arg.format(**files) for arg in argv])


@pytest.mark.parametrize("argv", TEMPLATES, ids=lambda argv: argv[0])
def test_templates_exit_0(files, argv):
    # the fuzz edits valid calls, and would pass on a main that rejects everything
    assert run_main([arg.format(**files) for arg in argv])[0] == 0
