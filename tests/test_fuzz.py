"""Fuzzed input at the CLI boundary: storage files and short argv lists.

Whatever arrives, ``main`` exits 0, 1 or 2, lets no exception escape
(``SystemExit`` included) and, on a nonzero exit, says why in one stderr
line; argparse's own rejections (an unknown flag, a missing value) too.

Fuzzed node sets at the two node-set caches, the CSS codes and the decode
plans: a call gives the same outcome on a cold cache and on a warm one, and
a run of file repairs long enough to evict writes what one-shot repairs write.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qregen.css
import qregen.pmcode
from qregen.cli import _transcript_text, main
from qregen.css import RepairCSS, build_repair_css, cache_bases, check_helpers
from qregen.errors import BadShareSet, InvalidHelperSet, ZeroU
from qregen.pmcode import encode_file, make_params, random_symbols, retrieve
from qregen.repair import run_repair
from qregen.rng import SplitMix64

P634 = ["--n", "6", "--k", "3", "--d", "4", "--prime", "13"]
FUZZ = settings(max_examples=50, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(argv):
    """(exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    code, _, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code != 0:
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


# flag -> values; small ranges keep every sweep quick
FLAG_VALUES = {
    "--n": ["-1", "6", "7", "x"],
    "--k": ["0", "2", "3"],
    "--d": ["0", "3", "4", "5"],
    "--prime": ["4", "13", "17", str(2**61 - 1)],
    "--seed": ["0", "1", "-5", str(2**70)],
    "--trials": ["-1", "0", "1"],
    "--mode": ["linear", "symplectic", "statevector", "bogus"],
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
    ["repair", *P634, "--seed", "7", "--failed", "1", "--helpers", "2,4,5,6",
     "--mode", "statevector"],
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


def outcome(call):
    """The ``tolist()`` of what ``call()`` returns, or the class and message
    of what it raises."""
    try:
        return call().tolist()
    except Exception as exc:
        return type(exc), str(exc)


CODES = [(6, 3, 4, 13), (12, 4, 8, 17)]


@st.composite
def node_lists(draw, nodes, size, n):
    """``size`` distinct ids of ``nodes``, or such a list with one id set to
    any of [-1, n + 2], one dropped or one repeated."""
    ids = draw(st.permutations(nodes))[:size]
    if draw(st.booleans()):
        return ids
    edit = draw(st.sampled_from(["set", "drop", "repeat"]))
    if edit == "set":
        ids[draw(st.integers(0, size - 1))] = draw(st.integers(-1, n + 2))
    elif edit == "drop":
        ids.pop()
    else:  # repeat
        ids.append(draw(st.sampled_from(ids)))
    return ids


@pytest.mark.parametrize("code", CODES, ids=str)
@FUZZ
@given(data=st.data())
def test_a_warm_css_cache_admits_nothing_a_cold_one_refuses(code, data):
    # a key is cached only once checked, so a hit may skip the check
    params = make_params(*code)
    n, m, p = params.n, 2 * params.alpha0, params.p
    failed = data.draw(st.integers(-1, n + 2))
    helpers = data.draw(node_lists([i for i in range(1, n + 1) if i != failed], m, n))
    u = data.draw(st.none() | st.lists(st.integers(0, p), min_size=m, max_size=m))
    warm = 1 if failed not in range(1, n + 1) else failed
    others = [i for i in range(1, n + 1) if i != warm]
    batch = data.draw(st.lists(
        st.permutations(others).map(lambda s: tuple(sorted(s[:m]))),
        min_size=1, max_size=4))

    def build():
        return outcome(lambda: build_repair_css(params, failed, helpers, u).block)

    qregen.css._BASES.clear()
    cold = build()
    cache_bases(params, warm, batch)
    assert build() == cold
    if isinstance(cold, tuple):
        assert cold[0] in (InvalidHelperSet, ZeroU), cold
    for _, f, hs in qregen.css._BASES:  # every cached key passes the check
        assert check_helpers(params, f, hs, m) == hs


def assert_cached_codes_checked(params, keys):
    """Each key of ``keys`` passes ``check_helpers``, and its entry is the
    read-only u-free code of that key."""
    for key in keys:
        _, failed, hs = key
        assert key[0] is params and check_helpers(params, failed, hs, len(hs)) == hs
        code = qregen.css._BASES[key]
        assert isinstance(code, RepairCSS) and (code.failed_node, code.helpers) == (failed, hs)
        assert not code.block.flags.writeable and (code.u == 1).all()


@settings(FUZZ, max_examples=12)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_file_repairs_through_an_evicting_cache_match_cold_repairs(seed, data):
    # 40 seeded file repairs of 28 sub-files each pass the bound of 16 * 28
    # codes, so the cache evicts. The fuzz inserts inputs that may be
    # refused, which admit nothing, and repeats earlier ones, which hit
    # where their codes survive
    params = make_params(12, 4, 8, 17)
    storage = encode_file(params, random_symbols(params, SplitMix64(37)))
    rng, inputs = SplitMix64(seed), []
    for _ in range(40):
        failed = 1 + rng.below(12)
        others = [i for i in range(1, 13) if i != failed]
        inputs.append((failed, [others.pop(rng.below(len(others))) for _ in range(8)]))
    for place, failed in data.draw(st.lists(
            st.tuples(st.integers(0, 40), st.integers(-1, 14)), max_size=6)):
        others = [i for i in range(1, 13) if i != failed]
        inputs.insert(place, (failed, data.draw(node_lists(others, 8, 12))))
    inputs += data.draw(st.lists(st.sampled_from(inputs), max_size=8))

    def repair(failed, helpers):
        try:
            return _transcript_text(run_repair(params, storage, failed, helpers))
        except Exception as exc:
            return type(exc), str(exc)

    cold = []
    for failed, helpers in inputs:
        qregen.css._BASES.clear()
        cold.append(repair(failed, helpers))
    qregen.css._BASES.clear()
    for (failed, helpers), expected in zip(inputs, cold):
        before = list(qregen.css._BASES)
        assert repair(failed, helpers) == expected
        if isinstance(expected, tuple):
            assert expected[0] is InvalidHelperSet, expected
            assert list(qregen.css._BASES) == before
        assert_cached_codes_checked(params, set(qregen.css._BASES) - set(before))
    assert len(qregen.css._BASES) == 16 * params.subfiles
    assert_cached_codes_checked(params, list(qregen.css._BASES))


@pytest.mark.parametrize("code", CODES, ids=str)
@FUZZ
@given(data=st.data())
def test_a_warm_plan_cache_admits_nothing_a_cold_one_refuses(code, data):
    params = make_params(*code)
    n, k = params.n, params.k
    ids = data.draw(node_lists(range(1, n + 1), k, n))
    batch = data.draw(st.lists(
        st.permutations(range(1, n + 1)).map(lambda s: tuple(s[:k])),
        min_size=1, max_size=4))
    storage = encode_file(params, list(range(params.B)))
    rows = storage[:, :k].swapaxes(1, 2)  # any k rows: only the ids are checked

    def decode():
        return outcome(lambda: retrieve(params, ids, rows))

    qregen.pmcode._compiled_plan.cache_clear()
    cold = decode()
    for plan_ids in batch:
        retrieve(params, plan_ids, storage[:, [i - 1 for i in plan_ids]].swapaxes(1, 2))
    assert decode() == cold
    if isinstance(cold, tuple):
        assert cold == (BadShareSet, f"need {k} distinct node ids in [1, {n}]")
    else:
        assert len(set(ids)) == len(ids) == k and 1 <= min(ids) <= max(ids) <= n
