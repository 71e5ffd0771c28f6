"""The two ways ``main`` parses argv: the loop over ``cli.COMMANDS`` and argparse.

The loop takes a command and then distinct ``--flag value`` pairs of its
table; every other argv goes to argparse. Whichever path an argv takes, the
exit code, stdout, stderr and written files are the same as argparse's alone.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from qregen import cli
from qregen.cli import main

from test_fuzz import FUZZ, P634


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    msg, storage = root / "msg.json", root / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    assert main(["encode", *P634, "--in", str(msg), "--out", str(storage)]) == 0
    return {"root": root, "msg": str(msg), "storage": str(storage)}


def parse_both(argv):
    """(the loop's Namespace or None, argparse's) of one argv."""
    return cli._parse_fast(argv), cli.build_parser().parse_args(argv)


REPAIR = ["repair", "--failed", "1", "--helpers", "2,4,5,6"]


@pytest.mark.parametrize("argv, dest, default", [
    (["sweep", *P634], "trials", 20),  # as the README states
    (["sweep", *P634], "seed", 1),
    (["selftest"], "seed", 1),
    (["demo-example1"], "seed", 1),
    (["sweep", *P634], "mode", "linear"),
    (REPAIR, "mode", "linear"),
    (REPAIR, "seed", None),  # none, so that --seed with --in shows
])
def test_documented_defaults(argv, dest, default):
    fast, slow = parse_both(argv)
    assert fast is not None
    assert getattr(fast, dest) == getattr(slow, dest) == default


BENCH_ARGV = [  # the shapes a closed loop of encode, retrieve and repair sends
    ["encode", "--n", "12", "--k", "4", "--d", "8", "--prime", "17",
     "--in", "m.json", "--out", "s.json"],
    ["retrieve", "--in", "s.json", "--nodes", "3,5,8,12"],
    ["repair", "--in", "s.json", "--failed", "1", "--helpers", "2,3,4,5,6,7,8,9",
     "--mode", "symplectic"],
]


@pytest.mark.parametrize("argv", BENCH_ARGV, ids=lambda argv: argv[0])
def test_loop_takes_the_plain_form(argv):
    fast, slow = parse_both(argv)
    assert fast is not None and vars(fast) == vars(slow)


@pytest.mark.parametrize("argv", [
    ["encode", "--n=12", "--k", "4", "--d", "8", "--prime", "17", "--in", "m.json"],
    [*REPAIR, "--failed", "2"],
    [*REPAIR, "--seed", "-1"],
    [*REPAIR, "--mod", "linear"],
    [*REPAIR, "--mode", "bogus"],
    [*REPAIR, "--seed", "1_0"],
    [*REPAIR, "--out"],
    [*REPAIR, "--", "x"],
    [*REPAIR, "-h"],
    ["repair", "--failed", "1"],
    ["--help"],
    [],
])
def test_loop_declines_every_other_form(argv):
    assert cli._parse_fast(argv) is None


def test_argv_none_reads_sys_argv(monkeypatch, capsys):
    argv = ["tradeoff", "--k", "3", "--d", "4", "--B", "12"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr("sys.argv", ["qregen", *argv])
    seen = []
    monkeypatch.setattr(cli, "_parse_fast", lambda argv: seen.append(argv))
    assert main() == 0
    assert capsys.readouterr() == expected
    assert seen == [argv]


LIKELY = {  # dest -> the values a call most often gives it: valid ones, small so
    # that every sweep is quick, and near misses
    "n": ["6"], "k": ["3"], "d": ["4"], "prime": ["13"], "B": ["12"],
    "seed": ["1", "7", " 2 "], "failed": ["1"], "trials": ["1"],
    "mode": ["linear", "symplectic", "statevector", "Linear"],
    "format": ["text", "json", "csv"],
    "nodes": ["2,4,6"], "helpers": ["2,4,5,6", "0,2,3,4"], "betas": ["1/2,2"],
    "in_path": ["{msg}", "{storage}"], "out": ["{root}/out.txt"],
}
BAD = ["", "x", "1_0", "+1", "-1", "\u0661", "0", "-", "--", "-h", "--n", "encode",
       "{root}/missing/out.txt"]
JUNK = ["-h", "--help", "--", "-", "x", "--bogus", "-n", "--nodes", "selftest"]
EVERY_FLAG = sorted({flag for *_, flags in cli.COMMANDS.values() for flag in flags})


@st.composite
def argvs(draw):
    """A command with a drawn subset of its flags in a drawn order, each
    value mostly a likely one, plus drawn edits: a repeated or unknown flag, an
    ``=`` form, an abbreviation, a flag with no value, a junk token."""
    name = draw(st.sampled_from([*cli.COMMANDS, "bogus", ""]))
    flags = cli.COMMANDS[name][2] if name in cli.COMMANDS else {}
    known = st.sampled_from(sorted(flags) or EVERY_FLAG)

    def value(flag):
        spec = flags.get(flag)
        likely = LIKELY[spec.dest] if spec else []
        return draw(st.sampled_from(likely if likely and draw(st.integers(0, 3)) else BAD))

    items = [[flag, value(flag)] for flag in flags if draw(st.integers(0, 3))]
    for edit in draw(st.lists(st.sampled_from(["repeat", "other", "eq", "abbrev",
                                               "bare", "junk"]), max_size=2)):
        flag = draw(known)
        if edit == "repeat":
            items.append([flag, value(flag)])
        elif edit == "other":
            items.append([draw(st.sampled_from(EVERY_FLAG)), draw(st.sampled_from(BAD))])
        elif edit == "eq":
            items.append([f"{flag}={value(flag)}"])
        elif edit == "abbrev":
            items.append([flag[:draw(st.integers(2, len(flag) - 1))], value(flag)])
        elif edit == "bare":
            items.append([flag])
        else:
            items.append([draw(st.sampled_from(JUNK))])
    return [name, *(token for item in draw(st.permutations(items)) for token in item)]


def outcome(argv, root):
    """(exit code, stdout, stderr, {name: bytes} of every file it wrote) of
    ``main(argv)`` run in ``root``, the files removed again."""
    before, cwd = set(root.iterdir()), os.getcwd()
    stdout, stderr = io.StringIO(), io.StringIO()
    os.chdir(root)  # where an --out of a relative path writes
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # --help and -h print and exit, as argparse does
        code = f"SystemExit({exc.code})"
    finally:
        os.chdir(cwd)
    written = {path.name: path.read_bytes() for path in set(root.iterdir()) - before}
    for name in written:
        (root / name).unlink()
    return code, stdout.getvalue(), stderr.getvalue(), written


@settings(FUZZ, max_examples=300)
@given(argv=argvs())
def test_loop_changes_nothing(files, argv):
    argv = [arg.format(**files) for arg in argv]
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == vars(cli.build_parser().parse_args(argv))
    either = outcome(argv, files["root"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_fast", lambda argv: None)
        assert outcome(argv, files["root"]) == either
