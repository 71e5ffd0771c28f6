"""CLI harness: command flows, determinism, exit codes."""

import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

import qregen.pmcode
from qregen import cli, errors, reference, repair, tradeoff
from qregen.cli import main
from qregen.matrix import exact_dtype
from qregen.pmcode import encode_file, make_params, random_symbols
from qregen.rng import SplitMix64

from documents import storage_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_passes(capsys):
    code, out, _ = run_cli(capsys, "demo-example1")
    assert code == 0
    assert "8/8 golden values match" in out
    assert out.count("PASS") == 8


def test_demo_json_format(capsys):
    code, out, _ = run_cli(capsys, "demo-example1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] == doc["total"] == 8
    names = [r["name"] for r in doc["golden"]]
    assert names[0] == "V" and names[-1] == "exact_regeneration"


def test_demo_negative_control(capsys, monkeypatch):
    corrupted = {**reference.GOLDEN, "HX": [[0, 0, 0, 0], [0, 0, 0, 0]]}
    monkeypatch.setattr(reference, "GOLDEN", corrupted)
    code, out, _ = run_cli(capsys, "demo-example1")
    assert code == 1
    assert "FAIL HX" in out
    assert "7/8 golden values match" in out


def test_demo_pins_the_table_encode_file_multiplies_by(capsys, monkeypatch):
    # node 3 is neither the failed node nor a helper, so only "V" can catch it
    params = make_params(6, 3, 4, 13)
    bad = params.powers.copy()
    bad[2, 3] = (bad[2, 3] + 1) % 13
    bad.flags.writeable = False
    monkeypatch.setitem(params.__dict__, "powers", bad)
    code, out, _ = run_cli(capsys, "demo-example1")
    assert code == 1
    assert "FAIL V expected=" in out and "PASS V_helpers" in out
    assert "7/8 golden values match" in out


def test_encode_retrieve_round_trip(tmp_path, capsys):
    msg = tmp_path / "msg.json"
    storage = tmp_path / "storage.json"
    symbols = list(range(1, 13))
    msg.write_text(json.dumps(symbols))
    code, _, _ = run_cli(
        capsys,
        "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--in", str(msg), "--out", str(storage),
    )
    assert code == 0
    doc = json.loads(storage.read_text())
    assert doc["params"]["n"] == 6
    assert len(doc["subfiles"]) == 1
    assert len(doc["subfiles"][0]) == 6

    code, out, _ = run_cli(capsys, "retrieve", "--in", str(storage))
    assert code == 0
    assert json.loads(out) == symbols

    code, out, _ = run_cli(
        capsys, "retrieve", "--in", str(storage), "--nodes", "2,4,6"
    )
    assert code == 0
    assert json.loads(out) == symbols


def test_repair_from_storage_file(tmp_path, capsys):
    msg = tmp_path / "msg.json"
    storage = tmp_path / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    run_cli(
        capsys,
        "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--in", str(msg), "--out", str(storage),
    )
    code, out, _ = run_cli(
        capsys,
        "repair", "--in", str(storage), "--failed", "1", "--helpers", "2,4,5,6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failedNode"] == 1
    assert doc["quditTotal"] == 4
    assert doc["css"]["HX"] == [[11, 10, 3, 9], [4, 2, 1, 0]]
    stored = json.loads(storage.read_text())["subfiles"][0][0]
    assert doc["regenerated"]["rowM"] == stored["rowM"]
    assert doc["regenerated"]["rowMp"] == stored["rowMp"]


def test_repair_seeded_determinism(capsys):
    argv = (
        "repair", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--seed", "7", "--failed", "2", "--helpers", "1,3,5,6",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_repair_extended_via_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "repair", "--n", "6", "--k", "2", "--d", "3", "--prime", "13",
        "--seed", "3", "--failed", "4", "--helpers", "1,2,6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quditTotal"] == 6
    assert len(doc["css"]) == 3
    assert len(doc["regenerated"]) == 3


def test_sweep_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--seed", "42", "--trials", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["repairCases"] == 30
    assert doc["repairTrials"] == 60
    assert doc["retrievalSubsets"] == 20
    assert doc["retrievalTrials"] == 40
    assert doc["quditTotal"] == {"min": 4, "max": 4, "expected": 4}
    assert doc["perHelperQudits"] == 1


def test_sweep_extension_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n", "6", "--k", "2", "--d", "3", "--prime", "13",
        "--seed", "42", "--trials", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["perHelperQudits"] == 2
    assert doc["quditTotal"]["expected"] == 6


def test_sweep_statevector_at_7_4_6_11(capsys):
    # 11^3 support entries per repair, where the full vector has 11^6
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n", "7", "--k", "4", "--d", "6", "--prime", "11",
        "--mode", "statevector", "--trials", "1",
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_sweep_invalid_regime_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--n", "6", "--k", "3", "--d", "3", "--prime", "13",
    )
    assert code == 2
    assert "error" in err


def test_sweep_determinism(capsys):
    argv = (
        "sweep", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--seed", "5", "--trials", "1",
    )
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_tradeoff_output(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--k", "3", "--d", "4", "--B", "12")
    assert code == 0
    assert out.splitlines()[0] == "beta,alpha_min_classical,alpha_min_quantum"
    assert "optimal alpha=4 d_beta_q=4" in out
    assert "classical_msr_bandwidth=8" in out


def test_tradeoff_large_instance(capsys):
    code, out, _ = run_cli(
        capsys, "tradeoff", "--k", "10", "--d", "20", "--B", "2200",
        "--betas", "11,20",
    )
    assert code == 0
    # quantum point 220 at beta = 11; classical needs beta 20 for alpha 220
    assert "11,,220" in out
    assert "20,220,220" in out
    assert "optimal alpha=220 d_beta_q=220 classical_msr_bandwidth=400" in out


def test_tradeoff_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "tradeoff", "--k", "3", "--d", "4", "--B", "12", "--betas", ""
    )
    assert code == 0
    assert out.splitlines()[0] == "beta,alpha_min_classical,alpha_min_quantum"


def test_tradeoff_regime_warning_not_abort(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--k", "4", "--d", "5", "--B", "40")
    assert code == 0
    assert "warning" in out


def test_tradeoff_indivisible_b_warns_after_the_table(capsys):
    # the table needs no divisibility; the optimal point does, so it warns
    code, out, _ = run_cli(capsys, "tradeoff", "--k", "3", "--d", "4", "--B", "15")
    assert code == 0
    assert out.splitlines() == [
        "beta,alpha_min_classical,alpha_min_quantum",
        "5/4,,5", "5/2,5,5", "15/4,5,5", "5,5,5",
        "warning: B=15 must be divisible by k*d=12",
    ]


def test_tradeoff_missing_flags_usage_error(capsys):
    code, _, err = run_cli(capsys, "tradeoff", "--k", "3", "--d", "4")
    assert code == 2
    assert "error" in err


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "6/6 selftest checks pass" in out


def test_invalid_params_usage_error(capsys, tmp_path):
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps([1, 2, 3]))
    code, _, err = run_cli(
        capsys,
        "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "12",
        "--in", str(msg),
    )
    assert code == 2
    assert "error" in err


def test_unknown_command_exits_2(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["encode", "--in", "msg.json"],
    ["retrieve", "--in", "storage.json"],
    ["repair", "--failed", "1", "--helpers", "2,3,4,5"],
    ["sweep"],
    ["tradeoff"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_format_only_on_demo(capsys, argv):
    # only demo-example1 honours --format; elsewhere it is an unknown flag
    code, _, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, err) == (2, "error: unrecognized arguments: --format csv\n")


@pytest.mark.parametrize("argv", [
    ["demo-example1", "--n", "6"],
    ["demo-example1", "--prime", "13"],
    ["encode", "--in", "msg.json", "--seed", "3"],
    ["retrieve", "--in", "storage.json", "--n", "6"],
    ["retrieve", "--in", "storage.json", "--seed", "3"],
    ["tradeoff", "--k", "3", "--d", "4", "--B", "12", "--n", "6"],
    ["tradeoff", "--k", "3", "--d", "4", "--B", "12", "--prime", "13"],
    ["tradeoff", "--k", "3", "--d", "4", "--B", "12", "--seed", "3"],
    ["selftest", "--k", "3"],
    ["selftest", "--d", "4"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flags_rejected(capsys, argv):
    # a command declares only the flags it reads; any other is unknown
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


@pytest.mark.parametrize("flag", ["--n", "--k", "--d", "--prime", "--seed"])
def test_repair_in_rejects_param_flags(tmp_path, capsys, flag):
    # the storage file fixes the params and the message; a flag would be dropped
    msg = tmp_path / "msg.json"
    storage = tmp_path / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    run_cli(capsys, "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
            "--in", str(msg), "--out", str(storage))
    argv = ("repair", "--in", str(storage), "--failed", "1", "--helpers", "2,4,5,6")
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, flag, "7")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} cannot be combined with --in\n"


def one_line_usage_error(code, out, err):
    one_line = err.startswith("error: ") and err.count("\n") == 1
    return code == 2 and out == "" and one_line


@pytest.mark.parametrize("argv", [
    [],
    ["sweep", "--n", "6", "--trials"],
    ["sweep", "--n", "x"],
    ["sweep", "--mode", "bogus"],
    ["repair", "--failed", "1"],
    ["encode", "--in", "msg.json", "--bogus"],
], ids=["no-command", "no-value", "not-an-int", "bad-choice", "missing", "unknown"])
def test_argparse_rejections_are_one_line(capsys, argv):
    # argparse's own errors exit 2 like every other usage error, without the
    # usage block
    assert one_line_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_sweep_needs_a_trial(capsys, trials):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--trials", trials,
    )
    assert one_line_usage_error(code, out, err)


@pytest.mark.parametrize("betas", ["a", "1,x", "1/0", "1e5000", "1e100000000",
                                   "1_0", "\u0661", "1/2,\uff13"])
def test_tradeoff_bad_betas_usage_error(capsys, betas):
    code, out, err = run_cli(
        capsys, "tradeoff", "--k", "3", "--d", "4", "--B", "12", "--betas", betas
    )
    assert one_line_usage_error(code, out, err)


def test_unwritable_out_usage_error(tmp_path, capsys):
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps(list(range(12))))
    code, out, err = run_cli(
        capsys, "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--in", str(msg), "--out", str(tmp_path / "missing" / "storage.json"),
    )
    assert one_line_usage_error(code, out, err)
    assert "cannot write" in err


P634 = ["--n", "6", "--k", "3", "--d", "4", "--prime", "13"]


@pytest.fixture(scope="module")
def stored_634(tmp_path_factory):
    root = tmp_path_factory.mktemp("stored")
    msg, storage = root / "msg.json", root / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    assert main(["encode", *P634, "--in", str(msg), "--out", str(storage)]) == 0
    return {"msg": str(msg), "storage": str(storage)}


VALID_CALLS = [  # one per command; each takes --out
    ["demo-example1"],
    ["encode", *P634, "--in", "{msg}"],
    ["retrieve", "--in", "{storage}"],
    ["repair", "--in", "{storage}", "--failed", "1", "--helpers", "2,4,5,6"],
    ["sweep", *P634, "--trials", "1"],
    ["tradeoff", "--k", "3", "--d", "4", "--B", "12"],
    ["selftest"],
]
EMPTY_VALUES = [  # (a valid call, a flag it takes), the flag then given ""
    (["retrieve", "--in", "{storage}"], "--nodes"),
    (["repair", *P634, "--failed", "1", "--helpers", "2,4,5,6"], "--in"),
    *((argv, "--out") for argv in VALID_CALLS),
]


@pytest.mark.parametrize("argv, flag", EMPTY_VALUES,
                         ids=[f"{argv[0]}{flag}" for argv, flag in EMPTY_VALUES])
def test_empty_value_is_usage_error(stored_634, capsys, argv, flag):
    # an empty value is a bad value, not an absent flag: no default nodes,
    # no seeded repair in place of the file, no stdout in place of the file
    argv = [arg.format(**stored_634) for arg in argv]
    assert run_cli(capsys, *argv)[0] == 0
    assert one_line_usage_error(*run_cli(capsys, *argv, flag, ""))


@pytest.mark.parametrize("nodes", ["2,2,4", "0,2,4", "2,4,7", "2,4", "1,2,4,6", "2,x"])
def test_retrieve_bad_nodes_is_usage_error(stored_634, capsys, nodes):
    # a duplicate, an id below 1 or past n, too few, too many, not an int
    argv = ["retrieve", "--in", stored_634["storage"], "--nodes"]
    assert run_cli(capsys, *argv, "2,4,6")[0] == 0
    assert one_line_usage_error(*run_cli(capsys, *argv, nodes))


BAD_IDS = ["2,,4,6", "2,4,6,", ",2,4,6", "2, ,4,6", ",", "2,4,0_6", "2,4,\u0666",
           pytest.param("2,4," + "6" * 5000, id="2,4,6...6")]


@pytest.mark.parametrize("ids", BAD_IDS)
def test_blank_id_is_usage_error(stored_634, capsys, ids):
    # a blank id, a trailing comma included, is malformed, not skipped, and
    # so is an id of anything but ASCII digits; whitespace around an id is
    # allowed
    retrieve = ["retrieve", "--in", stored_634["storage"], "--nodes"]
    repair = ["repair", "--in", stored_634["storage"], "--failed", "1", "--helpers"]
    for argv, good in ((retrieve, " 2, 4 ,6 "), (repair, "2, 4,5 ,6")):
        assert run_cli(capsys, *argv, good)[0] == 0
        assert one_line_usage_error(*run_cli(capsys, *argv, ids))


INT_FLAGS = [  # (a valid call, the int flag in it)
    *((["repair", *P634, "--seed", "1", "--failed", "1", "--helpers", "2,4,5,6"], flag)
      for flag in ("--n", "--k", "--d", "--prime", "--seed", "--failed")),
    (["sweep", *P634, "--trials", "1"], "--trials"),
    (["tradeoff", "--k", "3", "--d", "4", "--B", "12"], "--B"),
    (["demo-example1", "--seed", "1"], "--seed"),
    (["selftest", "--seed", "1"], "--seed"),
]


@pytest.mark.parametrize("value", ["1_0", "\u0661", "+1", "\uff11",
                                   pytest.param("1" * 5000, id="1...1")])
@pytest.mark.parametrize("argv, flag", INT_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in INT_FLAGS])
def test_int_flags_take_ascii_digits_only(capsys, argv, flag, value):
    # int() alone reads "1_0" as 10, "\u0661" and "\uff11" as 1 and "+1" as 1
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    code, out, err = run_cli(capsys, *argv)
    assert one_line_usage_error(code, out, err)
    assert err == f"error: argument {flag}: invalid int value: {value!r}\n"


def test_int_flags_allow_blanks_around_the_digits(capsys):
    code, out, _ = run_cli(capsys, "repair", *P634, "--failed", " 1 ",
                           "--helpers", "2,4,5,6")
    assert code == 0 and json.loads(out)["failedNode"] == 1


def test_parser_built_once_and_holds_no_state(stored_634, capsys):
    assert cli.build_parser() is cli.build_parser()
    repair = ["repair", *P634, "--failed", "2", "--helpers", "1,3,5,6"]
    calls = [
        ["sweep", "--n", "x"],
        ["repair", "--in", stored_634["storage"], "--seed", "1",
         "--failed", "1", "--helpers", "2,4,5,6"],
        ["--help"],
        [*repair, "--seed", "7"],
        repair,
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_order = [run(argv) for argv in calls]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert in_order == alone
    assert [code for code, _, _ in in_order] == [2, 2, "SystemExit(0)", 0, 0]
    assert in_order[4] == run([*repair, "--seed", "1"]) != in_order[3]


def test_verification_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(tradeoff, "quantum_sum", lambda k, d, a, b: 0)
    code, _, err = run_cli(capsys, "tradeoff", "--k", "3", "--d", "4", "--B", "12")
    assert code == 1
    assert err.startswith("verification failure: ")


def test_selftest_under_python_O():
    # no check may vanish under -O: the battery must pass with the same bytes
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "qregen.cli", "selftest"],
                       capture_output=True, text=True, env=env, timeout=120)
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert "6/6 selftest checks pass" in runs[1].stdout


def test_usage_error_classes():
    # exactly these classes exit 2; every other QregenError exits 1
    usage = {name for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.UsageError)}
    assert usage - {"UsageError"} == {
        "InvalidParams", "NoValidPoints", "WrongLength", "BadShareSet",
        "InvalidHelperSet", "ZeroU", "ModeUnavailable",
        "RepeatedPoint", "TooLarge", "InvalidRegime", "RegimeViolation",
        "Indivisible",
    }


@pytest.mark.parametrize("argv", [
    ["sweep", "--trials", "1"],
    ["repair", "--failed", "1", "--helpers", "2,3,4,5,6,7,8,9,10,11"],
], ids=lambda argv: argv[0])
def test_statevector_over_limit_usage_error(capsys, argv):
    # 5 X generators, 17^5 amplitudes: a usage error in sweep too, not
    # eleven failed repairs
    code, out, err = run_cli(
        capsys, *argv, "--n", "11", "--k", "6", "--d", "10", "--prime", "17",
        "--mode", "statevector",
    )
    assert one_line_usage_error(code, out, err)
    assert "17^5 amplitudes" in err


DROP = object()


def edit_at(path, value):
    """Storage-doc mutation: set the entry at ``path`` to value, or DROP it."""
    def mutate(doc):
        *outer, last = path
        parent = reduce(getitem, outer, doc)
        if value is DROP:
            del parent[last]
        else:
            parent[last] = value
        return doc
    return mutate


NODE2 = ("subfiles", 0, 1)  # read by retrieve's default nodes and by the repair
MALFORMED = {
    "top-level-array": lambda doc: [doc],
    "params-missing": edit_at(("params",), DROP),
    "param-k-missing": edit_at(("params", "k"), DROP),
    "subfiles-missing": edit_at(("subfiles",), DROP),
    "nodeId-missing": edit_at((*NODE2, "nodeId"), DROP),
    "rowM-missing": edit_at((*NODE2, "rowM"), DROP),
    "param-n-string": edit_at(("params", "n"), "6"),
    "param-p-float": edit_at(("params", "p"), 13.0),
    "evalPoints-string": edit_at(("params", "evalPoints"), "123456"),
    "evalPoints-bool": edit_at(("params", "evalPoints", 0), True),
    # 19 = p + 6 and -7 are 6 mod 13, but a point must lie in [1, p)
    "evalPoints-p-plus-6": edit_at(("params", "evalPoints", 5), 19),
    "evalPoints-negative": edit_at(("params", "evalPoints", 5), -7),
    "subfiles-object": edit_at(("subfiles",), {}),
    "subfiles-empty": edit_at(("subfiles",), []),
    # a well-formed sub-file too many: T = 1 at (6,3,4)
    "subfiles-extra": lambda doc: edit_at(
        ("subfiles",), [*doc["subfiles"], doc["subfiles"][0]])(doc),
    # a 10^9-node claim fails on the node count before any O(n) work
    "n-beyond-file": lambda doc: edit_at(("params", "evalPoints"), DROP)(
        edit_at(("params", "n"), 10**9)(edit_at(("params", "p"), 10**9 + 7)(doc))),
    "node-missing": edit_at(("subfiles", 0, 5), DROP),
    "node-array": edit_at(NODE2, [2, [0, 0], [0, 0]]),
    "nodeId-bool": edit_at(("subfiles", 0, 0, "nodeId"), True),
    "nodeId-swapped": edit_at((*NODE2, "nodeId"), 3),
    "dit-string": edit_at((*NODE2, "rowM", 0), "3"),
    "dit-float": edit_at((*NODE2, "rowM", 0), 3.0),
    "dit-bool": edit_at((*NODE2, "rowMp", 1), True),
    "dit-equals-p": edit_at((*NODE2, "rowM", 0), 13),
    "dit-negative": edit_at((*NODE2, "rowMp", 0), -1),
    "rowM-short": edit_at((*NODE2, "rowM"), [0]),
    "rowMp-long": edit_at((*NODE2, "rowMp"), [0, 0, 0]),
    "rowMp-null": edit_at((*NODE2, "rowMp"), None),
}


def run_on_malformed(tmp_path, capsys, command, case):
    """(exit code, stdout, stderr) of ``command`` on a (6,3,4,13) storage
    file edited by ``MALFORMED[case]``."""
    msg = tmp_path / "msg.json"
    storage = tmp_path / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    run_cli(capsys, "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
            "--in", str(msg), "--out", str(storage))
    doc = MALFORMED[case](json.loads(storage.read_text()))
    storage.write_text(json.dumps(doc))
    argv = ["--failed", "1", "--helpers", "2,4,5,6"] if command == "repair" else []
    return run_cli(capsys, command, "--in", str(storage), *argv)


@pytest.mark.parametrize("command", ["retrieve", "repair"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_storage_usage_error(tmp_path, capsys, command, case):
    assert one_line_usage_error(*run_on_malformed(tmp_path, capsys, command, case))


@pytest.mark.parametrize("command", ["retrieve", "repair"])
def test_a_wrong_subfile_count_is_named(tmp_path, capsys, command):
    # counted before the rows are read, not left to fail their reshape
    _, _, err = run_on_malformed(tmp_path, capsys, command, "subfiles-extra")
    assert err == "error: storage file needs 1 sub-files\n"


@pytest.mark.parametrize("n,k,d,p", [(6, 2, 3, 13), (12, 4, 8, 17), (6, 3, 4, 2**61 - 1)])
def test_storage_round_trip(n, k, d, p):
    # written and read back, the storage is encode_file's array again, in
    # exact_dtype(1, p): int64 where no product of two dits overflows it,
    # Python ints above that; either way it lists as Python ints
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(n + k)))
    text = cli._storage_text(params, storage)
    loaded_params, loaded = cli._storage_from_json(json.loads(text))
    assert loaded_params is params
    for st in (storage, loaded):
        assert st.shape == (params.subfiles, n, 2, k - 1)
        assert st.dtype == exact_dtype(1, p)
        assert all(type(x) is int for x in st.ravel().tolist())
    assert loaded.tolist() == storage.tolist()


@pytest.mark.parametrize("message", [[True, False] * 6, [1.5] * 12, ["1"] * 12, {}])
def test_encode_rejects_non_int_message(tmp_path, capsys, message):
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps(message))
    code, out, err = run_cli(
        capsys, "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
        "--in", str(msg),
    )
    assert one_line_usage_error(code, out, err)


UNREADABLE = {  # (text, where a list of ints opens) -> bytes json.load rejects
    "int-of-5000-digits": lambda text, at: text.replace(at, at + "1" * 5000 + ",", 1).encode(),
    "not-utf-8": lambda text, at: b"\xff" + text.encode(),
    "nested-100000-deep": lambda text, at: b"[" * 100000,
    # read with universal newlines, so the error counts lines and chars of LF text
    "crlf-truncated": lambda text, at: text.replace("\n", "\r\n")[:len(text) // 2].encode(),
    "utf-8-bom": lambda text, at: "\ufeff".encode() + text.encode(),
}
STORAGE_READS = (["retrieve"], ["repair", "--failed", "1", "--helpers", "2,4,5,6"])


@pytest.mark.parametrize("command", ["encode", "retrieve"])
@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_json_usage_error(stored_634, tmp_path, capsys, command, case):
    # a ValueError or RecursionError inside json.load exits 2 naming the
    # file, for encode's message and for a storage file's rowM alike, in
    # json.load's own words on every read: a failed parse is never cached
    source, at = ("msg", "[") if command == "encode" else ("storage", '"rowM": [')
    text = Path(stored_634[source]).read_text(encoding="utf-8")
    assert at in text
    path = tmp_path / "bad.json"
    path.write_bytes(UNREADABLE[case](text, at))
    with pytest.raises((ValueError, RecursionError)) as exc, open(path, encoding="utf-8") as fh:
        json.load(fh)
    reads = [["encode", *P634]] if command == "encode" else STORAGE_READS
    for argv in reads * 2:
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert one_line_usage_error(code, out, err)
        assert err == f"error: cannot read {path}: {exc.value}\n"


def write_storage(path, symbols, params=make_params(6, 3, 4, 13)):
    """The storage file of ``symbols`` at (6,3,4,13), as encode writes it; its bytes."""
    data = cli._storage_text(params, encode_file(params, symbols)).encode()
    path.write_bytes(data)
    return data


def rewrite_in_as_many_bytes(path):
    """Store another message in ``path``, in as many bytes and at the same
    mtime as the (6,3,4,13) storage file there; that message."""
    first, stat = path.read_bytes(), path.stat()
    params, rng = make_params(6, 3, 4, 13), SplitMix64(5)
    while True:
        symbols = random_symbols(params, rng)
        second = write_storage(path, symbols)
        if len(second) == len(first) and second != first:
            break
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    return symbols


def test_storage_cache_is_keyed_by_content(tmp_path, capsys):
    # the same path, size and mtime with other bytes is another file: a cache
    # keyed by path or stat would hand back the first message
    path = tmp_path / "storage.json"
    write_storage(path, list(range(12)))
    assert json.loads(run_cli(capsys, "retrieve", "--in", str(path))[1]) == list(range(12))
    symbols = rewrite_in_as_many_bytes(path)
    code, out, _ = run_cli(capsys, "retrieve", "--in", str(path))
    assert code == 0 and json.loads(out) == symbols


def test_storage_cache_keeps_no_error(tmp_path, capsys):
    # good, malformed, good: a bad read is never cached and never spoils a good one
    path = tmp_path / "storage.json"
    good = write_storage(path, list(range(12)))
    bad_dit = MALFORMED["dit-equals-p"](json.loads(good))
    codes = []
    for data in (good, good[:-9], good, json.dumps(bad_dit).encode(), good):
        path.write_bytes(data)
        for argv in STORAGE_READS:
            codes.append(run_cli(capsys, *argv, "--in", str(path))[0])
    assert codes == [0, 0, 2, 2, 0, 0, 2, 2, 0, 0]


def test_cached_storage_is_read_only_and_bounded(tmp_path):
    data = write_storage(tmp_path / "storage.json", list(range(12)))
    params, storage = cli._read(str(tmp_path / "storage.json"), cli._stored)
    assert cli._stored(data)[1] is storage is cli._STORED[data][1]
    with pytest.raises(ValueError, match="read-only"):
        storage[0, 0, 0, 0] = 1
    for i in range(9):
        path = tmp_path / f"storage{i}.json"
        write_storage(path, [(x + i) % 13 for x in range(12)])
        assert main(["retrieve", "--in", str(path), "--out", os.devnull]) == 0
    assert len(cli._STORED) <= 8 and data not in cli._STORED
    # least recently used goes first: the oldest entry, read again, outlives the next
    oldest = next(iter(cli._STORED))
    cli._stored(oldest)
    write_storage(path, list(range(12))[::-1])  # none of the messages above
    assert main(["retrieve", "--in", str(path), "--out", os.devnull]) == 0
    assert len(cli._STORED) <= 8 and oldest in cli._STORED


def storage_bytes(storage) -> bytes:
    return cli._storage_text(make_params(6, 3, 4, 13), storage).encode()


def test_storage_cache_finds_equal_bytes_under_the_first_key():
    # a fresh bytes object equal to a cached key hits, and the entry stays
    # under the key object it was cached with, now the newest
    cli._STORED.clear()
    first = storage_bytes(np.zeros((1, 6, 2, 2), dtype=np.int64))
    other = storage_bytes(np.ones((1, 6, 2, 2), dtype=np.int64))
    stored = cli._stored(first)[1]
    cli._stored(other)
    fresh = bytes(bytearray(first))
    assert fresh == first and fresh is not first
    assert cli._stored(fresh)[1] is stored
    keys = list(cli._STORED)
    assert len(keys) == 2 and keys[0] is other and keys[1] is first


def test_storage_cache_misses_bytes_of_the_same_length(monkeypatch):
    # one dit changed from 0 to 5: as long, one byte apart, parsed once
    cli._STORED.clear()
    storage = np.zeros((1, 6, 2, 2), dtype=np.int64)
    first = storage_bytes(storage)
    cli._stored(first)
    storage[0, 2, 0, 1] = 5
    changed = storage_bytes(storage)
    assert len(changed) == len(first)
    assert sum(a != b for a, b in zip(first, changed)) == 1
    loads, load = [], cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda data: loads.append(data) or load(data))
    assert cli._stored(changed)[1].tolist() == storage.tolist()
    assert loads == [changed] and list(cli._STORED) == [first, changed]


SEEDED = [(6, 3, 4, 13), (12, 4, 8, 17), (64, 20, 38, 67), (6, 3, 4, 2**61 - 1),
          (6, 3, 4, 2**64 - 59)]


@pytest.mark.parametrize("n, k, d, p", SEEDED)
def test_encode_seeds_the_parse_of_its_file(tmp_path, n, k, d, p):
    # the entry encode --out puts in the cache is what a parse of the file's
    # bytes on disk gives: the one params object, a read-only C-ordered
    # array in exact_dtype(1, p) that lists as Python ints
    params = make_params(n, k, d, p)
    msg, path = tmp_path / "msg.json", tmp_path / "storage.json"
    msg.write_text(json.dumps(random_symbols(params, SplitMix64(3))))
    cli._STORED.clear()
    argv = ["--n", str(n), "--k", str(k), "--d", str(d), "--prime", str(p)]
    assert main(["encode", *argv, "--in", str(msg), "--out", str(path)]) == 0
    data = path.read_bytes()
    assert list(cli._STORED) == [data]
    seeded_params, seeded = cli._STORED[data]
    parsed_params, parsed = cli._storage_from_json(cli._load_json(data))
    assert seeded_params is parsed_params is params
    assert seeded.dtype == parsed.dtype == exact_dtype(1, p)
    assert seeded.shape == parsed.shape == params.storage_shape
    assert seeded.flags.c_contiguous and not seeded.flags.writeable
    assert {type(x) for x in seeded.ravel().tolist()} == {int}
    assert seeded.tolist() == parsed.tolist()


def test_files_of_equal_params_parse_to_one_object(tmp_path):
    # a file encode writes and one of the same code from another writer, in
    # json's compact form, both yield the params object make_params gives
    params = make_params(12, 4, 8, 17)
    msg, encoded, other = (tmp_path / name for name in ("msg", "encoded", "other"))
    msg.write_text(json.dumps(random_symbols(params, SplitMix64(5))))
    argv = ["--n", "12", "--k", "4", "--d", "8", "--prime", "17"]
    assert main(["encode", *argv, "--in", str(msg), "--out", str(encoded)]) == 0
    storage = encode_file(params, random_symbols(params, SplitMix64(6)))
    other.write_text(json.dumps(storage_doc(params, storage)))
    cli._STORED.clear()
    read = [cli._read(str(path), cli._stored) for path in (encoded, other)]
    assert read[0][0] is read[1][0] is params
    assert read[1][1].tolist() == storage.tolist()


def test_encode_seeds_only_a_written_file(tmp_path, capsys):
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps(list(range(12))))
    cli._STORED.clear()
    code, out, _ = run_cli(capsys, "encode", *P634, "--in", str(msg))
    assert code == 0 and out.startswith("{")
    unwritable = tmp_path / "missing" / "storage.json"
    argv = ["encode", *P634, "--in", str(msg), "--out", str(unwritable)]
    assert one_line_usage_error(*run_cli(capsys, *argv))
    assert cli._STORED == {}


def test_seeded_file_rewritten_is_parsed_again(tmp_path, capsys):
    # another writer's bytes of the same length and mtime miss the entry
    # encode seeded: the entry's message would come back
    msg, path = tmp_path / "msg.json", tmp_path / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    assert main(["encode", *P634, "--in", str(msg), "--out", str(path)]) == 0
    symbols = rewrite_in_as_many_bytes(path)
    code, out, _ = run_cli(capsys, "retrieve", "--in", str(path))
    assert code == 0 and json.loads(out) == symbols


@pytest.mark.parametrize("argv", [
    ["--k", "0", "--d", "4", "--B", "12"],
    ["--k", "3", "--d", "0", "--B", "12"],
    ["--k", "0", "--d", "0", "--B", "12"],
    ["--k", "5", "--d", "4", "--B", "12"],
    ["--k", "3", "--d", "4", "--B", "-12"],
    ["--k", "3", "--d", "4", "--B", "-12", "--betas", ""],
], ids=["k0", "d0", "k0-d0", "k-over-d", "B-negative", "B-negative-empty-grid"])
def test_tradeoff_bad_regime_usage_error(capsys, argv):
    # checked before B / (k d) is formed, so k = 0 or d = 0 is no ZeroDivisionError
    code, out, err = run_cli(capsys, "tradeoff", *argv)
    assert one_line_usage_error(code, out, err)


def test_tradeoff_huge_file_bisects(capsys):
    # a scan over every alpha in [0, B] would run for minutes here
    code, out, _ = run_cli(capsys, "tradeoff", "--k", "3", "--d", "4",
                           "--B", "1200000000")
    assert code == 0
    assert "optimal alpha=400000000 d_beta_q=400000000" in out


@pytest.mark.parametrize("argv, line", [
    (["--k", "3", "--d", "4", "--B", "12000000000000000000"],
     "optimal alpha=4000000000000000000 d_beta_q=4000000000000000000"),
    (["--k", "10000000000000000000", "--d", "10000000000000000000", "--B", "12"],
     "warning: no simultaneous optimum"),
], ids=["B", "k-and-d"])
def test_tradeoff_past_sys_maxsize(capsys, argv, line):
    # the bisections take (lo, hi) ints, never a range longer than sys.maxsize
    code, out, err = run_cli(capsys, "tradeoff", *argv)
    assert code == 0
    assert line in out
    assert "Traceback" not in out + err


def test_tradeoff_huge_k_and_d():
    # the feasibility sums are closed-form: no loop over k = 10^8 terms
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "qregen.cli", "tradeoff", "--k", "100000000",
         "--d", "100000000", "--B", "12"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == 0
    assert "warning: no simultaneous optimum" in run.stdout


def test_sweep_over_the_limit_exits_2():
    # 64 C(63,38) repairs per trial would never end; the pass is sized first
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "qregen.cli", "sweep", "--n", "64", "--k", "20",
         "--d", "38", "--prime", "67", "--trials", "1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert one_line_usage_error(run.returncode, run.stdout, run.stderr)
    assert "a check pass at (64,20,38) needs " in run.stderr


class Encoding(Exception):
    """Raised in place of drawing the message: the pass got past its limit."""


@pytest.mark.parametrize("limit", [55_935, 55_934])
def test_sweep_limit_counts_repairs_and_retrievals(capsys, monkeypatch, limit):
    # (12,4,8,17): 12 failed nodes x C(11,8) helper sets x 28 sub-files
    # = 55,440 sub-file repairs, plus C(12,4) = 495 retrievals
    def drawing(params, rng):
        raise Encoding

    assert cli.SWEEP_LIMIT >= 55_935  # the 28-sub-file instance still runs
    monkeypatch.setattr(cli, "SWEEP_LIMIT", limit)
    monkeypatch.setattr(cli, "random_symbols", drawing)
    argv = ["sweep", "--n", "12", "--k", "4", "--d", "8", "--prime", "17",
            "--trials", "1"]
    if limit == 55_935:
        with pytest.raises(Encoding):
            main(argv)
    else:
        assert one_line_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize("trials", [2, 3])
def test_sweep_limit_counts_every_trial(capsys, monkeypatch, trials):
    # (6,3,4,13): 6 failed nodes x C(5,4) helper sets + C(6,3) retrievals
    # = 50 per pass, so a limit of 100 admits two trials and not three
    def drawing(params, rng):
        raise Encoding

    monkeypatch.setattr(cli, "SWEEP_LIMIT", 100)
    monkeypatch.setattr(cli, "random_symbols", drawing)
    argv = ["sweep", *P634, "--trials", str(trials)]
    if trials == 2:
        with pytest.raises(Encoding):
            main(argv)
    else:
        code, out, err = run_cli(capsys, *argv)
        assert one_line_usage_error(code, out, err)
        assert "--trials 3 runs 150 in all, over the limit of 100" in err


class Reached(Exception):
    """Raised in place of building params or drawing a message."""


def reached(*args):
    raise Reached


@pytest.mark.parametrize("n, k, d", [
    (40, 6, 39),  # C(39, 10) = 635,745,396 sub-files: would run for hours
    (100_000_000, 2, 3),  # make_params alone would exhaust memory
    (1_000_000, 251_000, 999_999),  # n * d is over; C(d, 2k-2) would take seconds
], ids=["many-subfiles", "many-nodes", "huge-comb"])
def test_storage_over_the_limit_exits_2(capsys, monkeypatch, n, k, d):
    monkeypatch.setattr(cli, "make_params", reached)
    monkeypatch.setattr(cli, "random_symbols", reached)
    argv = ["repair", "--n", str(n), "--k", str(k), "--d", str(d),
            "--prime", "1000000007", "--failed", "1", "--helpers", "2,3,4"]
    code, out, err = run_cli(capsys, *argv)
    assert one_line_usage_error(code, out, err)
    assert f"({n},{k},{d}) stores n * C(d, 2k-2) node sub-files" in err


def test_storage_file_over_the_limit_exits_2(tmp_path, capsys, monkeypatch):
    # unchecked, a 3 MB file at (10^6, 250002, 999999) spends 7 s in
    # make_params and then raises a ValueError formatting C(d, 2k-2)
    monkeypatch.setattr(cli, "make_params", reached)
    path = tmp_path / "storage.json"
    n = 1001  # n * d = 1001 * 1000 is over 10^6
    path.write_text(json.dumps({"params": {"n": n, "k": 2, "d": 1000, "p": 1009},
                                "subfiles": [[0] * n]}))
    code, out, err = run_cli(capsys, "retrieve", "--in", str(path))
    assert one_line_usage_error(code, out, err)
    assert "(1001,2,1000) stores n * C(d, 2k-2) node sub-files" in err


@pytest.mark.parametrize("n, k, d, over", [
    (25, 2, 2, False),  # n * T = 25 * 1, at the limit
    (26, 2, 2, True),
    (6, 2, 3, False),  # n * C(3, 2) = 18
    (9, 2, 3, True),  # n * d = 27 is over already
    (5, 2, 4, True),  # n * d = 20 is not, n * C(4, 2) = 30 is
])
def test_storage_limit_is_n_times_subfiles(capsys, monkeypatch, n, k, d, over):
    monkeypatch.setattr(cli, "SWEEP_LIMIT", 25)
    monkeypatch.setattr(cli, "make_params", reached)
    argv = ["sweep", "--n", str(n), "--k", str(k), "--d", str(d), "--prime", "31"]
    if over:
        assert one_line_usage_error(*run_cli(capsys, *argv))
    else:
        with pytest.raises(Reached):
            main(argv)


def test_repair_names_d_helpers(capsys):
    # d = 3 exceeds 2k-2 = 2: the message counts the d helpers repair needs
    code, out, err = run_cli(
        capsys, "repair", "--n", "6", "--k", "2", "--d", "3", "--prime", "13",
        "--failed", "4", "--helpers", "1,2,4",
    )
    assert one_line_usage_error(code, out, err)
    assert err == "error: need 3 distinct helpers in [1, 6] excluding node 4\n"


@pytest.mark.parametrize("failed", ["0", "7", "-1"])
def test_repair_failed_node_out_of_range(capsys, failed):
    # checked before any other work: node 0 would read node n's point
    code, out, err = run_cli(capsys, "repair", *P634, "--failed", failed,
                             "--helpers", "1,2,3,4")
    assert one_line_usage_error(code, out, err)
    assert err == f"error: failed node {failed} out of range\n"


def test_repair_helper_0_exits_2(capsys):
    # helper 0 is out of range: it would read node n's rows through index -1
    code, out, err = run_cli(capsys, "repair", "--n", "6", "--k", "3", "--d", "4",
                             "--prime", "13", "--failed", "1", "--helpers", "0,2,3,4")
    assert one_line_usage_error(code, out, err)
    assert err == "error: need 4 distinct helpers in [1, 6] excluding node 1\n"


def test_prime_past_the_proven_range_exits_2(tmp_path, capsys):
    # the first strong pseudoprime to every Miller-Rabin base is_prime tries
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps(list(range(12))))
    pseudo = "318665857834031151167461"
    for argv in (
        ["encode", "--in", str(msg)],
        ["repair", "--failed", "1", "--helpers", "2,4,5,6"],
        ["sweep", "--trials", "1"],
    ):
        code, out, err = run_cli(capsys, *argv, "--n", "6", "--k", "3", "--d", "4",
                                 "--prime", pseudo)
        assert one_line_usage_error(code, out, err)
        assert "field order must be below 318665857834031151167461" in err
    for prime in (2**61 - 1, 2**64 - 59):
        code, out, _ = run_cli(capsys, "repair", "--n", "6", "--k", "3", "--d", "4",
                               "--prime", str(prime), "--failed", "1",
                               "--helpers", "2,4,5,6")
        assert code == 0 and json.loads(out)["quditTotal"] == 4


P634 = ("--n", "6", "--k", "3", "--d", "4", "--prime", "13")


def break_repair(monkeypatch, error, failed=2, helpers=(1, 3, 4, 5)):
    """qregen.repair.run_repair raises ``error`` for one (failed, helpers) case only."""
    real = repair.run_repair

    def run_repair(params, storage, f, hs, *rest):
        if (f, tuple(hs)) == (failed, helpers):
            raise error("injected")
        return real(params, storage, f, hs, *rest)

    monkeypatch.setattr(repair, "run_repair", run_repair)


def break_retrieve(monkeypatch, nodes=(2, 4, 6), error=None):
    """cli.retrieve_file from ``nodes`` raises ``error`` or returns a wrong message."""
    real = cli.retrieve_file

    def retrieve_file(params, storage, ids):
        symbols = real(params, storage, ids)
        if tuple(ids) != nodes:
            return symbols
        if error is not None:
            raise error("injected")
        wrong = symbols.copy()
        wrong[0] = (wrong[0] + 1) % params.p
        return wrong

    monkeypatch.setattr(cli, "retrieve_file", retrieve_file)


SWEEP_BREAKS = {  # name: (patch, stderr line of trial t)
    "repair-mismatch": (
        lambda mp: break_repair(mp, errors.RegenerationMismatch),
        "failure: trial {t} repair/linear failed=2 helpers=1,3,4,5 RegenerationMismatch"),
    "wrong-message": (
        break_retrieve,
        "failure: trial {t} retrieve nodes=2,4,6 wrong-message"),
    "retrieve-raises": (  # at the parent this escaped sweep with no summary
        lambda mp: break_retrieve(mp, error=errors.Singular),
        "failure: trial {t} retrieve nodes=2,4,6 Singular"),
}


@pytest.mark.parametrize("case", list(SWEEP_BREAKS))
def test_sweep_names_each_failure(capsys, monkeypatch, case):
    patch, line = SWEEP_BREAKS[case]
    patch(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", *P634, "--seed", "42", "--trials", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == 2  # one affected case in each trial
    assert (doc["repairTrials"], doc["retrievalTrials"]) == (60, 40)
    assert err.splitlines() == [line.format(t=0), line.format(t=1)]


def test_sweep_names_a_wrong_qudit_total(capsys, monkeypatch):
    # every repair still regenerates its node, but reports B/k + 1 qudits
    monkeypatch.setattr(repair.RepairTranscript, "qudit_total",
                        property(lambda t: t.payloads[:, 0].size + 1))
    code, out, err = run_cli(capsys, "sweep", *P634, "--trials", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == 30
    assert doc["quditTotal"] == {"min": 5, "max": 5, "expected": 4}
    lines = err.splitlines()
    assert len(lines) == 30
    assert all(line.startswith("failure: trial 0 repair/linear ")
               and line.endswith(" qudit-total") for line in lines)


@pytest.mark.parametrize("patch, failed_checks", [
    (lambda mp: break_repair(mp, errors.RegenerationMismatch), ["exact-repair"]),
    (break_retrieve, ["retrieval"]),
    # the containment check is live: a failing group fails its repair too
    (lambda mp: break_repair(mp, errors.DualContainmentViolated),
     ["dual-containment", "exact-repair"]),
], ids=["repair-mismatch", "wrong-message", "dual-containment"])
def test_selftest_reports_failed_checks(capsys, monkeypatch, patch, failed_checks):
    patch(monkeypatch)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert [line[5:] for line in lines if line.startswith("FAIL ")] == failed_checks
    passed = 6 - len(failed_checks)
    assert lines[-1] == f"{passed}/6 selftest checks pass"
    assert err and all(line.startswith("failure: trial 0 ") for line in err.splitlines())


def test_selftest_names_the_repairs_it_runs(capsys, monkeypatch):
    # every repair of node 1 from 2,4,5,6 fails, and each record names it:
    # the two of the check pass and the one in statevector mode after it
    break_repair(monkeypatch, errors.RegenerationMismatch, failed=1, helpers=(2, 4, 5, 6))
    code, _, err = run_cli(capsys, "selftest")
    assert code == 1
    assert err.splitlines() == [
        f"failure: trial 0 repair/{mode} failed=1 helpers=2,4,5,6 RegenerationMismatch"
        for mode in ("linear", "symplectic", "statevector")
    ]


@pytest.mark.parametrize("p", [3037000493, 3037000507, 2**61 - 1])
def test_exact_at_the_largest_prime(tmp_path, capsys, monkeypatch, p):
    # the largest prime with (p - 1)^2 < 2^63 holds its field data in int64,
    # the next one and 2^61 - 1 as Python ints, as a product of two dits can
    # overflow int64 there; all three agree with the pure-int reference
    message = [p - 1 - 3**i for i in range(12)]
    msg, storage = tmp_path / "msg.json", tmp_path / "storage.json"
    msg.write_text(json.dumps(message))
    params = ("--n", "6", "--k", "3", "--d", "4", "--prime", str(p))
    kind = exact_dtype(1, p)
    assert kind is (np.int64 if p == 3037000493 else object)
    code, _, _ = run_cli(capsys, "encode", *params, "--in", str(msg),
                         "--out", str(storage))
    assert code == 0
    encoded = cli._STORED[storage.read_bytes()][1]
    cli._STORED.clear()  # so that every read below parses the file
    parsed = cli._read(str(storage), cli._stored)[1]
    assert encoded.dtype == parsed.dtype == kind
    assert encoded.tolist() == parsed.tolist()
    returned = {"retrieve": [], "run_repair": []}  # checked at the end
    for module, name in ((qregen.pmcode, "retrieve"), (repair, "run_repair")):
        def keep(*args, real=getattr(module, name), name=name, **kwargs):
            returned[name].append(real(*args, **kwargs))
            return returned[name][-1]
        monkeypatch.setattr(module, name, keep)
    doc = json.loads(storage.read_text())

    def sym(a, b, c):
        return [[a, b], [b, c]]

    m = sym(*message[0:3]) + sym(*message[3:6])  # [S1; S2]
    mp = sym(*message[6:9]) + sym(*message[9:12])  # [S1'; S2']
    for node, x in zip(doc["subfiles"][0], doc["params"]["evalPoints"]):
        v = [1, x, x**2, x**3]  # [vbar, lam vbar] with lam = x^2
        rows = [[sum(vt * r[c] for vt, r in zip(v, s)) % p for c in range(2)]
                for s in (m, mp)]
        assert [node["rowM"], node["rowMp"]] == rows
    for nodes in ((), ("--nodes", "2,4,6")):
        code, out, _ = run_cli(capsys, "retrieve", "--in", str(storage), *nodes)
        assert (code, json.loads(out)) == (0, message)
    lost = doc["subfiles"][0][0]
    for mode in ("linear", "symplectic"):
        code, out, _ = run_cli(capsys, "repair", "--in", str(storage), "--failed", "1",
                               "--helpers", "2,4,5,6", "--mode", mode)
        regen = json.loads(out)["regenerated"]
        assert code == 0
        assert [regen["rowM"], regen["rowMp"]] == [lost["rowM"], lost["rowMp"]]
    decoded, transcripts = returned["retrieve"], returned["run_repair"]
    assert len(decoded) == len(transcripts) == 2
    for array in decoded + [a for t in transcripts
                            for a in (t.css.block, t.payloads, t.regenerated)]:
        assert array.dtype == kind
        assert all(type(x) is int for x in array.ravel().tolist())
