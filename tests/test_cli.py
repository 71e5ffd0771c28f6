"""CLI harness: command flows, determinism, exit codes."""

import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from qregen import cli, errors, reference, tradeoff
from qregen.cli import main
from qregen.pmcode import encode_file, make_params, random_symbols
from qregen.rng import SplitMix64


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
    assert doc["retrievalSubsets"] == 20
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


@pytest.mark.parametrize("betas", ["a", "1,x", "1/0"])
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
        "InvalidHelperSet", "ZeroU", "NotAHelper", "ModeUnavailable",
        "RepeatedPoint", "TooLarge", "InvalidRegime", "RegimeViolation",
        "Indivisible",
    }


@pytest.mark.parametrize("argv", [
    ["sweep", "--trials", "1"],
    ["repair", "--failed", "1", "--helpers", "2,3,4,5,6,7"],
], ids=lambda argv: argv[0])
def test_statevector_over_limit_usage_error(capsys, argv):
    # 11^6 amplitudes: a usage error in sweep too, not seven failed repairs
    code, out, err = run_cli(
        capsys, *argv, "--n", "7", "--k", "4", "--d", "6", "--prime", "11",
        "--mode", "statevector",
    )
    assert one_line_usage_error(code, out, err)
    assert "11^6 amplitudes" in err


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
    "subfiles-object": edit_at(("subfiles",), {}),
    "subfiles-empty": edit_at(("subfiles",), []),
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


@pytest.mark.parametrize("command", ["retrieve", "repair"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_storage_usage_error(tmp_path, capsys, command, case):
    msg = tmp_path / "msg.json"
    storage = tmp_path / "storage.json"
    msg.write_text(json.dumps(list(range(12))))
    run_cli(capsys, "encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
            "--in", str(msg), "--out", str(storage))
    doc = MALFORMED[case](json.loads(storage.read_text()))
    storage.write_text(json.dumps(doc))
    argv = ["--failed", "1", "--helpers", "2,4,5,6"] if command == "repair" else []
    code, out, err = run_cli(capsys, command, "--in", str(storage), *argv)
    assert one_line_usage_error(code, out, err)


@pytest.mark.parametrize("n,k,d,p", [(6, 2, 3, 13), (12, 4, 8, 17), (6, 3, 4, 2**61 - 1)])
def test_storage_round_trip(n, k, d, p):
    # written and read back, the storage is encode_file's array again: object
    # dtype with Python-int entries, never int64, which overflows at large p
    params = make_params(n, k, d, p)
    storage = encode_file(params, random_symbols(params, SplitMix64(n + k)))
    text = cli._json_text(cli._storage_to_json(params, storage))
    loaded_params, loaded = cli._storage_from_json(json.loads(text))
    assert loaded_params == params
    for st in (storage, loaded):
        assert st.shape == (params.subfiles, n, 2, k - 1)
        assert st.dtype == object
        assert all(type(x) is int for x in st.ravel())
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


P634 = ("--n", "6", "--k", "3", "--d", "4", "--prime", "13")


def break_repair(monkeypatch, error, failed=2, helpers=(1, 3, 4, 5)):
    """cli.run_repair raises ``error`` for one (failed, helpers) case only."""
    real = cli.run_repair

    def run_repair(params, storage, f, hs, *rest):
        if (f, tuple(hs)) == (failed, helpers):
            raise error("injected")
        return real(params, storage, f, hs, *rest)

    monkeypatch.setattr(cli, "run_repair", run_repair)


def break_retrieve(monkeypatch, nodes=(2, 4, 6), error=None):
    """cli.retrieve_file from ``nodes`` raises ``error`` or returns a wrong message."""
    real = cli.retrieve_file

    def retrieve_file(params, storage, ids):
        symbols = real(params, storage, ids)
        if tuple(ids) != nodes:
            return symbols
        if error is not None:
            raise error("injected")
        return ((symbols[0] + 1) % params.p, *symbols[1:])

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


def test_exact_at_the_largest_prime(tmp_path, capsys):
    # every product of two dits overflows int64 at p = 2^61 - 1
    p = 2**61 - 1
    message = [p - 1 - 3**i for i in range(12)]
    msg, storage = tmp_path / "msg.json", tmp_path / "storage.json"
    msg.write_text(json.dumps(message))
    params = ("--n", "6", "--k", "3", "--d", "4", "--prime", str(p))
    code, _, _ = run_cli(capsys, "encode", *params, "--in", str(msg),
                         "--out", str(storage))
    assert code == 0
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
