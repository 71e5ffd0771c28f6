"""Stdout of a fixed list of commands, pinned byte for byte by sha256.

Every command's output is deterministic, so any change to what it prints,
down to one space, fails here. ``{msg}`` and ``{storage}`` stand for a
message file and the storage file that ``encode`` makes from it; the
``623`` and ``1248`` variants are the same at (6,2,3,13) and (12,4,8,17),
whose files split into 3 and 28 sub-files, so a pass that permuted
sub-files, instances or nodes would change their digests.
"""

import hashlib
import json

import pytest

from qregen.cli import main

P634 = ("--n", "6", "--k", "3", "--d", "4", "--prime", "13")
REPAIR_IN = ("repair", "--in", "{storage}", "--failed", "1", "--helpers", "2,4,5,6")
P623 = ("--n", "6", "--k", "2", "--d", "3", "--prime", "13")
P1248 = ("--n", "12", "--k", "4", "--d", "8", "--prime", "17")
MESSAGE = [3 * i + 100 for i in range(12)]  # B = 12 at (6,3,4,13); reduced mod 13
MESSAGES = {  # file suffix -> (params, message); B = 12 and 672
    "": (P634, MESSAGE),
    "623": (P623, MESSAGE),
    "1248": (P1248, [i * i + 3 * i + 100 for i in range(672)]),
}

CASES = [  # (name, argv, sha256 of stdout)
    ("encode", ("encode", *P634, "--in", "{msg}"),
     "f535850ce6b4a43161f5af1a029685be91150c46c7cf9d2d41f0f18ea316f39d"),
    ("retrieve", ("retrieve", "--in", "{storage}"),
     "0330ccf479c5a42a110bed635938bce52fa78795afa6ba0300eb79ecf04b1818"),
    ("retrieve-nodes", ("retrieve", "--in", "{storage}", "--nodes", "2,4,6"),
     "0330ccf479c5a42a110bed635938bce52fa78795afa6ba0300eb79ecf04b1818"),
    ("repair-linear", REPAIR_IN,
     "cdeabad6349cb0c7af5cc1fe74b5d2505ca21df9db39196935094833c60ab21f"),
    ("repair-symplectic", (*REPAIR_IN, "--mode", "symplectic"),
     "2c84874b80b4d8e2a5be5f0cd6f2e338597858a8f81379cfb4d1b9d079cd0004"),
    ("repair-statevector", (*REPAIR_IN, "--mode", "statevector"),
     "a7d0ed0b38c7a0c22073beed0e12e2ebb29d4bdecfbb1399e55438cd4de984bf"),
    ("repair-seeded-statevector", ("repair", *P634, "--seed", "7", "--failed", "2",
                                   "--helpers", "1,3,5,6", "--mode", "statevector"),
     "8b3de335986f1d845266894a31c324a58c189969eba95e8ff774c4110ea902cb"),
    ("repair-extended", ("repair", "--n", "6", "--k", "2", "--d", "3", "--prime", "13",
                         "--seed", "3", "--failed", "4", "--helpers", "1,2,6"),
     "2bf3f01958b2527d5278c5f10e9c962aa9c4bfda6127079d954a4407eceae119"),
    ("sweep", ("sweep", *P634, "--seed", "5", "--trials", "1"),
     "cc357f277a7224f2102ee1abe188dc317db2844cb6028882316ef2f6a9b4de5c"),
    ("selftest", ("selftest",),
     "b9999b5bc7483c4dfd60339f1eee813a26cc2bc1c255c30551d28e1251996668"),
    ("demo-text", ("demo-example1",),
     "3efc2a3299829fb436b3aa674ebc42ddcd2991b5121a51e046b0ddd15bae4c8e"),
    ("demo-json", ("demo-example1", "--format", "json"),
     "73d780ad683d977f38623c5cc2fecac78e60b7722a1ef3b8d739923852515a90"),
    ("tradeoff", ("tradeoff", "--k", "3", "--d", "4", "--B", "12"),
     "9c2d53a842ba93d0f943ff1d3bbaa6add9513508f0e001c3a5042eb7e1905753"),
    ("encode-623", ("encode", *P623, "--in", "{msg623}"),
     "ab548ab636a810ad5e42d7fc20468263a12ccebf1173d9fd97e126372ab7b42b"),
    ("retrieve-nodes-623",
     ("retrieve", "--in", "{storage623}", "--nodes", "5,2"),
     "0330ccf479c5a42a110bed635938bce52fa78795afa6ba0300eb79ecf04b1818"),
    ("encode-1248", ("encode", *P1248, "--in", "{msg1248}"),
     "a71de9e1f3018efc9440301c5ab56fb21496483a45b2234cfe6d5e28b0df43e9"),
    ("retrieve-nodes-1248",
     ("retrieve", "--in", "{storage1248}", "--nodes", "9,3,12,5"),
     "9e858d0c2042bce464e71ca8f672e71ca5886d1012aed512f802f2f4f641c40e"),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for suffix, (params, message) in MESSAGES.items():
        msg, storage = root / f"msg{suffix}.json", root / f"storage{suffix}.json"
        msg.write_text(json.dumps(message))
        assert main(["encode", *params, "--in", str(msg), "--out", str(storage)]) == 0
        paths |= {f"msg{suffix}": str(msg), f"storage{suffix}": str(storage)}
    return paths


@pytest.mark.parametrize("argv, digest", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_stdout_unchanged(argv, digest, files, capsys):
    code = main([arg.format(**files) for arg in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


WRITTEN = ["encode-1248", "retrieve-nodes-1248"]  # the benchmark encodes via --out


@pytest.mark.parametrize("name", WRITTEN)
def test_written_file_unchanged(name, files, tmp_path, capsys):
    # --out writes the same bytes as stdout, so the stdout digest pins the file
    argv, digest = next(case[1:] for case in CASES if case[0] == name)
    out = tmp_path / "out.json"
    code = main([*(arg.format(**files) for arg in argv), "--out", str(out)])
    assert (code, capsys.readouterr().out) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
