"""Tests of the benchmark itself: counts, oracle and result-line contract.

Run from the root of the repository with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import oracle
import run

sys.path.insert(0, str(run.ROOT / "src"))

from qregen.cli import main as qregen_main  # noqa: E402

# Counts that depend only on the parameters and the op kind, never on the data.
REPEATING = ("matrix.inv_calls", "matrix.matmul_macs", "css.build_calls", "repair.qudits",
             "stabilizer.amplitudes")


@pytest.fixture
def workdir():
    """A fresh directory under the checkout's ignored output directory."""
    run.OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR))
    yield path
    shutil.rmtree(path)


def _traced_counts(name: str, seed: int, workdir: Path) -> dict[str, float]:
    from spans import Tracer

    bench = run.Bench(run.WORKLOADS[name], seed, workdir)
    bench.setup()
    tracer = Tracer()
    tracer.install()
    try:
        latency = bench.measure(0, tracer).latency  # one cycle of the mix
    finally:
        tracer.uninstall()
    assert bench.failed == 0, bench.faults
    values = run.layer_values(tracer, latency)
    return {f"{kind}.{m}": values[f"{kind}.{m}"]
            for kind in latency for m in REPEATING if m in run.OP_LAYERS[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_data_independent_counts_repeat_across_seeds(name, workdir):
    (workdir / "a").mkdir()
    (workdir / "b").mkdir()
    first = _traced_counts(name, 1, workdir / "a")
    second = _traced_counts(name, 2, workdir / "b")
    assert first == second
    wl = run.WORKLOADS[name]
    assert first["repair.repair.qudits"] == wl.qudits
    assert first["repair.css.build_calls"] == oracle.Code(wl.n, wl.k, wl.d, wl.p).subfiles


def _run_cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qregen_main(list(argv)) == 0
    return out.getvalue()


def test_oracle_accepts_program_output_and_rejects_corruption(workdir):
    code = oracle.Code(6, 3, 4, 13)
    message = [(7 * i + 3) % 13 for i in range(code.B)]
    rows = code.stored_rows(message)
    msg, store = workdir / "msg.json", workdir / "store.json"
    msg.write_text(json.dumps(message))
    _run_cli("encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
             "--in", str(msg), "--out", str(store))
    doc = json.loads(store.read_text())
    assert oracle.check_storage(code, doc, rows) is None
    doc["subfiles"][0][4]["rowMp"][1] = (doc["subfiles"][0][4]["rowMp"][1] + 1) % 13
    assert oracle.check_storage(code, doc, rows) == "sub-file 0 node 5 differs"

    got = json.loads(_run_cli("retrieve", "--in", str(store), "--nodes", "2,4,6"))
    assert oracle.check_retrieve(message, got) is None
    assert oracle.check_retrieve(message, got[::-1]) is not None

    transcript = json.loads(_run_cli("repair", "--in", str(store), "--failed", "1",
                                     "--helpers", "2,4,5,6"))
    assert oracle.check_repair(code, rows, 1, [6, 5, 4, 2], "linear", transcript) is None
    assert oracle.check_repair(code, rows, 1, [2, 4, 5, 6], "symplectic", transcript)
    transcript["regenerated"]["rowM"][0] += 1
    assert "differ" in oracle.check_repair(code, rows, 1, [2, 4, 5, 6], "linear", transcript)
    transcript["quditTotal"] = 5
    assert "quditTotal" in oracle.check_repair(code, rows, 1, [2, 4, 5, 6], "linear",
                                               transcript)


def _result(*argv: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_listed_metric(trace, key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec[key]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    proc = _result("--workload", "statevector", "--seed", "3", "--seconds", "1",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == listed


def test_fails_without_the_program(workdir):
    """Beside only BENCHMARK.json and bench/, the run exits nonzero with no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.HERE, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result("--workload", "wide-node", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
