"""The benchmark tracer patches names by owner and attribute; each must exist.

A renamed or moved function would otherwise break only ``bench/run.py
--trace 1``, which no test runs.
"""

import importlib.util
import json
import os
from pathlib import Path

from caches import clear_caches

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_defined_on_its_owner():
    spans = load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def traced(command, *argv):
    """(exit code, tracer) of one traced CLI call."""
    from qregen.cli import main

    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.call_op(command, main, [command, *argv, "--out", os.devnull])
    finally:
        tracer.uninstall()
    return code, tracer


def traced_repair(*mode):
    """(exit code, tracer) of one traced CLI repair at (6,2,3,13)."""
    return traced("repair", "--n", "6", "--k", "2", "--d", "3", "--prime", "13",
                  "--seed", "3", "--failed", "4", "--helpers", "1,2,6", *mode)


def test_retrieve_parses_a_stored_file_once(tmp_path):
    # a file this process encoded is never parsed: encode cached it as it
    # wrote it; another writer's file is parsed on its first read alone
    from qregen.cli import _storage_text, main
    from qregen.pmcode import encode_file, make_params

    msg, storage = tmp_path / "msg.json", tmp_path / "storage.json"

    def encode(symbols):
        msg.write_text(json.dumps(symbols))
        assert main(["encode", "--n", "6", "--k", "3", "--d", "4", "--prime", "13",
                     "--in", str(msg), "--out", str(storage)]) == 0

    def parses():
        """(json_load, make_params) span counts of one traced retrieve."""
        code, tracer = traced("retrieve", "--in", str(storage))
        assert code == 0
        seen = tracer.self_times()
        return [seen.get(("retrieve", name), (0,))[0]
                for name in ("cli.json_load", "pmcode.make_params")]

    clear_caches()
    encode(list(range(12)))
    encoded = parses(), parses()
    encode(list(range(1, 13)))
    reencoded = parses()
    params = make_params(6, 3, 4, 13)
    storage.write_bytes(_storage_text(params, encode_file(params, list(range(2, 14)))).encode())
    written = parses(), parses()
    assert (encoded, reencoded, written) == (([0, 0], [0, 0]), [0, 0], ([1, 1], [0, 0]))


def test_cli_repair_trace_counts_one_file_repair():
    # (6,2,3,13) has three sub-files: one run_repair span covers them all, one
    # helper_encode product serves every helper of every sub-file, and the
    # transcript carries the file's B/k = 6 qudits
    code, tracer = traced_repair()
    assert code == 0
    assert tracer.counts["repair", "repair.qudits"] == 6
    spans_seen = tracer.self_times()
    assert spans_seen["repair", "css.build"][0] == 3
    assert spans_seen["repair", "repair.run_repair"][0] == 1
    assert spans_seen["repair", "repair.helper_encode"][0] == 1


def test_warm_repair_traces_like_a_cold_one():
    # the bench pins css.build spans and matrix.matmul_macs per op: a repair
    # whose three CSS bases come from the cache still builds and checks
    # each sub-file's code, so both counts repeat; only the inversions drop,
    # from the one that builds GF(13)'s table of inverses to none. No op
    # multiplies through Mat any more, encode included, so the macs read 0
    # both times
    clear_caches()
    (cold_code, cold), (warm_code, warm) = traced_repair(), traced_repair()
    assert cold_code == warm_code == 0
    for tracer in (cold, warm):
        assert tracer.self_times()["repair", "css.build"][0] == 3
    macs = [t.counts["repair", "matrix.matmul_macs"] for t in (cold, warm)]
    assert macs == [0, 0]
    assert [t.counts["repair", "gf.inv_calls"] for t in (cold, warm)] == [1, 0]


def test_cli_statevector_repair_traces_each_codespace():
    # syndrome_statevector must reach prepare_codespace through the module
    # global, which the tracer patches: one span for the three sub-files'
    # stacked codespace, measured in one call
    code, tracer = traced_repair("--mode", "statevector")
    assert code == 0
    spans_seen = tracer.self_times()
    assert spans_seen["repair", "stabilizer.prepare_codespace"][0] == 1
    assert spans_seen["repair", "stabilizer.syndrome_statevector"][0] == 1
