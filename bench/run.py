"""qregen benchmark: closed-loop CLI workloads, checked against an oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wide-node --seed 1 --seconds 30 --trace 0

One client in one process and one thread calls ``qregen.cli.main(argv)``
in-process, sending the next op only when the previous one returns. Each op
keeps argparse, JSON and file I/O inside its timed interval; interpreter and
numpy start-up land in ``setup_s`` instead. Every output is checked by
``oracle.py`` outside the timed interval, and a mismatch, nonzero exit or
exception counts as a failed op. Gated latencies are scaled to reference
speed by a calibration timed next to every op (``calib.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures half the
time untraced and half traced (``spans.py``) and prints the per-layer
metrics. The last line of stdout is the JSON result; the lines before it
carry the environment stamp and figures that are printed but not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
from calib import REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

POOL_FILES = 4  # stored files every workload reads and repairs from
HOT_SETS = 4  # node sets drawn at set-up; every other op of a kind reuses one
SETUP_REPEATS = 5  # fresh processes whose set-up time is measured


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    d: int
    p: int
    mix: tuple[tuple[str, str | None], ...]  # one cycle of (op kind, repair mode)
    qudits: int  # B/k, the download every repair must report
    calibration: str  # the calib.py kernel like the work that dominates the ops
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-subfiles", 12, 4, 8, 17,
            (("encode", None), ("retrieve", None), ("repair", "linear")), 168, "python",
            "28 sub-files of tiny 3x3-6x6 matrices: Python-overhead and JSON bound; "
            "the only workload that writes (encode)",
        ),
        Workload(
            "wide-node", 64, 20, 38, 67,
            (("retrieve", None), ("repair", "linear"),
             ("retrieve", None), ("repair", "symplectic")), 38, "python",
            "the roadmap's worst case: 38x38 inversions dominate retrieve and the "
            "repair-time CSS build",
        ),
        Workload(
            "statevector", 6, 3, 4, 13,
            (("repair", "statevector"),), 4, "numpy",
            "13^4 amplitudes per repair: isolates the numpy state-vector layer and "
            "bypasses the linear algebra",
        ),
    )
}

END_TO_END = ("setup_s", "cycle_refms_p50", "cycle_refms_p90", "repair_refms_p50",
              "repair_refms_p90", "peak_rss_mb")

# Self time of a span, mean per op, in ms.
LAYER_TIMES = {
    "cli.self_ms": "cli.main",
    "cli.json_dump_ms": "cli.json_dump",
    "cli.json_load_ms": "cli.json_load",
    "pmcode.make_params_ms": "pmcode.make_params",
    "pmcode.encode_file_ms": "pmcode.encode_file",
    "pmcode.retrieve_file_ms": "pmcode.retrieve_file",
    "matrix.inv_ms": "matrix.inv",
    "matrix.matmul_ms": "matrix.matmul",
    "css.build_ms": "css.build",
    "css.dual_check_ms": "css.dual_check",
    "css.grs_weights_ms": "css.grs_weights",
    "stabilizer.group_build_ms": "stabilizer.group_build",
    "repair.run_repair_ms": "repair.run_repair",
    "repair.helper_encode_ms": "repair.helper_encode",
    "stabilizer.syndrome_linear_ms": "stabilizer.syndrome_linear",
    "stabilizer.syndrome_symplectic_ms": "stabilizer.syndrome_symplectic",
    "stabilizer.prepare_codespace_ms": "stabilizer.prepare_codespace",
    "stabilizer.syndrome_statevector_ms": "stabilizer.syndrome_statevector",
}
# Number of spans, mean per op.
LAYER_CALLS = {
    "matrix.inv_calls": "matrix.inv",
    "matrix.matmul_calls": "matrix.matmul",
    "css.build_calls": "css.build",
    "repair.run_repair_calls": "repair.run_repair",
    "stabilizer.prepare_codespace_calls": "stabilizer.prepare_codespace",
}
# Counters summed at the wrappers, mean per op; units of each are in LAYER_UNITS.
LAYER_UNITS = {
    "cli.out_bytes": "bytes",
    "pmcode.retrieve_calls": "count",
    "matrix.inv_ops": "count",
    "matrix.matmul_macs": "count",
    "gf.inv_calls": "count",
    "repair.qudits": "qudits",
    "stabilizer.amplitudes": "count",
}

_COMMON = ("op_ms", "cli.self_ms", "cli.json_dump_ms", "cli.json_load_ms", "cli.out_bytes",
        "pmcode.make_params_ms")
_MATRIX = ("matrix.inv_calls", "matrix.inv_ms", "matrix.inv_ops", "matrix.matmul_calls",
           "matrix.matmul_ms", "matrix.matmul_macs", "gf.inv_calls")
OP_LAYERS = {
    "encode": _COMMON + ("pmcode.encode_file_ms", "matrix.matmul_calls", "matrix.matmul_ms",
                      "matrix.matmul_macs"),
    "retrieve": _COMMON + ("pmcode.retrieve_file_ms", "pmcode.retrieve_calls") + _MATRIX,
    "repair": _COMMON + _MATRIX + (
        "css.build_calls", "css.build_ms", "css.dual_check_ms", "css.grs_weights_ms",
        "stabilizer.group_build_ms", "repair.run_repair_calls", "repair.run_repair_ms",
        "repair.helper_encode_ms", "repair.qudits", "stabilizer.syndrome_linear_ms",
        "stabilizer.syndrome_symplectic_ms", "stabilizer.prepare_codespace_calls",
        "stabilizer.prepare_codespace_ms", "stabilizer.syndrome_statevector_ms",
        "stabilizer.amplitudes"),
}
TRACE_SUMMARY = ("trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_frac")
PER_LAYER = tuple(f"{kind}.{m}" for kind, ms in OP_LAYERS.items() for m in ms) + TRACE_SUMMARY


def layer_unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.startswith("trace.ops_per_s"):
        return "1/s"
    if metric == "trace.overhead_frac":
        return "ratio"
    return LAYER_UNITS.get(metric.split(".", 1)[1], "count")


class Bench:
    """Inputs, stored files and ground truth of one workload run."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, check: bool = True):
        from qregen.cli import main

        self.wl = wl
        self.main = main
        self.check = check
        self.code = oracle.Code(wl.n, wl.k, wl.d, wl.p)
        if self.code.B // self.code.k != wl.qudits:
            raise ValueError(f"{wl.name}: B/k is {self.code.B // self.code.k}")
        self.rng = random.Random(f"qregen-bench/{wl.name}/{seed}")
        self.files = [str(workdir / f"store{j}.json") for j in range(POOL_FILES)]
        self.msg_file = str(workdir / "message.json")
        self.messages: list[list[int] | None] = [None] * POOL_FILES
        self.rows: list = [None] * POOL_FILES
        self.encodes = 0
        self.uses: dict[str, int] = defaultdict(int)
        self.hot = {
            "retrieve": [self._draw_ids() for _ in range(HOT_SETS)],
            "repair": [self._draw_repair() for _ in range(HOT_SETS)],
        }
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def _draw_ids(self):
        return sorted(self.rng.sample(range(1, self.wl.n + 1), self.wl.k))

    def _draw_repair(self):
        failed = self.rng.randint(1, self.wl.n)
        rest = [i for i in range(1, self.wl.n + 1) if i != failed]
        return failed, sorted(self.rng.sample(rest, self.wl.d))

    def _node_set(self, kind: str):
        """Alternate between the hot pool and a fresh uniform draw."""
        self.uses[kind] += 1
        if self.uses[kind] % 2:
            return self.rng.choice(self.hot[kind])
        return self._draw_ids() if kind == "retrieve" else self._draw_repair()

    def _call(self, argv: list[str], kind: str, tracer):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                rc = self.main(argv) if tracer is None else tracer.call_op(kind, self.main, argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed op
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        return rc, elapsed, out.getvalue()

    def _params(self) -> list[str]:
        wl = self.wl
        return ["--n", str(wl.n), "--k", str(wl.k), "--d", str(wl.d), "--prime", str(wl.p)]

    def encode(self, tracer=None) -> float:
        slot = self.encodes % POOL_FILES
        self.encodes += 1
        message = [self.rng.randrange(self.wl.p) for _ in range(self.code.B)]
        with open(self.msg_file, "w", encoding="utf-8") as fh:
            json.dump(message, fh)
        argv = ["encode", *self._params(), "--in", self.msg_file, "--out", self.files[slot]]
        rc, elapsed, _ = self._call(argv, "encode", tracer)
        self.messages[slot] = message
        fault = None
        if self.check:
            self.rows[slot] = self.code.stored_rows(message)
            if rc == 0:
                with open(self.files[slot], encoding="utf-8") as fh:
                    fault = oracle.check_storage(self.code, _parse(fh.read()), self.rows[slot])
        self._record("encode", rc, fault)
        return elapsed

    def retrieve(self, tracer=None) -> float:
        slot = self.rng.randrange(POOL_FILES)
        ids = self._node_set("retrieve")
        argv = ["retrieve", "--in", self.files[slot], "--nodes", ",".join(map(str, ids))]
        rc, elapsed, out = self._call(argv, "retrieve", tracer)
        fault = None
        if self.check and rc == 0:
            fault = oracle.check_retrieve(self.messages[slot], _parse(out))
        self._record("retrieve", rc, fault)
        return elapsed

    def repair(self, mode: str, tracer=None) -> float:
        slot = self.rng.randrange(POOL_FILES)
        failed, helpers = self._node_set("repair")
        argv = ["repair", "--in", self.files[slot], "--failed", str(failed),
                "--helpers", ",".join(map(str, helpers)), "--mode", mode]
        rc, elapsed, out = self._call(argv, "repair", tracer)
        fault = None
        if self.check and rc == 0:
            fault = oracle.check_repair(
                self.code, self.rows[slot], failed, helpers, mode, _parse(out))
        self._record("repair", rc, fault)
        return elapsed

    def _record(self, kind: str, rc, fault: str | None) -> None:
        self.attempted += 1
        if rc != 0:
            fault = f"exit {rc}"
        if fault is not None:
            self.failed += 1
            if len(self.faults) < 10:
                self.faults.append(f"{kind}: {fault}")

    def run_op(self, kind: str, mode: str | None, tracer=None) -> float:
        if kind == "encode":
            return self.encode(tracer)
        if kind == "retrieve":
            return self.retrieve(tracer)
        return self.repair(mode, tracer)

    def setup(self) -> None:
        """Initial encodes of the file pool, then one warm-up cycle of the mix."""
        for _ in range(POOL_FILES):
            self.encode()
        for kind, mode in self.wl.mix:
            self.run_op(kind, mode)

    def measure(self, seconds: float, tracer=None) -> Timings:
        """Run whole cycles of the mix until ``seconds`` have passed.

        Each op is followed by a calibration (``calib.py``); its latency is
        scaled by the mean of the calibrations on either side of it.
        """
        kernel = self.wl.calibration
        out = Timings(defaultdict(list), [], defaultdict(list), [])
        cal = calibrate(kernel)
        start = perf_counter()
        while True:
            cycle = scaled_cycle = 0.0
            for kind, mode in self.wl.mix:
                t = self.run_op(kind, mode, tracer)
                cal_after = calibrate(kernel)
                scaled = t * 2 * REF_S[kernel] / (cal + cal_after)
                cal = cal_after
                out.latency[kind].append(t)
                out.scaled[kind].append(scaled)
                cycle += t
                scaled_cycle += scaled
            out.cycles.append(cycle)
            out.scaled_cycles.append(scaled_cycle)
            if perf_counter() - start >= seconds:
                return out


@dataclass
class Timings:
    """Op latencies by kind and cycle latencies (the sum of a cycle's ops), in
    seconds: raw wall clock, and scaled to reference speed."""

    latency: dict[str, list[float]]
    cycles: list[float]
    scaled: dict[str, list[float]]
    scaled_cycles: list[float]


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _ops_per_s(latency: dict[str, list[float]]) -> float:
    times = [t for ts in latency.values() for t in ts]
    return len(times) / sum(times)


def _p90(values: list[float]) -> float:
    if len(values) < 2:  # a run shorter than two cycles
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly; exported trees have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl: Workload, seed: int) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def measure_setup_s(wl: Workload, seed: int) -> tuple[float, float]:
    """Median set-up time of SETUP_REPEATS fresh processes, in seconds: scaled
    to reference speed by each process's own calibrations, and raw.

    Set-up is mostly interpreter start, imports and encodes, so every
    workload scales it by the ``python`` kernel. The calibrations run in the
    child, before and after its set-up, and their time is taken out of the
    child's wall time.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
            "--seed", str(seed), "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-500:]}")
        cal = json.loads(proc.stdout.decode().splitlines()[-1])
        raw.append(wall - cal["total"])
        scaled.append(raw[-1] * REF_S["python"] / cal["median"])
    return statistics.median(scaled), statistics.median(raw)


def _per_cycle(by_kind: dict[str, list[float]], cycles: int) -> dict[str, list[float]]:
    """Per op kind, the mean latency of that kind's ops in each cycle.

    A cycle of wide-node holds two retrieves and two repairs, one linear and
    one symplectic; their mean keeps the two repair modes from making the
    distribution bimodal.
    """
    out = {}
    for kind, ts in by_kind.items():
        per = len(ts) // cycles
        out[kind] = [statistics.fmean(ts[i:i + per]) for i in range(0, len(ts), per)]
    return out


def _ms(seconds: list[float]) -> list[float]:
    return [t * 1000 for t in seconds]


def end_to_end(bench: Bench, seed: int, seconds: float) -> dict:
    timings = bench.measure(seconds)
    setup_s, setup_raw_s = measure_setup_s(bench.wl, seed)
    info = {"failed_frac": bench.failed / bench.attempted,
            "ops_per_s": _ops_per_s(timings.latency), "setup_raw_s": setup_raw_s}
    for unit, cycles, by_kind in (("ms", timings.cycles, timings.latency),
                                  ("refms", timings.scaled_cycles, timings.scaled)):
        for kind, ts in {"cycle": cycles, **_per_cycle(by_kind, len(cycles))}.items():
            info[f"{kind}_{unit}_p50"] = statistics.median(_ms(ts))
            info[f"{kind}_{unit}_p90"] = _p90(_ms(ts))
    info["cycles"] = len(timings.cycles)
    print("latency " + json.dumps(info))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
            **{name: (info[name], "ref-ms") for name in END_TO_END if "_refms_" in name}}


def layer_values(tracer, latency: dict[str, list[float]]) -> dict[str, float]:
    """Every ``<op kind>.<layer metric>`` of OP_LAYERS, as a mean per traced op."""
    spans = tracer.self_times()
    values: dict[str, float] = {}
    for kind, metrics in OP_LAYERS.items():
        n_ops = len(latency.get(kind, ()))
        for m in metrics:
            if n_ops == 0:  # this workload has no op of this kind
                total = 0.0
            elif m == "op_ms":
                total = 1000 * sum(latency[kind])
            elif m in LAYER_TIMES:
                total = 1000 * spans.get((kind, LAYER_TIMES[m]), (0, 0.0))[1]
            elif m in LAYER_CALLS:
                total = spans.get((kind, LAYER_CALLS[m]), (0, 0.0))[0]
            else:
                total = tracer.counts.get((kind, m), 0)
            values[f"{kind}.{m}"] = total / max(n_ops, 1)
    return values


def per_layer(bench: Bench, seed: int, seconds: float, env: dict) -> dict:
    from spans import ROOT_SPAN, Tracer

    untraced = _ops_per_s(bench.measure(seconds / 2).latency)
    tracer = Tracer()
    tracer.install()
    try:
        traced_latency = bench.measure(seconds / 2, tracer).latency
    finally:
        tracer.uninstall()
    traced = _ops_per_s(traced_latency)

    values = layer_values(tracer, traced_latency)
    values["trace.ops_per_s_untraced"] = untraced
    values["trace.ops_per_s_traced"] = traced
    values["trace.overhead_frac"] = untraced / traced - 1

    path = OUT_DIR / f"spans-{bench.wl.name}-seed{seed}.jsonl.gz"
    tracer.write(path, {"env": env, "rootSpan": ROOT_SPAN})
    print(f"spans {path.relative_to(ROOT)} ({len(tracer.name)} spans)")
    return {name: (values[name], layer_unit(name)) for name in PER_LAYER}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qregen" / "cli.py").is_file():
        print(f"error: no qregen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One client, one thread: keep numpy's BLAS from starting worker threads
    # that spin on the second core. Set before qregen imports numpy; set-up
    # processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    wl = WORKLOADS[args.workload]

    cals = [calibrate("python") for _ in range(3)] if args.setup_only else []
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        bench = Bench(wl, args.seed, workdir, check=not args.setup_only)
        bench.setup()
        if args.setup_only:
            cals += [calibrate("python") for _ in range(3)]
            print(json.dumps({"median": statistics.median(cals), "total": sum(cals)}))
            return 0
        env = environment(wl, args.seed)
        print("env " + json.dumps(env))
        if args.trace:
            metrics = per_layer(bench, args.seed, args.seconds, env)
        else:
            metrics = end_to_end(bench, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fault in bench.faults:
        print(f"fault {fault}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
