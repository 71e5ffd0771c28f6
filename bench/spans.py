"""Outside-in tracing: wrap qregen's functions where their callers look them up.

Nothing in ``src/`` changes. ``Tracer.install`` replaces each target name
(a module global such as ``qregen.repair.build_repair_css`` or a class
attribute such as ``Mat.inv``) with a wrapper that records a span, a count,
or both, and ``Tracer.uninstall`` puts the originals back. Spans are kept in
compact arrays in memory and written out only when the run ends.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter

import qregen.cli
import qregen.css
import qregen.pmcode
import qregen.repair
import qregen.stabilizer
from qregen.gf import GF
from qregen.matrix import Mat
from qregen.stabilizer import StabGroup


def _inv_ops(args, kwargs, result):
    return result.rows**3


def _matmul_macs(args, kwargs, result):
    a, b = args
    return a.rows * a.cols * b.cols


def _qudits(args, kwargs, result):
    return result.qudit_total


def _amplitudes(args, kwargs, result):
    group = args[0]
    return group.p**group.n


def _out_bytes(args, kwargs, result):
    return len(args[0].encode())


def _one(args, kwargs, result):
    return 1


# (owner, attribute, span name or None, counter name or None, counter value)
TARGETS = (
    (qregen.cli, "_json_text", "cli.json_dump", None, None),
    (qregen.cli, "_load_json", "cli.json_load", None, None),
    (qregen.cli, "_write_out", None, "cli.out_bytes", _out_bytes),
    (qregen.cli, "make_params", "pmcode.make_params", None, None),
    (qregen.cli, "encode_file", "pmcode.encode_file", None, None),
    (qregen.cli, "retrieve_file", "pmcode.retrieve_file", None, None),
    (qregen.pmcode, "retrieve", None, "pmcode.retrieve_calls", _one),
    (Mat, "inv", "matrix.inv", "matrix.inv_ops", _inv_ops),
    (Mat, "__matmul__", "matrix.matmul", "matrix.matmul_macs", _matmul_macs),
    (GF, "inv", None, "gf.inv_calls", _one),
    (qregen.repair, "build_repair_css", "css.build", None, None),
    (qregen.css, "check_dual_containment", "css.dual_check", None, None),
    (qregen.css, "grs_dual_weights", "css.grs_weights", None, None),
    (StabGroup, "__post_init__", "stabilizer.group_build", None, None),
    (qregen.repair, "run_repair", "repair.run_repair", "repair.qudits", _qudits),
    (qregen.repair, "helper_encode", "repair.helper_encode", None, None),
    (qregen.repair, "syndrome_linear", "stabilizer.syndrome_linear", None, None),
    (qregen.repair, "syndrome_symplectic", "stabilizer.syndrome_symplectic", None, None),
    (qregen.repair, "syndrome_statevector", "stabilizer.syndrome_statevector", None, None),
    (qregen.stabilizer, "prepare_codespace", "stabilizer.prepare_codespace",
     "stabilizer.amplitudes", _amplitudes),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans (name, start, end, parent span, op id) plus counts per op kind."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_kinds) - 1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span, counter, value):
        tracer = self
        span_id = None if span is None else self._name_id(span)

        def wrapper(*args, **kwargs):
            if span_id is None:
                result = fn(*args, **kwargs)
            else:
                i = tracer._open(span_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
            if counter is not None:
                tracer.counts[tracer.op_kinds[-1], counter] += value(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, span, counter, value in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span, counter, value))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def call_op(self, kind: str, fn, *args):
        """Run one op under a root span; its spans and counts go to ``kind``."""
        self.op_kinds.append(kind)
        i = self._open(self._name_id(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(i)

    def self_times(self) -> dict[tuple[str, str], tuple[int, float]]:
        """(op kind, span name) -> (span count, summed self time in seconds).

        Self time is a span's duration minus its children's; spans on one
        thread nest, so children never overlap each other.
        """
        child = [0.0] * len(self.name)
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for i, name_id in enumerate(self.name):
            acc = out[self.op_kinds[self.op[i]], self.names[name_id]]
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i] - child[i]
        return {key: (n, s) for key, (n, s) in out.items()}

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "opKinds": self.op_kinds}) + "\n")
            for i, name_id in enumerate(self.name):
                fh.write(json.dumps({
                    "id": i, "name": self.names[name_id], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i], "op": self.op[i],
                }) + "\n")
