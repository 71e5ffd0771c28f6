"""The benchmark tracer patches names by owner and attribute; each must exist.

A renamed or moved function would otherwise break only ``bench/run.py
--trace 1``, which no test runs.
"""

import importlib.util
from pathlib import Path

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

