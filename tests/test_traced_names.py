"""The traced benchmark run (`bench/run.py --trace 1`) wraps library
functions by module and name; a name that no longer resolves breaks that run
while the library's own tests still pass."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under bench/
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look themselves up
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod, fn in spans.TRACED:
        module = importlib.import_module(f"transversals.{mod}")
        assert callable(getattr(module, fn, None)), f"transversals.{mod}.{fn}"
