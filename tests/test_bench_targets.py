"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` looks up its targets by attribute name at run time;
a rename in ``topokry`` would otherwise surface only in a traced benchmark
run.
"""
import importlib.util
import sys
from pathlib import Path

import topokry

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    found = tracing.targets(topokry)
    assert found
    for owner, attr, name, _ in found:
        assert attr in vars(owner), f"{owner.__name__}.{attr} (span {name})"
