"""Every name the per-layer tracer wraps still exists: installing the
tracer binds a wrapper to each of them, and removing it restores them all.

The tracer is loaded read-only from ``perfbench/tracer.py``, so renaming or
dropping a traced function fails here instead of in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import ncqm.cli  # noqa: F401  (imports every traced module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes(monkeypatch):
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install()
        assert tracer.leftovers(tracer.originals) == []
    finally:
        tracer.remove()
    assert tracer.leftovers(tracer.wrappers) == []
