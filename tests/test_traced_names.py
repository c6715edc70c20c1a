"""Every name the per-layer tracer wraps still exists: installing the
tracer binds a wrapper to each of them, and removing it restores them all.
A verdict's traced counts depend on its inputs only, not on what ran
before it in the same process.

The tracer is loaded read-only from ``perfbench/tracer.py``, so renaming or
dropping a traced function fails here instead of in the benchmark.
"""

import importlib.util
import json
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


# a constant bivector with a kernel density, used by no other test, so
# nothing run before it has integrated against an equal density
KERNEL_DENSITY = json.dumps({
    "dim": 3, "order": 2, "seed": 3, "measure": "5/11 + 2*x3^2 - x3^4/7",
    "bivector": [{"i": 1, "j": 2, "poly": "1"}]})


def test_a_verdict_counts_the_same_when_run_again(monkeypatch, tmp_path, capsys):
    path = tmp_path / "kernel.json"
    path.write_text(KERNEL_DENSITY)
    tracer = load_tracer(monkeypatch).Tracer()
    counts = []
    try:
        tracer.install()
        for _ in range(2):
            before = tracer.calls["exact_algebra.scalar_mul"]
            assert ncqm.cli.main([str(path), "--task", "trace-check"]) == 0
            counts.append(tracer.calls["exact_algebra.scalar_mul"] - before)
    finally:
        tracer.remove()
    capsys.readouterr()
    assert counts[0] > 0
    assert counts[0] == counts[1]
