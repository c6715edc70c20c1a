"""Round 0 of every benchmark workload, run through ``cli.main``, gives
the answers known from how its problems were built.

The problem families and the report checks are loaded read-only from
``perfbench/problems.py``, so a change to the engine that breaks a
benchmark verdict fails here instead of only in the benchmark.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from ncqm import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "perfbench" / "problems.py"


@pytest.fixture(scope="module")
def problems():
    # its dataclasses look their module up in sys.modules while they are built
    name, dont_write = "perfbench_problems", sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location(name, PROBLEMS)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[name]


@pytest.mark.parametrize("workload", ["assoc-poly", "trace-gauss", "construct"])
def test_round_zero_meets_the_known_answers(problems, workload, tmp_path):
    assert workload in problems.WORKLOADS
    for k, slot in enumerate(problems.rounds(workload, 1)):
        path = tmp_path / f"{k}-{slot.problem.name}.json"
        path.write_text(json.dumps(slot.problem.doc, indent=1), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([str(path), "--task", slot.task])
        why = problems.check(slot, rc, json.loads(out.getvalue()))
        assert why is None, f"{slot.problem.name} {slot.task}: {why}"
