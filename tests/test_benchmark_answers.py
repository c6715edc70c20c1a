"""Round 0 of every benchmark workload, run through ``cli.main``, gives
the answers known from how its problems were built, and meets the exact
per-verdict call counts that a traced benchmark run predicts.

The problem families and the report checks are loaded read-only from
``perfbench/problems.py``, and the predictions (``EXACT``) and the tracer
from ``perfbench/worker.py``, so a change to the engine that breaks a
benchmark verdict or prediction fails here instead of only in the
benchmark.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from ncqm import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PROBLEMS = PERFBENCH / "problems.py"
WORKLOADS = ["assoc-poly", "trace-gauss", "construct"]


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_zero_meets_the_known_answers(problems, workload, tmp_path):
    assert workload in problems.WORKLOADS
    for slot, rc, report in run_round_zero(problems, workload, tmp_path):
        why = problems.check(slot, rc, json.loads(report))
        assert why is None, f"{slot.problem.name} {slot.task}: {why}"


def run_round_zero(problems, workload: str, tmp_path):
    """(slot, exit code, report text) for each verdict of round 0, seed 1."""
    out = []
    for k, slot in enumerate(problems.rounds(workload, 1)):
        path = tmp_path / f"{k}-{slot.problem.name}.json"
        path.write_text(json.dumps(slot.problem.doc, indent=1), encoding="utf-8")
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([str(path), "--task", slot.task])
        out.append((slot, rc, report.getvalue()))
    return out


@pytest.fixture(scope="module")
def worker():
    # worker.py puts perfbench on sys.path and imports problems and tracer
    # from there; both are taken back out once it is loaded
    path, modules, dont_write = list(sys.path), set(sys.modules), sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_zero_meets_the_traced_predictions(worker, workload, tmp_path):
    """The per-verdict counts that ``EXACT`` predicts, such as no
    operator composition on the star workloads, hold on round 0."""
    how = {name: source for name, _, source in worker.LAYER_METRICS}
    tracer = worker.Tracer()
    tracer.install()
    try:
        verdicts = run_round_zero(worker.problems, workload, tmp_path)
    finally:
        tracer.remove()
    assert verdicts and all(worker.problems.check(slot, rc, json.loads(report)) is None
                            for slot, rc, report in verdicts)
    for name, want in worker.EXACT[workload].items():
        kind, _, key = how[name].partition(":")
        assert kind == "calls"
        assert tracer.calls[key] / len(verdicts) == want, name
