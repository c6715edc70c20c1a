"""Self-test of the benchmark's own predictions (about three minutes).

    python3 perfbench/selftest.py

For each workload it makes two traced runs of one round with the same
seed and checks that:

- both runs are correct, so every verdict matched its known answer, the
  exact per-verdict predictions held (star.star_calls is 80 per star-assoc
  and trace-check verdict, no integration on assoc-poly and construct, no
  operator composition on assoc-poly and trace-gauss) and every binding
  of each wrapped function was patched and then restored;
- every count metric repeats exactly between the two runs;
- every named layer metric is nonzero on at least one workload.

It also runs trace-check once on the fuzzy sphere, which is too slow for
the timed rounds, and checks that the gauge is diagonal with entries 1/24
and equals the closed form problems.py uses for linear Nambu brackets.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import problems  # noqa: E402
from worker import LAYER_METRICS  # noqa: E402

COUNT_UNITS = ("count", "terms", "bits")
SEED = 7


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def fuzzy_gauge() -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from ncqm import cli
    prob = problems.nambu("fuzzy-sphere", problems.FUZZY_CASIMIR, 2)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "fuzzy.json"
        path.write_text(json.dumps(prob.doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main([str(path), "--task", "trace-check"])
    return json.loads(out.getvalue())["tasks"]["trace-check"]["gauge"], prob.gauge


def main() -> int:
    errors = []
    seen = {name: 0.0 for name, _, _ in LAYER_METRICS}
    for workload in problems.WORKLOADS:
        first, second = traced(workload, SEED), traced(workload, SEED)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                errors.append(f"{workload}: traced run not correct")
        for name, metric in first["metrics"].items():
            if metric["unit"] in COUNT_UNITS and metric != second["metrics"][name]:
                errors.append(f"{workload}: {name} differs between runs: "
                              f"{metric['value']} vs {second['metrics'][name]['value']}")
            seen[name] = max(seen[name], metric["value"])
        print(workload, json.dumps({k: v["value"] for k, v in first["metrics"].items()}))
    errors += [f"{name} is zero on every workload" for name, top in seen.items() if not top]
    got, want = fuzzy_gauge()
    diagonal = {f"({i},{i})": "1/24" for i in (1, 2, 3)}
    if not got == want == diagonal:
        errors.append(f"fuzzy-sphere gauge {got}, closed form {want}")
    for line in errors:
        print(f"FAIL {line}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
