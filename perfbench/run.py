"""ncqm benchmark: verdicts through ``ncqm.cli.main`` on seeded problems.

    python3 perfbench/run.py --workload assoc-poly --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the engine is imported from
``src``).  Each workload process is a closed loop with one client: one
verdict (one --task on one generated problem file) starts when the
previous one ends.  Every verdict is checked against the answer known
from how its problem was built (see problems.py).

--trace 0 prints the end-to-end metrics.  setup_s is the median, over
three fresh processes, of the wall time from starting the process to the
end of its warm-up verdict (import, problem generation and parsing, one
untimed verdict).  --trace 1 runs the same rounds with tracer.py patched
in and prints the per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Any error exits nonzero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from problems import WORKLOADS  # noqa: E402


def spawn(args, workdir: Path, mode: str, deadline: float) -> tuple[float, list[str]]:
    """Start one worker; return its setup time and its stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--mode", mode]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed with exit code {proc.returncode}")
    return setup, rest.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ncqm" / "cli.py").is_file():
        print(f"error: no ncqm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    scratch = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        samples = []
        for k in range(0 if args.trace else SETUP_SAMPLES - 1):
            setup, _ = spawn(args, scratch / f"setup{k}", "setup", deadline)
            samples.append(setup)
        setup, lines = spawn(args, scratch / "measure", "measure", deadline)
        samples.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"setup_samples_s": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
