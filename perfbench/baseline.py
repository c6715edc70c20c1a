"""Measure a baseline: untraced runs over several seeds per workload, one
traced run per workload, and the self-time share of each module.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Takes about 20 minutes for ten seeds.  For every end-to-end metric it
records the median, the quartiles and the spread (interquartile distance
over the median, from statistics.quantiles(values, n=4)), which is what a
change is compared against.  Tracing overhead is the untraced median
verdicts_per_s over the traced bench.traced_verdicts_per_s.
Prints the tables as Markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from problems import WORKLOADS  # noqa: E402
from tracer import MODULES  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct\n{out.stderr}")
    return result


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": args.commit, "seconds": seconds, "seeds": args.seeds,
              "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, s, seconds, 0) for s in args.seeds]
        summary = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            summary[name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": values}
        traced = run(workload, args.seeds[0], seconds, 1)["metrics"]
        selfs = {m: traced[f"{m}.self_s"]["value"] for m in MODULES}
        verdict_s = sum(selfs.values())
        report["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced.items()},
            "self_share": {m: t / verdict_s for m, t in selfs.items()},
            "tracing_overhead": summary["verdicts_per_s"]["median"]
            / traced["bench.traced_verdicts_per_s"]["value"],
        }
        print(f"{workload} done", file=sys.stderr, flush=True)

    names = list(next(iter(report["workloads"].values()))["end_to_end"])
    print("| workload | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for workload, data in report["workloads"].items():
        cells = [f"{data['end_to_end'][n]['median']:.4g} ({data['end_to_end'][n]['spread']:.3f})"
                 for n in names]
        print(f"| {workload} | " + " | ".join(cells) + " |")
    print()
    print("| workload | " + " | ".join(MODULES) + " | tracing overhead |")
    print("|---" * (len(MODULES) + 2) + "|")
    for workload, data in report["workloads"].items():
        cells = [f"{100 * data['self_share'][m]:.1f}%" for m in MODULES]
        print(f"| {workload} | " + " | ".join(cells)
              + f" | {data['tracing_overhead']:.2f}x |")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
