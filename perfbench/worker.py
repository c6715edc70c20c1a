"""One benchmark process: generate the workload's problems, run the
warm-up verdict, then (in measure mode) run whole rounds of verdicts
through ``ncqm.cli.main`` in-process and print the result as JSON.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import problems  # noqa: E402
from tracer import MODULES, VERDICT, Tracer  # noqa: E402

# Per-layer metrics: (metric name, unit, how it is derived).
#   calls:<span>  calls per verdict       self:<span>  self seconds per verdict
#   total:<span>  inclusive s per verdict  peak:<key>   maximum over the run
#   module:<mod>  self seconds per verdict of every span in the module
LAYER_METRICS = (
    ("exact_algebra.scalar_mul_calls", "count", "calls:exact_algebra.scalar_mul"),
    ("exact_algebra.scalar_add_calls", "count", "calls:exact_algebra.scalar_add"),
    ("exact_algebra.poly_mul_calls", "count", "calls:exact_algebra.poly_mul"),
    ("exact_algebra.poly_add_calls", "count", "calls:exact_algebra.poly_add"),
    ("exact_algebra.poly_diff_calls", "count", "calls:exact_algebra.poly_diff"),
    ("exact_algebra.poly_add_terms_copied", "count",
     "calls:exact_algebra.poly_add_terms_copied"),
    ("exact_algebra.poly_peak_terms", "terms", "peak:exact_algebra.poly_peak_terms"),
    ("exact_algebra.peak_coeff_bits", "bits", "peak:exact_algebra.peak_coeff_bits"),
    ("exact_algebra.integrate_calls", "count", "calls:exact_algebra.integrate"),
    ("exact_algebra.integrate_s", "s", "total:exact_algebra.integrate"),
    ("star.trace_calls", "count", "calls:star.trace"),
    ("star.trace_self_s", "s", "self:star.trace"),
    ("star.gauge_b_s", "s", "total:star.gauge_b"),
    ("star.star_prime_calls", "count", "calls:star.star_prime"),
    ("star.star_prime_self_s", "s", "self:star.star_prime"),
    ("star.star_calls", "count", "calls:star.star"),
    ("star.star_self_s", "s", "self:star.star"),
    ("star.build_calls", "count", "calls:star.build"),
    ("star.build_s", "s", "total:star.build"),
    ("star.slice_rules", "count", "calls:star.slice_rules"),
    ("star.left_mult_s", "s", "total:star.left_mult"),
    ("poisson.jacobi_calls", "count", "calls:poisson.jacobi"),
    ("poisson.jacobi_s", "s", "total:poisson.jacobi"),
    ("poisson.build_gamma_calls", "count", "calls:poisson.build_gamma"),
    ("poisson.build_gamma_s", "s", "total:poisson.build_gamma"),
    ("poisson.verify_darboux_s", "s", "total:poisson.verify_darboux"),
    ("poisson.bracket_calls", "count", "calls:poisson.bracket"),
    ("operators.compose_calls", "count", "calls:operators.compose"),
    ("operators.compose_s", "s", "total:operators.compose"),
    ("operators.build_xhat_s", "s", "total:operators.build_xhat"),
    ("operators.build_gamma1_s", "s", "total:operators.build_gamma1"),
    ("operators.op_peak_terms", "terms", "peak:operators.op_peak_terms"),
    ("qm_examples.oscillator_s", "s", "total:qm_examples.oscillator"),
    ("qm_examples.free_particle_s", "s", "total:qm_examples.free_particle"),
    ("cli.parse_s", "s", "total:cli.parse"),
    ("cli.run_task_s", "s", "total:cli.run_task"),
    ("cli.report_s", "s", "report"),
) + tuple((f"{m}.self_s", "s", f"module:{m}") for m in MODULES) + (
    ("bench.traced_verdicts_per_s", "1/s", "throughput"),
)

# Exact per-verdict predictions checked on every traced run.
EXACT = {
    "assoc-poly": {"star.star_calls": problems.STAR_CALLS,
                   "exact_algebra.integrate_calls": 0, "operators.compose_calls": 0},
    "trace-gauss": {"star.star_calls": problems.STAR_CALLS, "operators.compose_calls": 0},
    "construct": {"exact_algebra.integrate_calls": 0},
}


def verdict(cli, slot_path: str, task: str):
    """One call of the CLI; returns (seconds, exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([slot_path, "--task", task])
    return time.perf_counter() - started, rc, out.getvalue()


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten verdicts beyond it, and
    which percentile that is.  Below forty verdicts that percentile would
    lie under p75, which is no tail, so the maximum is reported as
    percentile 100; this keeps the value steady when a run has two or
    three rounds of a few slow verdicts."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_values(tr: Tracer, verdicts: int, elapsed: float) -> dict:
    module_self = Counter()
    for name, t in tr.self_time.items():
        module_self[name.split(".")[0]] += t
    out = {}
    for metric, unit, how in LAYER_METRICS:
        kind, _, key = how.partition(":")
        if kind == "peak":
            value = tr.peak[key]
        elif kind == "report":
            value = (tr.total[VERDICT] - tr.total["cli.run_task"]
                     - tr.total["cli.parse"]) / verdicts
        elif kind == "throughput":
            value = verdicts / elapsed
        else:
            table = {"calls": tr.calls, "self": tr.self_time, "total": tr.total,
                     "module": module_self}[kind]
            value = table[key] / verdicts
        out[metric] = {"value": value, "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from ncqm import cli
    if Path(cli.__file__).resolve().parent != src / "ncqm":
        raise SystemExit(f"ncqm imported from {cli.__file__}, not {src}")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def prepare(index: int) -> list[tuple[problems.Slot, str]]:
        """Write the problem files of one round; return (slot, path) pairs."""
        out = []
        for slot in problems.rounds(args.workload, args.seed, index):
            path = workdir / f"r{index}-{slot.problem.name}.json"
            text = json.dumps(slot.problem.doc, indent=1)
            cli.ProblemFile.parse(text)
            path.write_text(text, encoding="utf-8")
            out.append((slot, str(path)))
        return out

    failures: list[str] = []
    first_report: dict[str, str] = {}

    def judge(slot: problems.Slot, path: str, rc: int, text: str) -> bool:
        try:
            why = problems.check(slot, rc, json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            why = f"unreadable report: {err!r}"
        if why is None and first_report.setdefault(f"{path} {slot.task}", text) != text:
            why = "repeated (problem, seed) gave a different report"
        if why is not None:
            failures.append(f"{slot.problem.name} {slot.task}: {why}")
        return why is None

    round0 = prepare(0)
    slot, path = round0[0]
    _, rc, text = verdict(cli, path, slot.task)
    judge(slot, path, rc, text)  # a wrong warm-up shows in the measuring worker
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        left = tracer.leftovers(tracer.originals)
        if left:
            failures.append(f"unpatched bindings: {left}")

    # Whole rounds only, so every run sees the same mix of verdicts.  The
    # first round's length fixes how many rounds come nearest to
    # --seconds.  Untraced runs draw new problems for each round, which
    # averages out how their cost depends on the coefficients; traced runs
    # repeat round 0, so their per-verdict counts repeat exactly.
    times, attempted, failed, planned, elapsed = [], 0, 0, 1, 0.0
    index = 0
    while index < planned:
        batch = prepare(index) if index and not tracer else round0
        started = time.perf_counter()
        for slot, path in batch:
            attempted += 1
            span = tracer.enter() if tracer else None
            try:
                dt, rc, text = verdict(cli, path, slot.task)
            except Exception as err:  # a verdict that raises counts as failed
                failed += 1
                failures.append(f"{slot.problem.name} {slot.task}: raised {err!r}")
                continue
            finally:
                if tracer:
                    tracer.leave(VERDICT, span)
            times.append(dt)
            if not judge(slot, path, rc, text):
                failed += 1
        elapsed += time.perf_counter() - started
        if index == 0:
            planned = max(1, round(args.seconds / elapsed))
        index += 1

    verdicts = attempted - failed
    if tracer:
        tracer.remove()
        left = tracer.leftovers(tracer.wrappers)
        if left:
            failures.append(f"wrappers left after removal: {left}")
        metrics = layer_values(tracer, attempted, elapsed)
        for name, want in EXACT[args.workload].items():
            if metrics[name]["value"] != want:
                failures.append(f"{name} = {metrics[name]['value']}, predicted {want}")
    else:
        p_tail, pct = tail(times)
        metrics = {
            "verdicts_per_s": {"value": verdicts / elapsed, "unit": "1/s"},
            "verdict_s.p50": {"value": statistics.median(times), "unit": "s"},
            "verdict_s.tail": {"value": p_tail, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
            "ok_share": {"value": verdicts / attempted, "unit": "share"},
        }
        print(json.dumps({"detail": {
            "workload": args.workload, "rounds": planned, "verdicts": attempted,
            "measured_s": elapsed, "tail_percentile": pct, "tail_samples": len(times),
        }}), flush=True)
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
