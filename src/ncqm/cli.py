"""Batch front end: problem-file ingestion, task dispatch, exact reports.

Input and output are JSON; exact scalars are always strings, never
floats.  Identical (problem, seed) pairs produce byte-identical reports,
so timing is written to stderr only.

Exit codes: 0 all tasks pass, 1 any task fails or errors, 2 usage or
parse error.  A ``dim`` above ``MAX_DIM``, an ``order`` above ``MAX_ORDER``
(in the file or from ``--order``) and a polynomial over the parser caps
(``exact_algebra.MAX_DEGREE``, ``MAX_COEFF_BITS``, ``MAX_NESTING``) also
exit 2.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact_algebra import (
    GaussianFunction,
    GaussianRational,
    ThetaPoly,
    multi_index,
    parse_polynomial,
)
from .operators import residual_without_correction, subalgebra_defect
from .poisson import (
    NotPoissonError,
    PoissonBivector,
    build_gamma,
    jacobi_defect,
    verify_darboux,
)
from .qm_examples import (
    build_fuzzy_oscillator,
    free_particle_check,
    fuzzy_sphere_bivector,
)
from .star import (
    GaugeError,
    MeasureError,
    StarProduct,
    assoc_defect,
    cyclicity_defect,
    gauge_b,
    measure_defect,
)

RANDOM_DEGREE_MAX = 3
RANDOM_COEFF_HEIGHT = 3
RANDOM_TRIPLES = 20
# The grade-3 rule table grows like n^6 and every star call visits each
# rule: a dense constant bivector has 2916 rules at dim 6, and star-assoc
# on it took 5.8 s on a 2-core VM with Python 3.11.
MAX_DIM = 6
MAX_ORDER = 8  # the expansion tower grows with every order


class ProblemError(ValueError):
    """Malformed problem file."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_poly(text, n: int, trunc: int) -> ThetaPoly:
    if not isinstance(text, str):
        raise ValueError("polynomial must be a string")
    return parse_polynomial(text, n, trunc)


@dataclass
class ProblemFile:
    """Validated batch problem."""

    dim: int
    bivector: PoissonBivector
    mu: ThetaPoly
    order: int = 3
    tasks: tuple[str, ...] = ()
    seed: int = 0

    @staticmethod
    def parse(text: str) -> "ProblemFile":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ProblemError(
                f"parse error at line {err.lineno}, column {err.colno}: {err.msg}")
        except RecursionError:
            raise ProblemError("parse error: arrays or objects nested too deep")
        except ValueError:
            # an integer past Python's digit limit for int()
            raise ProblemError("parse error: a number has too many digits")
        if not isinstance(raw, dict):
            raise ProblemError("problem file must be a JSON object")
        dim = raw.get("dim")
        if not _is_int(dim) or dim < 1:
            raise ProblemError("'dim' must be a positive integer")
        if dim > MAX_DIM:
            raise ProblemError(f"'dim' {dim} exceeds the cap of {MAX_DIM}")
        order = raw.get("order", 3)
        if not _is_int(order) or order < 0:
            raise ProblemError("'order' must be a nonnegative integer")
        if order > MAX_ORDER:
            raise ProblemError(f"'order' {order} exceeds the cap of {MAX_ORDER}")
        trunc = max(order, 3)
        rows = raw.get("bivector", [])
        if not isinstance(rows, list):
            raise ProblemError("'bivector' must be a list")
        entries = {}
        for row in rows:
            if not (isinstance(row, dict) and {"i", "j", "poly"} <= set(row)):
                raise ProblemError(
                    "bivector entries must be objects with keys i, j, poly")
            i, j = row["i"], row["j"]
            if not (_is_int(i) and _is_int(j)):
                raise ProblemError("bivector indices must be integers")
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ProblemError(
                    f"bivector index ({i},{j}) out of range 1..{dim}")
            if i == j:
                raise ProblemError(
                    f"diagonal bivector entry ({i},{j}) violates antisymmetry")
            try:
                poly = _parse_poly(row["poly"], dim, trunc)
            except ValueError as err:
                raise ProblemError(f"entry ({i},{j}): {err}")
            key = (i - 1, j - 1)
            if key in entries or (key[1], key[0]) in entries:
                raise ProblemError(f"duplicate bivector entry ({i},{j})")
            entries[key] = poly
        bivector = PoissonBivector(dim, entries)
        try:
            mu = _parse_poly(raw.get("measure", "1"), dim, trunc)
        except ValueError as err:
            raise ProblemError(f"measure: {err}")
        if mu.is_zero:
            raise ProblemError("measure: density must be nonzero")
        tasks = raw.get("tasks", [])
        if not isinstance(tasks, list):
            raise ProblemError("'tasks' must be a list")
        for t in tasks:
            if t not in TASKS:
                raise ProblemError(f"unknown task {t!r}; expected one of {TASKS}")
        seed = raw.get("seed", 0)
        if not _is_int(seed):
            raise ProblemError("'seed' must be an integer")
        return ProblemFile(dim, bivector, mu, order, tuple(tasks), seed)

    def to_json(self) -> dict:
        rows = []
        for (i, j), poly in sorted(self.bivector.upper.items()):
            rows.append({"i": i + 1, "j": j + 1, "poly": poly.text()})
        return {
            "dim": self.dim,
            "bivector": rows,
            "measure": self.mu.text(),
            "order": self.order,
            "tasks": list(self.tasks),
            "seed": self.seed,
        }


def random_poly(rng: random.Random, n: int, trunc: int,
                degree: int = RANDOM_DEGREE_MAX, terms: int = 5) -> ThetaPoly:
    """Seeded random coordinate polynomial; the sampled tasks draw their
    inputs from this stream."""
    p = ThetaPoly.zero(n, trunc)
    h = RANDOM_COEFF_HEIGHT
    for _ in range(terms):
        x = multi_index(n, *(rng.randrange(n) for _ in range(rng.randint(0, degree))))
        c = GaussianRational(Fraction(rng.randint(-h, h)),
                             Fraction(rng.randint(-h, h)))
        p = p + ThetaPoly.monomial(n, c, x=x, trunc=trunc)
    return p


RANDOM_BOUNDS = {"degree_max": RANDOM_DEGREE_MAX,
                 "coeff_height": RANDOM_COEFF_HEIGHT,
                 "samples": RANDOM_TRIPLES}


def _validate(problem: ProblemFile, rng: random.Random) -> dict:
    defect = jacobi_defect(problem.bivector)
    mdef = measure_defect(problem.mu, problem.bivector)
    ok = defect.is_zero and all(d.is_zero for d in mdef)
    return {
        "status": "pass" if ok else "fail",
        "jacobi_defect": defect.to_json(),
        "measure_defect": [d.text() for d in mdef],
    }


def _gamma(problem: ProblemFile, rng: random.Random) -> dict:
    tower = build_gamma(problem.bivector, max(problem.order, 1))
    return {"status": "pass", "tensors": tower.to_json()}


def _darboux_check(problem: ProblemFile, rng: random.Random) -> dict:
    report = verify_darboux(build_gamma(problem.bivector, max(problem.order, 1)),
                            problem.bivector)
    ok = report.xx_zero and report.pp_zero and report.delta_matches_reference
    out = report.to_json()
    out["status"] = "pass" if ok else "fail"
    return out


def _star_assoc(problem: ProblemFile, rng: random.Random) -> dict:
    order = problem.order
    if order > 3:
        return {"status": "error", "reason": "star tasks need order at most 3"}
    product = StarProduct(problem.bivector, order)
    failures = []
    for k in range(RANDOM_TRIPLES):
        f, g, h = (random_poly(rng, problem.dim, product.trunc) for _ in range(3))
        defect = assoc_defect(f, g, h, product).truncated(order)
        if not defect.is_zero:
            failures.append({"triple": k, "defect": defect.text()})
    return {"status": "pass" if not failures else "fail",
            "bounds": RANDOM_BOUNDS, "failures": failures}


def _trace_check(problem: ProblemFile, rng: random.Random) -> dict:
    order = problem.order
    if order > 3:
        return {"status": "error", "reason": "star tasks need order at most 3"}
    w = problem.bivector
    product = StarProduct(w, min(order, 2), trunc=max(order, 2))
    mdef = measure_defect(problem.mu, w)
    if any(not d.is_zero for d in mdef):
        return {"status": "fail",
                "reason": "density fails the divergence condition",
                "measure_defect": [d.text() for d in mdef]}
    # below order 2 the report still carries the gauge, read off a grade-2
    # product at the same truncation
    gauge = gauge_b(problem.mu, product if product.order == 2
                    else StarProduct(w, 2, trunc=product.trunc))
    corrected = product.with_gauge(gauge)
    failures = []
    uncorrected = []
    for k in range(RANDOM_TRIPLES):
        f = GaussianFunction(random_poly(rng, problem.dim, product.trunc))
        g = GaussianFunction(random_poly(rng, problem.dim, product.trunc))
        rep = cyclicity_defect(f, g, corrected, problem.mu)
        if not rep.zero_through(product.order):
            failures.append({
                "pair": k,
                "antisymmetric": rep.antisymmetric.text(),
                "trace_condition": rep.trace_condition.text(),
            })
        raw = cyclicity_defect(f, g, product, problem.mu)
        uncorrected.append(raw.trace_condition.theta_slice(2).text())
    return {"status": "pass" if not failures else "fail",
            "bounds": RANDOM_BOUNDS,
            "gauge": gauge.to_json(),
            "corrected_failures": failures,
            "uncorrected_grade2_defects": uncorrected}


def _subalgebra(problem: ProblemFile, rng: random.Random) -> dict:
    product = StarProduct(problem.bivector, 2, trunc=3)
    defects = subalgebra_defect(product.xhat, product)
    residuals = residual_without_correction(defects, product.gamma1)
    ok = all(op.is_zero for op in defects.values())
    return {
        "status": "pass" if ok else "fail",
        "defects": {f"({i+1},{j+1})": op.text()
                    for (i, j), op in sorted(defects.items())},
        "residual_without_correction": {
            f"({i+1},{j+1})": op.text()
            for (i, j), op in sorted(residuals.items())},
    }


def _oscillator(problem: ProblemFile, rng: random.Random) -> dict:
    if problem.dim != 3 or problem.bivector != fuzzy_sphere_bivector():
        return {"status": "error",
                "reason": "oscillator task needs the fuzzy-sphere bivector"}
    if problem.mu != ThetaPoly.one(problem.dim, problem.mu.trunc):
        return {"status": "error",
                "reason": "oscillator task needs unit density"}
    report = build_fuzzy_oscillator()
    ok = report.identity_holds and report.first_grade_vanishes
    out = report.to_json()
    out["status"] = "pass" if ok else "fail"
    return out


def _free_particle(problem: ProblemFile, rng: random.Random) -> dict:
    report = free_particle_check(problem.mu)
    ok = (report.momentum_identity and report.hamiltonian_identity
          and report.momenta_commute)
    out = report.to_json()
    out["status"] = "pass" if ok else "fail"
    return out


TASK_FUNCTIONS = {
    "validate": _validate,
    "gamma": _gamma,
    "darboux-check": _darboux_check,
    "star-assoc": _star_assoc,
    "trace-check": _trace_check,
    "subalgebra": _subalgebra,
    "oscillator": _oscillator,
    "free-particle": _free_particle,
}
TASKS = tuple(TASK_FUNCTIONS)


def run_task(problem: ProblemFile, task: str) -> dict:
    """Execute one task; returns a JSON-ready record with a status."""
    fn = TASK_FUNCTIONS.get(task)
    if fn is None:
        return {"status": "error", "reason": f"unsupported task {task!r}"}
    try:
        return fn(problem, random.Random(problem.seed))
    except NotPoissonError as err:
        return {"status": "error", "reason": "not a Poisson bivector",
                "jacobi_defect": err.defect.to_json()}
    except (GaugeError, MeasureError) as err:
        return {"status": "error", "reason": str(err)}


def run(problem: ProblemFile, tasks: Optional[Sequence[str]] = None) -> dict:
    if tasks is None or not tasks:
        tasks = problem.tasks or ("validate",)
    records = {}
    for task in sorted(set(tasks)):
        started = time.monotonic()
        records[task] = run_task(problem, task)
        print(f"[{task}] {time.monotonic() - started:.3f}s", file=sys.stderr)
    status = "pass"
    if any(r.get("status") == "error" for r in records.values()):
        status = "error"
    if any(r.get("status") == "fail" for r in records.values()):
        status = "fail"
    return {
        "problem": problem.to_json(),
        "tasks": records,
        "status": status,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncqm",
        description="Exact checks for quantum mechanics with "
                    "coordinate-dependent noncommutativity.")
    parser.add_argument("problem", help="path to a JSON problem file")
    parser.add_argument("--task", action="append", choices=TASKS,
                        help="task to run (repeatable; default: the "
                             "problem file's task list, else validate)")
    parser.add_argument("--order", type=int, default=None,
                        help="override the grading truncation order "
                             f"(at most {MAX_ORDER})")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the random seed")
    style = parser.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true",
                       help="compact single-line JSON (default)")
    style.add_argument("--pretty", action="store_true",
                       help="indented JSON")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            problem = ProblemFile.parse(fh.read())
    except UnicodeDecodeError:
        print("error: problem file is not valid UTF-8", file=sys.stderr)
        return 2
    except (OSError, ProblemError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.order is not None:
        if args.order < 0:
            print("error: order must be nonnegative", file=sys.stderr)
            return 2
        if args.order > MAX_ORDER:
            print(f"error: order {args.order} exceeds the cap of {MAX_ORDER}",
                  file=sys.stderr)
            return 2
        problem.order = args.order
    if args.seed is not None:
        problem.seed = args.seed
    report = run(problem, args.task)
    if args.pretty:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
