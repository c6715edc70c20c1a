"""Seeded problem families with verdicts known from how they are built,
the round of verdicts each workload runs, and the checks on each report.

Nothing here imports ncqm: the expected answers come from the algebra of
each family, not from the engine under test.

Why each family's answer is known:

- nambu: w^{ij} = eps_ijk d_k C for a polynomial C.  Every Nambu bracket
  in three dimensions satisfies the Jacobi identity, and the divergence
  d_i w^{ij} = eps_ijk d_i d_k C vanishes, so the unit density is valid.
  For quadratic C = x.A.x/2 (linear w) the trace gauge with unit density
  is the constant matrix b_ik = (1/48) eps_ijp eps_lkm A_pl A_mj; the
  fuzzy sphere (A = identity) gives the diagonal 1/24.
- planar: any bivector in two dimensions is Poisson, because the Jacobi
  identity has no triple of distinct indices.  With unit density the
  divergence is (-d_2 w12, d_1 w12), nonzero when w12 is not constant.
- kappa: kappa-Minkowski w^{1k} = x^k is linear, and its structure
  constants [x1, xk] = xk, [xj, xk] = 0 form a Lie algebra, so it is
  Poisson.  With unit density column 1 of the divergence is -(n-1).
  It has no coefficients to draw: each dimension is one fixed problem.
- constant: a constant bivector is Poisson and its gauge vanishes; a
  density that depends only on coordinates in the bivector's kernel has
  zero divergence.
- non-poisson: w12 = a x2, w23 = b x3, w31 = c x1 has the Jacobi defect
  -(bc x1 + ac x2 + ab x3), which is nonzero for nonzero a, b, c.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

Poly = dict  # exponent tuple -> Fraction

COEFFS = (-3, -2, -1, 1, 2, 3)
SAMPLES = 20  # random pairs or triples drawn by each star task
STAR_CALLS = 4 * SAMPLES  # star products per star-assoc or trace-check verdict


@dataclass(frozen=True, eq=False)
class Problem:
    """One generated problem file and what is known about it."""

    name: str
    family: str
    doc: dict
    expected: dict  # task -> expected status
    gauge: dict | None = None  # expected trace-check gauge, if known


@dataclass(frozen=True)
class Slot:
    """One verdict of a round: a task on a problem."""

    problem: Problem
    task: str


# -- polynomial helpers ---------------------------------------------------------


def _mono(n: int, **exps: int) -> tuple[int, ...]:
    out = [0] * n
    for var, e in exps.items():
        out[int(var[1:]) - 1] += e
    return tuple(out)


def _diff(p: Poly, i: int) -> Poly:
    out = {}
    for e, c in p.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def _text(p: Poly) -> str:
    parts = []
    for e, c in sorted(p.items()):
        c = Fraction(c)
        factors = [f"x{i+1}" if k == 1 else f"x{i+1}^{k}"
                   for i, k in enumerate(e) if k]
        parts.append("*".join([f"{c.numerator}/{c.denominator}"] + factors))
    return " + ".join(parts)


def _coeff(rng: random.Random) -> int:
    return rng.choice(COEFFS)


def _doc(dim: int, rows, measure: Poly | None, order: int) -> dict:
    return {
        "dim": dim,
        "bivector": [{"i": i, "j": j, "poly": _text(p)} for i, j, p in rows if p],
        "measure": _text(measure) if measure else "1",
        "order": order,
        "tasks": [],
    }


def _eps(i: int, j: int, k: int) -> int:
    return (i - j) * (j - k) * (k - i) // 2


# -- families --------------------------------------------------------------------

POISSON_PASS = {t: "pass" for t in (
    "validate", "gamma", "darboux-check", "subalgebra", "star-assoc",
    "trace-check", "free-particle")}


def nambu(name: str, casimir: Poly, order: int) -> Problem:
    """w^{12} = d_3 C, w^{23} = d_1 C, w^{31} = d_2 C, unit density."""
    rows = [(1, 2, _diff(casimir, 2)), (2, 3, _diff(casimir, 0)),
            (3, 1, _diff(casimir, 1))]
    gauge = None
    if all(sum(e) == 2 for e in casimir):
        a = [[Fraction(0)] * 3 for _ in range(3)]
        for e, c in casimir.items():
            i, j = [k for k in range(3) for _ in range(e[k])]
            a[i][j] += c if i != j else 2 * c
            if i != j:
                a[j][i] += c
        gauge = {}
        for i, k in itertools.product(range(3), repeat=2):
            b = sum(_eps(i, j, p) * _eps(l, k, m) * a[p][l] * a[m][j]
                    for j, l, p, m in itertools.product(range(3), repeat=4))
            if b:
                gauge[f"({i+1},{k+1})"] = _text({(0, 0, 0): b / 48})
    expected = dict(POISSON_PASS)
    if casimir == FUZZY_CASIMIR:
        expected["oscillator"] = "pass"
    return Problem(name, "nambu", _doc(3, rows, None, order), expected, gauge)


FUZZY_CASIMIR = {_mono(3, x1=2): Fraction(1, 2), _mono(3, x2=2): Fraction(1, 2),
                 _mono(3, x3=2): Fraction(1, 2)}


def planar(name: str, w12: Poly, order: int) -> Problem:
    """Two-dimensional bivector with a nonconstant entry, unit density."""
    expected = dict(POISSON_PASS, validate="fail")
    return Problem(name, "planar", _doc(2, [(1, 2, w12)], None, order), expected)


def kappa(name: str, n: int, order: int) -> Problem:
    """kappa-Minkowski w^{1k} = x^k, unit density."""
    rows = [(1, k, {_mono(n, **{f"x{k}": 1}): Fraction(1)}) for k in range(2, n + 1)]
    doc = _doc(n, rows, None, order)
    expected = dict(POISSON_PASS, validate="fail")
    # the divergence defect is known exactly: column 1 is -(n-1)
    expected["measure_defect"] = [f"{1 - n}/1"] + ["0/1"] * (n - 1)
    return Problem(name, "kappa", doc, expected)


def constant(name: str, n: int, order: int, rng: random.Random) -> Problem:
    """w^{12} = c with a density in the kernel coordinates x3..xn."""
    w12 = {(0,) * n: Fraction(_coeff(rng))}
    mu = {(0,) * n: Fraction(1)}
    mu[_mono(n, x3=2)] = Fraction(_coeff(rng))
    if n >= 4:
        mu[_mono(n, x3=1, x4=1)] = Fraction(_coeff(rng))
    doc = _doc(n, [(1, 2, w12)], mu, order)
    return Problem(name, "constant", doc, dict(POISSON_PASS), gauge={})


def non_poisson(name: str, rng: random.Random) -> Problem:
    """Negative control: w12 = a x2, w23 = b x3, w31 = c x1."""
    a, b, c = (_coeff(rng) for _ in range(3))
    rows = [(1, 2, {_mono(3, x2=1): Fraction(a)}),
            (2, 3, {_mono(3, x3=1): Fraction(b)}),
            (3, 1, {_mono(3, x1=1): Fraction(c)})]
    expected = {"validate": "fail", "gamma": "error"}
    return Problem(name, "non-poisson", _doc(3, rows, None, 2), expected)


# -- workloads -------------------------------------------------------------------

CONSTRUCT_TASKS = ("validate", "gamma", "darboux-check", "subalgebra")


def rounds(workload: str, seed: int, index: int = 0) -> list[Slot]:
    """The verdicts of round ``index`` of ``workload``; slot 0 is the
    cheapest and doubles as the warm-up verdict.

    ``seed`` and ``index`` draw the coefficients of every bivector and
    density, so each round brings new problems of the same shapes.  The
    problem files' own "seed" field, which drives the random operands the
    star tasks sample, is the problem's position in the round: fixing it
    keeps the cost of a round steady across benchmark seeds.
    """
    slots = _slots(workload, random.Random(f"{workload}:{seed}:{index}"))
    for k, p in enumerate(dict.fromkeys(slot.problem for slot in slots), 1):
        p.doc["seed"] = k
    return slots


def _slots(workload: str, rng: random.Random) -> list[Slot]:
    c = lambda: Fraction(_coeff(rng))  # noqa: E731
    m = _mono
    if workload == "assoc-poly":
        probs = [
            nambu("nambu-square", {m(3, x3=2): c() / 2}, 3),
            planar("planar-quadratic", {m(2): c(), m(2, x2=2): c()}, 3),
            nambu("nambu-cubic", {m(3, x3=2): c() / 2, m(3, x3=3): c() / 3}, 3),
            kappa("kappa-3", 3, 3),
            kappa("kappa-4", 4, 3),
            kappa("kappa-5", 5, 3),
        ]
        return [Slot(p, "star-assoc") for p in probs]
    if workload == "trace-gauss":
        probs = [
            nambu("nambu-square", {m(3, x3=2): c() / 2}, 2),
            constant("constant-3", 3, 2, rng),
            constant("constant-4", 4, 2, rng),
            nambu("nambu-pair", {m(3, x1=1, x2=1): c()}, 2),
        ]
        return [Slot(p, "trace-check") for p in probs]
    if workload == "construct":
        fuzzy = nambu("fuzzy-sphere", FUZZY_CASIMIR, 3)
        slots = [Slot(fuzzy, t) for t in CONSTRUCT_TASKS
                 + ("free-particle", "oscillator")]
        probs = [
            nambu("nambu-cubic", {m(3, x1=1, x2=1, x3=1): c(),
                                  m(3, x3=2): c() / 2}, 3),
            planar("planar-quadratic", {m(2, x1=1): c(), m(2, x1=1, x2=1): c()}, 3),
            kappa("kappa-3", 3, 3),
            kappa("kappa-4", 4, 3),
            kappa("kappa-5", 5, 3),
            constant("constant-3", 3, 3, rng),
            constant("constant-4", 4, 3, rng),
        ]
        for p in probs:
            slots += [Slot(p, t) for t in CONSTRUCT_TASKS + ("free-particle",)]
        bad = non_poisson("non-poisson", rng)
        slots += [Slot(bad, "validate"), Slot(bad, "gamma")]
        return slots
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("assoc-poly", "trace-gauss", "construct")


# -- report checks ---------------------------------------------------------------


def _all_zero(values) -> bool:
    return all(v in ("0", "0/1") for v in values)


def check(slot: Slot, rc: int, report: dict) -> str | None:
    """Return None when the report matches the known answer, else why not."""
    task, prob = slot.task, slot.problem
    want = prob.expected.get(task)
    rec = report.get("tasks", {}).get(task)
    if rec is None:
        return "task missing from report"
    status = rec.get("status")
    if status != want:
        return f"status {status!r}, expected {want!r}"
    if report.get("status") != want or rc != (0 if want == "pass" else 1):
        return f"report status {report.get('status')!r} with exit code {rc}"
    if task == "validate":
        jac = rec["jacobi_defect"]
        if prob.family == "non-poisson":
            if not jac or _all_zero(jac.values()):
                return "negative control without a Jacobi defect"
        elif jac:
            return "Jacobi defect on a Poisson bivector"
        if "measure_defect" in prob.expected:
            if rec["measure_defect"] != prob.expected["measure_defect"]:
                return f"measure defect {rec['measure_defect']}"
        elif (status == "pass") != _all_zero(rec["measure_defect"]):
            return "measure defect disagrees with the status"
    elif task == "gamma" and status == "error":
        if rec.get("reason") != "not a Poisson bivector" or not rec.get("jacobi_defect"):
            return "gamma error without the Jacobi defect"
    elif task == "gamma":
        if not rec.get("tensors"):
            return "no expansion tensors"
    elif task == "darboux-check":
        if not (rec["xx_zero"] and rec["pp_zero"] and rec["delta_matches_reference"]):
            return "Darboux flags not all true"
    elif task == "subalgebra":
        if not _all_zero(rec["defects"].values()):
            return "nonzero subalgebra defect"
    elif task == "free-particle":
        if not (rec["momentum_identity"] and rec["hamiltonian_identity"]
                and rec["momenta_commute"]):
            return "free-particle identities not all true"
    elif task == "oscillator":
        if rec.get("correction_coefficient") != "1/24":
            return f"correction coefficient {rec.get('correction_coefficient')!r}"
        if not (rec["identity_holds"] and rec["first_grade_vanishes"]):
            return "oscillator identities not all true"
    elif task == "star-assoc":
        if rec["failures"] or rec["bounds"].get("samples") != SAMPLES:
            return "associativity failures"
    elif task == "trace-check":
        if rec["corrected_failures"] or len(rec["uncorrected_grade2_defects"]) != SAMPLES:
            return "trace-condition failures"
        if prob.gauge is not None and rec["gauge"] != prob.gauge:
            return f"gauge {rec['gauge']}, expected {prob.gauge}"
    return None
