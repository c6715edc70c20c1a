#!/usr/bin/env python3
"""Re-derive every frozen structure constant of the product from first
principles, with exact arithmetic.

Run from the repository root:  python3 scripts/calibrate_star.py

Derivations performed:
  1. grade-2 coefficients from associativity (given the grade-1 slice);
  2. grade-3 chain/mixed coefficients from associativity (grade-3 triple
     term pinned by the constant-bivector oracle);
  3. the coordinate-operator closure at grade 3, which fixes the
     correction-tensor coefficient;
  4. the gauge-matrix coefficient from the exact trace condition.

The script prints the solved values; they must match the constants frozen
in ncqm.star / ncqm.operators (the test suite asserts the consequences).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from ncqm.cli import random_poly
from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianRational,
    parse_polynomial,
)
from ncqm.operators import build_xhat, subalgebra_defect
from ncqm.poisson import (
    PoissonBivector,
    build_gamma,
    constant_bivector,
    fuzzy_sphere_bivector,
)
from ncqm.star import StarProduct, assoc_defect, gauge_b, trace


def bivector_family():
    fuzzy = fuzzy_sphere_bivector()
    so21 = PoissonBivector(3, {
        (0, 1): parse_polynomial("x3", 3),
        (1, 2): parse_polynomial("x1", 3),
        (0, 2): parse_polynomial("x2", 3),
    })
    quad = PoissonBivector(2, {(0, 1): parse_polynomial("x1*x2", 2)})
    quadb = PoissonBivector(2, {(0, 1): parse_polynomial("1+x1^2", 2)})
    const = constant_bivector([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    return [("fuzzy", fuzzy), ("so21", so21), ("quad", quad),
            ("quadb", quadb), ("const", const)]


def linear_solve(rows):
    """Exact Gaussian elimination for an overdetermined system
    rows = [(a1, a2, rhs)]; returns the unique solution or raises."""
    pivots = []
    for row in rows:
        row = list(row)
        for p in pivots:
            lead = next((k for k in range(2) if p[k] != 0))
            factor = row[lead] / p[lead] if p[lead] else 0
            if row[lead] != 0:
                row = [r - factor * q for r, q in zip(row, p)]
        if any(row[:2]):
            pivots.append(row)
        elif row[2] != 0:
            raise RuntimeError("inconsistent linear system")
    if len(pivots) < 2:
        raise RuntimeError("underdetermined system")
    a, b = pivots[0], pivots[1]
    if a[0] == 0:
        a, b = b, a
    u2 = b[2] / b[1] if b[1] else None
    if u2 is None:
        raise RuntimeError("singular system")
    u1 = (a[2] - a[1] * u2) / a[0]
    # verify on all rows
    for row in rows:
        if row[0] * u1 + row[1] * u2 != row[2]:
            raise RuntimeError("solution fails a constraint row")
    return u1, u2


def solve_grade2():
    print("== grade 2 from associativity ==")
    rng = random.Random(11)
    rows = []
    for name, w in bivector_family():
        for _ in range(3):
            f, g, h = (random_poly(rng, w.n, 3, terms=6) for _ in range(3))
            evals = {}
            for tag, (ca, cb) in {
                "00": (0, 0), "10": (1, 0), "01": (0, 1),
            }.items():
                sp = StarProduct(w, 2, coeff_overrides={
                    "g2_double": GaussianRational(Fraction(ca)),
                    "g2_grad": GaussianRational(Fraction(cb)),
                })
                evals[tag] = assoc_defect(f, g, h, sp).theta_coefficient(2)
            k1 = evals["10"] - evals["00"]
            k2 = evals["01"] - evals["00"]
            keys = set(evals["00"].terms) | set(k1.terms) | set(k2.terms)
            for key in keys:
                for part in ("re", "im"):
                    a1 = getattr(k1.terms.get(key, GaussianRational(0)), part)
                    a2 = getattr(k2.terms.get(key, GaussianRational(0)), part)
                    rhs = -getattr(evals["00"].terms.get(key, GaussianRational(0)), part)
                    if a1 or a2 or rhs:
                        rows.append((a1, a2, rhs))
    u1, u2 = linear_solve(rows)
    print(f"   double coefficient = {u1}   (frozen: -1/8)")
    print(f"   gradient coefficient = {u2}   (frozen: -1/12)")
    assert u1 == Fraction(-1, 8) and u2 == Fraction(-1, 12)


def solve_grade3():
    print("== grade 3 chain/mixed from associativity ==")
    rng = random.Random(23)
    rows = []
    for name, w in bivector_family():
        for _ in range(2):
            f, g, h = (random_poly(rng, w.n, 3, terms=4) for _ in range(3))
            evals = {}
            for tag, (cc, cm) in {
                "00": (0, 0), "10": (1, 0), "01": (0, 1),
            }.items():
                sp = StarProduct(w, 3, coeff_overrides={
                    "g3_chain": GaussianRational(0, Fraction(cc)),
                    "g3_mixed": GaussianRational(0, Fraction(cm)),
                })
                evals[tag] = assoc_defect(f, g, h, sp).theta_coefficient(3)
            k1 = evals["10"] - evals["00"]
            k2 = evals["01"] - evals["00"]
            keys = set(evals["00"].terms) | set(k1.terms) | set(k2.terms)
            for key in keys:
                for part in ("re", "im"):
                    a1 = getattr(k1.terms.get(key, GaussianRational(0)), part)
                    a2 = getattr(k2.terms.get(key, GaussianRational(0)), part)
                    rhs = -getattr(evals["00"].terms.get(key, GaussianRational(0)), part)
                    if a1 or a2 or rhs:
                        rows.append((a1, a2, rhs))
    u1, u2 = linear_solve(rows)
    print(f"   chain coefficient = i*({u1})   (frozen: -i/48)")
    print(f"   mixed coefficient = i*({u2})   (frozen: -i/24)")
    return u1, u2


def check_closure():
    print("== coordinate-operator closure at grade 3 ==")
    for name, w in bivector_family():
        sp = StarProduct(w, 2, trunc=3)
        gamma = build_gamma(w, 3)
        xhat = build_xhat(w, gamma)
        defects = subalgebra_defect(xhat, w, sp)
        ok = all(op.is_zero for op in defects.values())
        print(f"   {name}: closure defect zero = {ok}")
        if not ok:
            for k, op in defects.items():
                if not op.is_zero:
                    print(f"      {k}: {op.text()}")


def check_gauge():
    print("== gauge coefficient from the exact trace condition ==")
    rng = random.Random(31)
    fuzzy = fuzzy_sphere_bivector()
    from ncqm.star import GaugeError
    for mu_text in ("1", "x1^2+x2^2+x3^2", "1+x1^2+x2^2+x3^2"):
        mu = parse_polynomial(mu_text, 3)
        sp = StarProduct(fuzzy, 2)
        try:
            gauge = gauge_b(mu, fuzzy)
        except GaugeError as err:
            # the divergence formula has a rational remainder for these
            # radial densities; they are rejected, not approximated
            print(f"   mu = {mu_text}: rejected ({err})")
            continue
        ok = True
        for _ in range(4):
            f = GaussianFunction(random_poly(rng, 3, 3, terms=6))
            g = GaussianFunction(random_poly(rng, 3, 3, terms=6))
            fg = sp.star_prime(f, g, gauge, 2)
            cond = trace(fg, mu) - trace(f * g, mu)
            ok = ok and all(cond.theta_slice(k).is_zero for k in range(3))
        print(f"   mu = {mu_text}: trace condition exact = {ok}, "
              f"gauge = {gauge.to_json()}")


if __name__ == "__main__":
    solve_grade2()
    u1, u2 = solve_grade3()
    check_closure()
    check_gauge()
    print("calibration complete")
