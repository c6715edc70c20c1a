#!/usr/bin/env python3
"""Check, with exact arithmetic, the derived star product, the closure of
its coordinate operators and the trace gauge read off the product.  No
coefficient is fixed by hand: the grade-3 correction Q^i is solved from
the closure and the gauge is read off the grade-2 rules.

Run from the repository root:  python3 scripts/calibrate_star.py

Checks performed:
  1. the product, derived grade by grade from the coordinate operators,
     is associative through grade 3 on sampled triples;
  2. the coordinate-operator closure [xhat^i, xhat^j] = i th w^{ij}(xhat)
     through grade 3, formed by operator composition and left star
     multiplication, independently of the symbol residual that Q is
     solved from;
  3. the exact trace condition for the product corrected by the gauge
     that ``gauge_b`` reads off its grade-2 rules.

The script prints what it finds and asserts a zero associator and a zero
closure defect for every family, and an exact trace condition for the
unit density (the other two densities are rejected).
tests/test_scripts.py runs it.
"""

from __future__ import annotations

import random
import sys

sys.path.insert(0, "src")

from ncqm.cli import random_poly
from ncqm.exact_algebra import GaussianFunction, parse_polynomial
from ncqm.operators import subalgebra_defect
from ncqm.poisson import (
    PoissonBivector,
    constant_bivector,
    fuzzy_sphere_bivector,
    index_texts,
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


def check_associativity():
    print("== associativity of the derived product through grade 3 ==")
    rng = random.Random(23)
    for name, w in bivector_family():
        sp = StarProduct(w, 3)
        ok = True
        for _ in range(3):
            f, g, h = (random_poly(rng, w.n, 3, terms=4) for _ in range(3))
            ok = ok and assoc_defect(f, g, h, sp).is_zero
        print(f"   {name}: associator zero through grade 3 = {ok}")
        assert ok, name


def check_closure():
    print("== coordinate-operator closure at grade 3 ==")
    for name, w in bivector_family():
        sp = StarProduct(w, 2, trunc=3)
        defects = subalgebra_defect(sp.xhat, sp)
        ok = all(op.is_zero for op in defects.values())
        print(f"   {name}: closure defect zero = {ok}")
        if not ok:
            for k, op in defects.items():
                if not op.is_zero:
                    print(f"      {k}: {op.text()}")
        assert ok, name


def check_gauge():
    print("== gauge coefficient from the exact trace condition ==")
    rng = random.Random(31)
    fuzzy = fuzzy_sphere_bivector()
    from ncqm.star import GaugeError
    exact = {}
    sp = StarProduct(fuzzy, 2)
    for mu_text in ("1", "x1^2+x2^2+x3^2", "1+x1^2+x2^2+x3^2"):
        mu = parse_polynomial(mu_text, 3)
        try:
            gauge = gauge_b(mu, sp)
        except GaugeError as err:
            # the gauge read off the product has a rational remainder for
            # these radial densities; they are rejected, not approximated
            print(f"   mu = {mu_text}: rejected ({err})")
            continue
        corrected = sp.with_gauge(gauge)
        ok = True
        for _ in range(4):
            f = GaussianFunction(random_poly(rng, 3, 3, terms=6))
            g = GaussianFunction(random_poly(rng, 3, 3, terms=6))
            fg = corrected.star(f, g)
            cond = trace(fg, mu) - trace(f * g, mu)
            ok = ok and all(cond.theta_slice(k).is_zero for k in range(3))
        print(f"   mu = {mu_text}: trace condition exact = {ok}, "
              f"gauge = {index_texts(gauge)}")
        exact[mu_text] = ok
    assert exact == {"1": True}, exact


if __name__ == "__main__":
    check_associativity()
    check_closure()
    check_gauge()
    print("calibration complete")
