#!/usr/bin/env python3
"""End-to-end exact derivation on the rotation-invariant linear bivector.

Builds the Darboux expansion, the coordinate operators, the star product,
the trace gauge, and the corrected oscillator, printing the exact values
the engine certifies.  Run from the repository root:

    python3 scripts/run_fuzzy_experiments.py
"""

import sys

sys.path.insert(0, "src")

from ncqm.exact_algebra import ThetaPoly
from ncqm.operators import subalgebra_defect
from ncqm.poisson import (
    assemble_darboux,
    build_gamma,
    fuzzy_sphere_bivector,
    index_texts,
    verify_darboux,
)
from ncqm.qm_examples import (
    build_fuzzy_oscillator,
    energy_correction,
    free_particle_check,
    rotation_covariance_check,
)
from ncqm.star import StarProduct, gauge_b


def main() -> int:
    w = fuzzy_sphere_bivector()
    print("bivector entries:",
          {f"({i+1},{j+1})": w.entry(i, j).text()
           for i in range(3) for j in range(i + 1, 3)})

    tower = build_gamma(w, 3)
    print("curved coordinate 1 in canonical variables:")
    print("   ", assemble_darboux(tower)[0].text())
    report = verify_darboux(tower, w)
    print("bracket defect zero:", report.xx_zero,
          "| momenta canonical:", report.pp_zero)

    product = StarProduct(w, 3)
    x1 = ThetaPoly.coordinate(3, 0)
    x2 = ThetaPoly.coordinate(3, 1)
    print("x1 * x2 =", product.star(x1, x2).text())

    closure = subalgebra_defect(product.xhat, product)
    print("operator closure defects zero:",
          all(op.is_zero for op in closure.values()))

    gauge = gauge_b(ThetaPoly.one(3), product)
    print("trace gauge matrix:", index_texts(gauge))

    osc = build_fuzzy_oscillator()
    print("oscillator grade-2 identity (L^2/12):", osc.identity_holds)
    for l in range(3):
        c = energy_correction(2, l)
        print(f"   level shift l={l}: ({c.coefficient})*th^2*w_osc^2")

    rot = rotation_covariance_check()
    print("rotation covariance:", rot.to_json())

    fp = free_particle_check(ThetaPoly.one(3))
    print("free particle energy symbol:", fp.eigenvalue_symbol.text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
