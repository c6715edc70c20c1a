"""Acceptance criteria, one test per criterion, all checks exact.

Every assertion is zero-tolerance rational arithmetic.  Where the source
display carries a sign or normalization that conflicts with the exactly
verified algebra (second-order expansion tensor orientation, the grade-2
product coefficient, the gauge normalization, the closure-residual
coefficient), the criterion is implemented with the value forced by the
defining identities; see the decisions ledger for the full accounting.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.
"""

import random
from fractions import Fraction

from ncqm.cli import ProblemFile, run_task
from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianRational,
    ThetaPoly,
    parse_polynomial,
)
from ncqm.operators import (
    DiffOperator,
    build_xhat,
    l_squared,
    subalgebra_defect,
)
from ncqm.poisson import (
    PoissonBivector,
    build_gamma,
    verify_darboux,
)
from ncqm.qm_examples import (
    build_fuzzy_oscillator,
    energy_correction,
    free_particle_check,
)
from ncqm.star import (
    StarProduct,
    assoc_defect,
    cyclicity_defect,
    gauge_b,
    measure_defect,
)

from conftest import seeded_poly
from oracles import closed_form_order2, constant_term, moyal_product, trace_condition_oracle

I = GaussianRational(0, 1)
SEED = 1081
N_SAMPLES = 20


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_gamma_recursion(fuzzy, quad2d, const3d):
    for w in (const3d, fuzzy, quad2d):
        tower = build_gamma(w, 2)
        for i in range(w.n):
            for j in range(w.n):
                assert tower.component(1, i, (j,)) == \
                    w.entry(i, j).scale(Fraction(-1, 2))
                for k in range(w.n):
                    assert tower.component(2, i, (j, k)) == \
                        closed_form_order2(w, i, j, k)
    _report(1, "first- and second-order expansion tensors match the "
               "closed forms symbolically on constant, fuzzy-sphere, and "
               "2D quadratic bivectors")


def test_criterion_2_darboux_defining_property(fuzzy):
    report = verify_darboux(build_gamma(fuzzy, 3), fuzzy)
    assert report.xx_zero
    assert report.pp_zero
    _report(2, "coordinate brackets reproduce the bivector identically "
               "through grade 3 and momentum brackets vanish identically")


def test_criterion_3_star_associativity(fuzzy, const3d):
    rng = random.Random(SEED)
    for w in (fuzzy, const3d):
        product = StarProduct(w, 3)
        for _ in range(N_SAMPLES):
            f, g, h = (seeded_poly(rng, w.n) for _ in range(3))
            assert assoc_defect(f, g, h, product).is_zero
    _report(3, f"(f*g)*h - f*(g*h) = 0 through grade 3 for "
               f"{N_SAMPLES} seeded triples on each of the fuzzy sphere "
               f"and a constant bivector")


def test_criterion_4_moyal_oracle(const3d):
    rng = random.Random(SEED + 1)
    product = StarProduct(const3d, 3)
    matrix = [[constant_term(const3d.entry(i, j)).re for j in range(3)]
              for i in range(3)]
    for _ in range(10):
        f, g = seeded_poly(rng, 3), seeded_poly(rng, 3)
        got = product.star(f, g)
        expect = moyal_product(f, g, matrix, 3)
        for k in range(4):
            assert got.theta_coefficient(k) == expect.theta_coefficient(k)
    _report(4, "constant-bivector product coincides per grade 0..3 with "
               "the independent exponential-series oracle")


def test_criterion_5_subalgebra_closure(fuzzy, quad2d, const3d):
    for w in (fuzzy, quad2d, const3d):
        product = StarProduct(w, 2, trunc=3)
        defects = subalgebra_defect(product.xhat, product)
        bare = subalgebra_defect(build_xhat(build_gamma(w, 3)), product)
        assert all(op.is_zero for op in defects.values())
        # constant and fuzzy close with or without the correction tensor
        if w is not quad2d:
            assert all(op.is_zero for op in bare.values())
    # with the correction zeroed the quadratic residual is exactly
    # (i/8) w^{nk} d_k w^{ml} d_n d_m w^{ij} d_l at grade 3
    product = StarProduct(quad2d, 2, trunc=3)
    tower = build_gamma(quad2d, 3)
    bare = build_xhat(tower)
    residual = subalgebra_defect(bare, product)[(0, 1)]
    expect = DiffOperator.zero(2, 3)
    for l in range(2):
        A = ThetaPoly.zero(2)
        for nn in range(2):
            for k in range(2):
                for m in range(2):
                    A = A + quad2d.entry(nn, k) * quad2d.entry(m, l).diff_x(k) \
                        * quad2d.entry(0, 1).diff_x(nn).diff_x(m)
        if not A.is_zero:
            expect = expect + DiffOperator.term(
                DiffOperator(A.scale(I * Fraction(1, 8))),
                tuple(1 if a == l else 0 for a in range(2)),
                theta_power=3, trunc=3)
    assert residual == expect
    assert not residual.is_zero
    _report(5, "coordinate-operator commutators equal i th (left star "
               "multiplication) through grade 3 with the derived correction "
               "tensor; without it the quadratic residual matches the "
               "single-derivative closed form symbolically")


def test_criterion_6_trace_cyclicity(fuzzy):
    rng = random.Random(SEED + 2)
    mu = ThetaPoly.one(3)
    product = StarProduct(fuzzy, 2)
    gauge = gauge_b(mu, product)  # read off the product, not hard-coded
    diag = ThetaPoly.constant(3, Fraction(1, 24))
    assert gauge == {(i, i): diag for i in range(3)}
    for _ in range(N_SAMPLES):
        f = GaussianFunction(seeded_poly(rng, 3))
        g = GaussianFunction(seeded_poly(rng, 3))
        rep = cyclicity_defect(f, g, product.with_gauge(gauge), mu)
        assert rep.zero_through(2)
    # the uncorrected product exhibits the grade-2 obstruction, matching
    # the independent moment-oracle evaluation
    f = GaussianFunction(ThetaPoly.coordinate(3, 0))
    raw = cyclicity_defect(f, f, product, mu)
    grade2 = raw.trace_condition.theta_slice(2)
    assert not grade2.is_zero
    assert grade2 == trace_condition_oracle(f, f, fuzzy, mu)
    _report(6, f"with the derived diagonal gauge (entries 1/24) the "
               f"corrected trace is cyclic exactly at grades 0..2 on "
               f"{N_SAMPLES} seeded Gaussian pairs; the uncorrected "
               f"grade-2 obstruction matches the moment oracle")


def test_criterion_7_oscillator_identity():
    report = build_fuzzy_oscillator()
    assert report.first_grade_vanishes
    assert report.potential_slices[2] == l_squared().scale(Fraction(1, 12))
    assert report.identity_holds
    assert energy_correction(1, 1).coefficient == Fraction(1, 12)
    assert energy_correction(2, 2).coefficient == Fraction(1, 4)
    assert energy_correction(2, 0).coefficient == 0
    _report(7, "grade-2 slice of the gauge-corrected potential equals "
               "L^2/12 as an exact operator identity, so the correction is "
               "th^2 w^2 L^2/24; level shifts are th^2 w^2 l(l+1)/24")


def test_criterion_8_free_particle():
    for mu_text, n in (("1", 3), ("1+x1^2", 3), ("1+x1^2+x2^2+x3^2", 3)):
        mu = parse_polynomial(mu_text, n)
        report = free_particle_check(mu)
        assert report.momentum_identity
        assert report.hamiltonian_identity
        expect = ThetaPoly.zero(n, 3)
        for i in range(n):
            expect = expect + ThetaPoly.momentum(n, i) ** 2
        assert report.eigenvalue_symbol == expect.scale(Fraction(1, 2))
    _report(8, "density-conjugation operator identity exact for the three "
               "densities; plane-wave energy k.k/2 reported")


def test_criterion_9_negative_controls():
    problem = ProblemFile.parse("""{
      "dim": 3,
      "bivector": [
        {"i": 1, "j": 2, "poly": "x2"},
        {"i": 2, "j": 3, "poly": "x3"},
        {"i": 3, "j": 1, "poly": "x1"}
      ]
    }""")
    rec = run_task(problem, "validate")
    assert rec["status"] == "fail"
    assert rec["jacobi_defect"]  # nonzero polynomial payload printed
    bad_measure = PoissonBivector(2, {(0, 1): parse_polynomial("x1", 2)})
    defect = measure_defect(ThetaPoly.one(2), bad_measure)
    assert defect[1] == ThetaPoly.one(2)
    rec2 = run_task(ProblemFile.parse(
        '{"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x1"}]}'),
        "validate")
    assert rec2["status"] == "fail"
    assert any(d != "0/1" for d in rec2["measure_defect"])
    _report(9, "non-Poisson bivector and invalid density both fail "
               "validation with their exact defect payloads")


def test_criterion_10_scope():
    # phenomenology (scattering, experimental bounds) is out of scope by
    # design; the CLI exposes exactly the property-based tasks
    from ncqm.cli import TASKS
    assert set(TASKS) == {
        "validate", "gamma", "darboux-check", "star-assoc",
        "trace-check", "subalgebra", "oscillator", "free-particle",
    }
    _report(10, "criteria 1-9 constitute the acceptance suite; "
                "phenomenology is excluded by scope")
