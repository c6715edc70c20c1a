"""Operator algebra: composition, commutators, coordinate and momentum
operators, the closure correction, similarity transforms."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ncqm import exact_algebra
from ncqm.cli import ProblemFile, run_task
from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianRational,
    RationalFunction,
    ThetaPoly,
    UsageError,
    multi_index,
    parse_polynomial,
)
from ncqm.operators import (
    DiffOperator,
    angular_momentum,
    build_gamma1,
    build_phat,
    build_xhat,
    conjugate_by_measure_power,
    l_squared,
    laplacian,
    plane_wave_symbol,
    residual_without_correction,
    subalgebra_defect,
)
from ncqm.poisson import PoissonBivector, build_gamma, levi_civita
from ncqm.star import StarProduct

from conftest import GRADE3_FAMILIES, poly_strategy, scalars, seeded_poly, solved_gamma1
from oracles import gamma1_closed_form

I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)


def random_operator(rng, n=2, trunc=3):
    op = DiffOperator.zero(n, trunc)
    for _ in range(3):
        midx = tuple(rng.randint(0, 1) for _ in range(n))
        t = rng.randint(0, 1)
        coeff = RationalFunction(seeded_poly(rng, n, degree=2, terms=2, trunc=trunc))
        op = op + DiffOperator.term(coeff, midx, theta_power=t, trunc=trunc)
    return op


# a density for rational coefficients
MU = parse_polynomial("1+x1^2", 2)


def operator_strategy(n=2, order=2):
    """Sums of one to three terms th^t (c / MU^k) d^a with c a grade-free
    polynomial of degree at most 2 and each a_i at most ``order``."""
    monomial = st.tuples(st.lists(st.integers(0, n - 1), max_size=2), scalars).map(
        lambda sc: ThetaPoly.monomial(n, sc[1], x=multi_index(n, *sc[0])))
    coeff = st.lists(monomial, min_size=1, max_size=2).map(
        lambda ms: sum(ms, ThetaPoly.zero(n)))
    term = st.tuples(coeff, st.tuples(*[st.integers(0, order)] * n),
                     st.integers(0, 1), st.integers(0, 1))

    def build(parts):
        op = DiffOperator.zero(n)
        for c, midx, t, k in parts:
            op = op + DiffOperator.term(RationalFunction(c, MU ** k), midx, t)
        return op

    return st.lists(term, min_size=1, max_size=3).map(build)


def apply_by_terms(op, f: RationalFunction) -> RationalFunction:
    """op applied to a rational function through its term view and the
    quotient rule, independently of ``compose``."""
    out = RationalFunction(ThetaPoly.zero(op.n, op.trunc))
    for (t, midx), coeff in op.terms.items():
        d = f
        for axis, k in enumerate(midx):
            for _ in range(k):
                d = d.diff_x(axis)
        out = out + coeff * d * ThetaPoly.theta(op.n, t, op.trunc)
    return out


class TestAlgebra:
    def test_canonical_commutator(self):
        d1 = DiffOperator.derivative(2, 0)
        x1 = DiffOperator.multiplication(ThetaPoly.coordinate(2, 0))
        assert d1.commutator(x1) == DiffOperator.identity(2)

    def test_derivatives_commute(self):
        d1 = DiffOperator.derivative(2, 0)
        d2 = DiffOperator.derivative(2, 1)
        assert d1.commutator(d2).is_zero

    def test_apply_examples(self):
        op = DiffOperator.derivative(1, 0).scale(MINUS_I)
        f = ThetaPoly.coordinate(1, 0) ** 2
        assert op.apply(f) == RationalFunction.of(
            parse_polynomial("-2*i*x1", 1))
        assert DiffOperator.identity(1).apply(f) == RationalFunction.of(f)

    def test_composition_associative(self, rng):
        for _ in range(4):
            a, b, c = (random_operator(rng) for _ in range(3))
            assert a.compose(b.compose(c)) == a.compose(b).compose(c)

    def test_commutator_jacobi(self, rng):
        for _ in range(3):
            a, b, c = (random_operator(rng) for _ in range(3))
            total = (a.commutator(b.commutator(c))
                     + c.commutator(a.commutator(b))
                     + b.commutator(c.commutator(a)))
            assert total.is_zero

    def test_apply_composition_consistency(self, rng):
        for _ in range(3):
            a, b = random_operator(rng), random_operator(rng)
            f = seeded_poly(rng, 2, degree=2, terms=3)
            inner = b.apply_poly(f)
            assert isinstance(inner, RationalFunction) and inner.den == 1
            assert a.compose(b).apply(f) == a.apply_poly(inner.num)

    @settings(max_examples=30, deadline=None)
    @given(operator_strategy(), operator_strategy(), poly_strategy(2))
    def test_composition_is_application_in_turn(self, a, b, f):
        assert b.apply(f) == apply_by_terms(b, RationalFunction(f))
        f = RationalFunction(f)
        assert apply_by_terms(a.compose(b), f) == \
            apply_by_terms(a, apply_by_terms(b, f))

    # no shrinking: a wrong product stops cancelling its denominators, so
    # each shrink step would be slow; the test above shrinks instead
    @settings(max_examples=20, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(operator_strategy(order=1), operator_strategy(order=1),
           operator_strategy(order=1))
    def test_composition_associative_with_rational_coefficients(self, a, b, c):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_gaussian_application(self):
        d = DiffOperator.derivative(1, 0)
        g = GaussianFunction(ThetaPoly.one(1))
        assert d.apply(g).prefactor == parse_polynomial("-2*x1", 1)
        rational = DiffOperator.multiplication(
            RationalFunction(parse_polynomial("1", 1),
                             parse_polynomial("1+x1^2", 1)))
        with pytest.raises(UsageError):
            rational.apply(g)


class TestCoordinateOperators:
    def test_grade_slices(self, fuzzy):
        xhat = StarProduct(fuzzy, 2, trunc=3).xhat
        for i in range(3):
            # grade 0 is multiplication by the coordinate
            assert xhat[i].theta_slice(0) == DiffOperator.multiplication(
                ThetaPoly.coordinate(3, i))
            # grade 1 is (i/2) w^{il} d_l
            expect = DiffOperator.zero(3)
            for l in range(3):
                expect = expect + DiffOperator.term(
                    RationalFunction(fuzzy.entry(i, l).scale(I * Fraction(1, 2))),
                    tuple(1 if a == l else 0 for a in range(3)))
            assert xhat[i].theta_slice(1) == expect

    def test_grade2_is_minus_tower_tensor(self, fuzzy):
        product = StarProduct(fuzzy, 2, trunc=3)
        tower, xhat = product.gamma, product.xhat
        for i in range(3):
            expect = DiffOperator.zero(3)
            for l in range(3):
                for m in range(l, 3):
                    coeff = tower.component(2, i, (l, m))
                    if coeff.is_zero:
                        continue
                    midx = [0] * 3
                    midx[l] += 1
                    midx[m] += 1
                    mult = 2 if l != m else 1
                    expect = expect + DiffOperator.term(
                        RationalFunction(coeff.scale(-mult)), tuple(midx))
            assert xhat[i].theta_slice(2) == expect

    def test_applied_to_one_returns_coordinate(self, fuzzy):
        xhat = StarProduct(fuzzy, 2, trunc=3).xhat
        one = ThetaPoly.one(3)
        for i in range(3):
            assert xhat[i].apply(one) == RationalFunction.of(
                ThetaPoly.coordinate(3, i))

    def test_constant_bivector_commutator(self, const3d):
        xhat = StarProduct(const3d, 2, trunc=3).xhat
        th = ThetaPoly.theta(3)
        for i in range(3):
            for j in range(3):
                got = xhat[i].commutator(xhat[j])
                expect = DiffOperator.multiplication(
                    (th * const3d.entry(i, j)).scale(I), trunc=3)
                assert got == expect

    def test_requires_enough_orders(self, fuzzy):
        with pytest.raises(UsageError):
            build_xhat(build_gamma(fuzzy, 2))

    def test_polynomial_coefficients_skip_division(self, quad2d, monkeypatch):
        """A unit denominator is kept as it is: building operators with
        polynomial coefficients runs no exact division."""
        calls = []
        divide = exact_algebra.divide_exact

        def counting(num, den):
            calls.append(den)
            return divide(num, den)

        tower = build_gamma(quad2d, 3)
        monkeypatch.setattr(exact_algebra, "divide_exact", counting)
        build_xhat(tower)
        x1 = parse_polynomial("x1", 2)
        StarProduct(quad2d, 2, trunc=3).left_multiplication_operator(x1 * x1)
        assert calls == []
        assert RationalFunction(x1 * x1, x1) == RationalFunction(x1)
        assert calls


def _mutated_gamma1(w):
    """The product the correction is solved on, and the correction as three
    broken solvers would give it: the homotopy weight 1/(d+1) in place of
    1/(d+2) (C has momentum degree d + 1), the grade-3 part of i th L_w
    dropped (no grade-2 rules), and the cross terms [X_1^i, X_2^j] +
    [X_2^i, X_1^j] dropped (bare operators without their grade-2 part)."""
    product = StarProduct(w, 2, trunc=3)
    bare = build_xhat(product.gamma)
    rules = product.slices[2]
    n = w.n

    def reweighted(q):
        return sum((block * ThetaPoly.monomial(n, Fraction(sum(e) + 1, sum(e)), p=e)
                    for e, block in q.momentum_blocks().items()), ThetaPoly.zero(n))

    no_grade2 = [op - op.theta_slice(2).theta_shift(2) for op in bare]
    return product, {
        "weight": [reweighted(q) for q in build_gamma1(product.w, bare, rules, 3)],
        "no-lw": build_gamma1(product.w, bare, {}, 3),
        "no-cross": build_gamma1(product.w, no_grade2, rules, 3),
    }


ORACLE_FAMILIES = {
    **GRADE3_FAMILIES,
    "quadratic": PoissonBivector(2, {(0, 1): parse_polynomial("x1*x2", 2)}),
    "planar-cubic": PoissonBivector(2, {(0, 1): parse_polynomial("x1*x2^2+x1^3", 2)}),
    # C = x3^3/3 + x1^2*x2 + x2^2
    "nambu-mixed": PoissonBivector(3, {(0, 1): parse_polynomial("x3^2", 3),
                                       (1, 2): parse_polynomial("2*x1*x2", 3),
                                       (2, 0): parse_polynomial("x1^2+2*x2", 3)}),
}


class TestGamma1:
    @pytest.mark.parametrize("family", list(ORACLE_FAMILIES))
    def test_solve_equals_the_closed_form(self, family):
        w = ORACLE_FAMILIES[family]
        assert solved_gamma1(w) == gamma1_closed_form(w)

    @pytest.mark.parametrize("mutant", ["weight", "no-lw", "no-cross"])
    @pytest.mark.parametrize("family", ["nambu-cubic", "nambu-construct"])
    def test_broken_solver_is_caught(self, family, mutant):
        """Each broken solve differs from the closed form and leaves a
        nonzero closure defect."""
        w = GRADE3_FAMILIES[family]
        product, mutants = _mutated_gamma1(w)
        q = mutants[mutant]
        assert q != gamma1_closed_form(w)
        defects = subalgebra_defect(build_xhat(product.gamma, q), product)
        assert any(not op.is_zero for op in defects.values())

    def test_vanishes_for_constant_and_linear(self, fuzzy, const3d):
        assert all(q.is_zero for q in solved_gamma1(fuzzy))
        assert all(q.is_zero for q in solved_gamma1(const3d))

    def test_nonzero_for_quadratic(self, quad2d):
        g1 = solved_gamma1(quad2d)
        assert not all(q.is_zero for q in g1)
        # each Q^i is a grade-free quadratic form in the momenta
        for q in g1:
            assert q.is_theta_free
            assert all(sum(exps) == 2 for exps in q.momentum_blocks())

    @pytest.mark.parametrize("which", ["fuzzy", "quad2d", "const3d"])
    def test_closure(self, which, request):
        w = request.getfixturevalue(which)
        product = StarProduct(w, 2, trunc=3)
        defects = subalgebra_defect(product.xhat, product)
        assert all(op.is_zero for op in defects.values())

    def test_residual_without_correction(self, quad2d):
        """Dropping the correction leaves exactly (i/8) A^{ij,l} d_l at
        grade 3, with A the double-derivative obstruction tensor."""
        product = StarProduct(quad2d, 2, trunc=3)
        residual = residual_without_correction(
            subalgebra_defect(product.xhat, product), product.gamma1)[(0, 1)]
        expect = DiffOperator.zero(2, 3)
        for l in range(2):
            A = ThetaPoly.zero(2)
            for nn in range(2):
                for k in range(2):
                    for m in range(2):
                        A = A + quad2d.entry(nn, k) \
                            * quad2d.entry(m, l).diff_x(k) \
                            * quad2d.entry(0, 1).diff_x(nn).diff_x(m)
            if A.is_zero:
                continue
            expect = expect + DiffOperator.term(
                RationalFunction(A.scale(I * Fraction(1, 8))),
                tuple(1 if a == l else 0 for a in range(2)),
                theta_power=3, trunc=3)
        assert residual == expect


def _subalgebra_report(w: PoissonBivector) -> dict:
    doc = {"dim": w.n, "bivector": [{"i": i + 1, "j": j + 1, "poly": p.text()}
                                    for (i, j), p in sorted(w.upper.items())]}
    return run_task(ProblemFile.parse(json.dumps(doc)), "subalgebra")


class TestResidualWithoutCorrection:
    """The bare operators' defects, read off the corrected ones and Q,
    against the bare family composed out."""

    @pytest.mark.parametrize("family", [*ORACLE_FAMILIES, "fuzzy", "const3d"])
    def test_report_equals_the_composed_bare_family(self, family, request):
        w = ORACLE_FAMILIES.get(family) or request.getfixturevalue(family)
        product = StarProduct(w, 2, trunc=3)
        bare = subalgebra_defect(build_xhat(product.gamma), product)
        assert _subalgebra_report(w)["residual_without_correction"] == \
            {f"({i+1},{j+1})": op.text() for (i, j), op in sorted(bare.items())}

    @pytest.mark.parametrize("family", ["nambu-cubic", "nambu-construct", "quadratic"])
    def test_any_correction_gives_the_same_residual(self, family):
        product = StarProduct(ORACLE_FAMILIES[family], 2, trunc=3)
        doubled = copy.copy(product)
        doubled.gamma1 = [q.scale(2) for q in product.gamma1]
        doubled.xhat = build_xhat(product.gamma, doubled.gamma1)
        defects = subalgebra_defect(doubled.xhat, doubled)
        assert any(not op.is_zero for op in defects.values())
        assert residual_without_correction(defects, doubled.gamma1) == \
            residual_without_correction(subalgebra_defect(product.xhat, product),
                                        product.gamma1)

    def test_one_family_is_composed(self, monkeypatch):
        """A subalgebra verdict composes [xhat^i, xhat^j] once per pair."""
        calls = []
        compose = DiffOperator.compose

        def counting(a, b):
            calls.append(b)
            return compose(a, b)

        monkeypatch.setattr(DiffOperator, "compose", counting)
        _subalgebra_report(ORACLE_FAMILIES["nambu-cubic"])
        assert len(calls) == 3 * 2

    def test_truncated_at_grade_3(self, quad2d):
        """Past grade 3 the identity no longer holds; the residual stops
        at grade 3."""
        product = StarProduct(quad2d, 2, trunc=4)
        bare = subalgebra_defect(build_xhat(product.gamma, trunc=4), product)
        got = residual_without_correction(subalgebra_defect(product.xhat, product),
                                          product.gamma1)
        assert all(op.trunc == 3 for op in got.values())
        assert got == {k: op.truncated(3) for k, op in bare.items()}


class TestMomentumOperators:
    def test_unit_density(self):
        phat = build_phat(ThetaPoly.one(2))
        for i in range(2):
            assert phat[i] == DiffOperator.derivative(2, i).scale(MINUS_I)

    def test_commute_for_any_density(self):
        mu = parse_polynomial("1 + x1^2 + 2*x2^4", 2)
        phat = build_phat(mu)
        assert phat[0].commutator(phat[1]).is_zero

    def test_zero_density_rejected(self):
        with pytest.raises(UsageError):
            build_phat(ThetaPoly.zero(2))

    def test_mixed_commutator_first_grade(self, fuzzy):
        """[xhat, phat] = i delta - (i th/2) d_j w^{il} phat_l  exactly
        through first grade for the unit density."""
        xhat = StarProduct(fuzzy, 2, trunc=3).xhat
        phat = build_phat(ThetaPoly.one(3))
        for i in range(3):
            for j in range(3):
                got = xhat[i].commutator(phat[j]).truncated(1)
                expect = DiffOperator.zero(3)
                if i == j:
                    expect = DiffOperator.identity(3).scale(I)
                for l in range(3):
                    coeff = fuzzy.entry(i, l).diff_x(j).scale(I * Fraction(-1, 2))
                    if coeff.is_zero:
                        continue
                    expect = expect + DiffOperator.multiplication(
                        RationalFunction(coeff), 3).theta_shift(1).compose(phat[l])
                assert got == expect.truncated(1)


class TestConjugation:
    def test_momentum_reduction(self):
        mu = parse_polynomial("1 + x1^2", 1)
        phat = build_phat(mu)
        conj = conjugate_by_measure_power(phat[0], mu, Fraction(1, 2))
        assert conj == DiffOperator.derivative(1, 0).scale(MINUS_I)

    def test_group_property(self):
        mu = parse_polynomial("1 + x1^2 + x2^2", 2)
        op = DiffOperator.derivative(2, 0).compose(DiffOperator.derivative(2, 1))
        once = conjugate_by_measure_power(op, mu, Fraction(1, 3))
        twice = conjugate_by_measure_power(once, mu, Fraction(2, 3))
        direct = conjugate_by_measure_power(op, mu, Fraction(1))
        assert twice == direct

    def test_plane_wave_symbol(self):
        h = laplacian(2).scale(Fraction(-1, 2))
        sym = plane_wave_symbol(h)
        expect = (ThetaPoly.momentum(2, 0) ** 2
                  + ThetaPoly.momentum(2, 1) ** 2).scale(Fraction(1, 2))
        assert sym == expect

    def test_symbol_needs_constant_coefficients(self):
        op = DiffOperator.multiplication(ThetaPoly.coordinate(2, 0))
        with pytest.raises(UsageError):
            plane_wave_symbol(op)


class TestRotationGenerators:
    def test_algebra(self):
        L = [angular_momentum(3, i) for i in range(3)]
        for i in range(3):
            for j in range(3):
                expect = DiffOperator.zero(3)
                for k in range(3):
                    e = levi_civita(i, j, k)
                    if e:
                        expect = expect + L[k].scale(I * e)
                assert L[i].commutator(L[j]) == expect

    def test_l_squared_kills_constants(self):
        assert l_squared().apply(ThetaPoly.one(3)).is_zero
