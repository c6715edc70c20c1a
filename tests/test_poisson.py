"""Bivector validation, canonical brackets, and the Darboux machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from ncqm.exact_algebra import (
    DEFAULT_TRUNC,
    ThetaPoly,
    UsageError,
    parse_polynomial,
    substitute_all,
)
from ncqm.poisson import (
    GammaTower,
    NotPoissonError,
    PoissonBivector,
    assemble_darboux,
    build_gamma,
    canonical_bracket,
    constant_bivector,
    general_brackets,
    invert_phase_map,
    jacobi_defect,
    reference_delta,
    verify_darboux,
)

from conftest import poly_strategy
from oracles import closed_form_order2, phase_space_jacobi_defect


class TestJacobi:
    def test_fuzzy_sphere_is_poisson(self, fuzzy):
        assert jacobi_defect(fuzzy) == {}

    def test_constant_is_poisson(self, const3d):
        assert jacobi_defect(const3d) == {}

    def test_cyclic_shifted_linear_fails(self):
        # eps^{ijk} v_k with v = (x3, x1, x2) is not Poisson
        w = PoissonBivector(3, {
            (0, 1): parse_polynomial("x2", 3),
            (1, 2): parse_polynomial("x3", 3),
            (2, 0): parse_polynomial("x1", 3),
        })
        assert jacobi_defect(w) == {(0, 1, 2): parse_polynomial("-(x1+x2+x3)", 3)}


class TestBivectorType:
    def test_antisymmetry_enforced(self):
        w = PoissonBivector(2, {(1, 0): parse_polynomial("x1", 2)})
        assert w.entry(0, 1) == parse_polynomial("-x1", 2)
        assert w.entry(1, 0) == parse_polynomial("x1", 2)
        assert w.entry(0, 0).is_zero

    def test_diagonal_rejected(self):
        with pytest.raises(UsageError):
            PoissonBivector(2, {(0, 0): parse_polynomial("x1", 2)})

    def test_graded_entry_rejected(self):
        with pytest.raises(UsageError):
            PoissonBivector(2, {(0, 1): ThetaPoly.theta(2)})

    def test_zero_entries_carry_the_truncation(self):
        # the zeros, the diagonal included, are built at the entries' truncation
        w = constant_bivector([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]).with_trunc(5)
        assert [w.entry(i, j).trunc for i in range(3) for j in range(3)] == [5] * 9
        assert PoissonBivector(2, {}).entry(0, 1).trunc == DEFAULT_TRUNC


class TestCanonicalBracket:
    def test_canonical_pairs(self):
        n = 2
        y1 = ThetaPoly.coordinate(n, 0)
        pi1 = ThetaPoly.momentum(n, 0)
        assert canonical_bracket(y1, pi1) == ThetaPoly.one(n)

    def test_spec_example(self):
        n = 2
        y1 = ThetaPoly.coordinate(n, 0)
        y2 = ThetaPoly.coordinate(n, 1)
        pi2 = ThetaPoly.momentum(n, 1)
        assert canonical_bracket(y1 * pi2, y2) == -y1

    def test_requires_momentum_block(self):
        # coordinate-only polynomials Poisson-commute
        f = parse_polynomial("x1", 2)
        assert canonical_bracket(f, f) == ThetaPoly.zero(2)
        assert canonical_bracket(f, parse_polynomial("x2", 2)) == ThetaPoly.zero(2)

    @given(poly_strategy(2, momenta=True), poly_strategy(2, momenta=True))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry(self, f, g):
        assert canonical_bracket(f, g) == -canonical_bracket(g, f)


class TestGammaTower:
    def test_order_one_is_half_bivector(self, fuzzy):
        tower = build_gamma(fuzzy, 1)
        for i in range(3):
            for j in range(3):
                assert tower.component(1, i, (j,)) == \
                    fuzzy.entry(i, j).scale(Fraction(-1, 2))

    @pytest.mark.parametrize("which", ["fuzzy", "quad2d", "const3d"])
    def test_order_two_closed_form(self, which, request):
        w = request.getfixturevalue(which)
        tower = build_gamma(w, 2)
        for i in range(w.n):
            for j in range(w.n):
                for k in range(w.n):
                    assert tower.component(2, i, (j, k)) == \
                        closed_form_order2(w, i, j, k)

    def test_constant_bivector_truncates(self, const3d):
        tower = build_gamma(const3d, 3)
        for i in range(3):
            assert tower.momenta[2][i].is_zero
            assert tower.momenta[3][i].is_zero

    def test_trailing_symmetry_is_structural(self, quad2d):
        tower = build_gamma(quad2d, 3)
        assert tower.component(3, 0, (0, 1, 1)) == tower.component(3, 0, (1, 0, 1))

    def test_antisymmetrized_equation(self, fuzzy):
        # 2 (T^{i,(k,j)} - T^{j,(k,i)}) = (1/4) w^{ck} d_c w^{ij} at order 2:
        # the antisymmetrized linear equation the symmetrization inverts
        tower = build_gamma(fuzzy, 2)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lhs = (tower.component(2, i, (k, j))
                           - tower.component(2, j, (k, i))).scale(2)
                    ghat = ThetaPoly.zero(3, 3)
                    for c in range(3):
                        ghat = ghat + fuzzy.entry(c, k) * fuzzy.entry(i, j).diff_x(c)
                    assert lhs == ghat.scale(Fraction(1, 4))

    def test_rejects_non_poisson(self):
        w = PoissonBivector(3, {
            (0, 1): parse_polynomial("x2", 3),
            (1, 2): parse_polynomial("x3", 3),
            (2, 0): parse_polynomial("x1", 3),
        })
        with pytest.raises(NotPoissonError) as err:
            build_gamma(w, 2)
        assert err.value.defect


class TestDarboux:
    def test_first_order_map(self, fuzzy):
        xs = assemble_darboux(build_gamma(fuzzy, 1))
        th = ThetaPoly.theta(3, 1, 3)
        for i in range(3):
            expect = ThetaPoly.coordinate(3, i, 3)
            for j in range(3):
                expect = expect - th * fuzzy.entry(i, j) \
                    * ThetaPoly.momentum(3, j).scale(Fraction(1, 2))
            assert xs[i] == expect

    def test_grade_zero_is_identity(self, fuzzy):
        xs = assemble_darboux(build_gamma(fuzzy, 2))
        for i in range(3):
            assert xs[i].theta_coefficient(0) == ThetaPoly.coordinate(3, i, 3)

    def test_constant_bivector_exact_at_first_order(self, const3d):
        xs = assemble_darboux(build_gamma(const3d, 3))
        th = ThetaPoly.theta(3, 1, 3)
        for i in range(3):
            expect = ThetaPoly.coordinate(3, i, 3)
            for j in range(3):
                expect = expect - th * const3d.entry(i, j) \
                    * ThetaPoly.momentum(3, j).scale(Fraction(1, 2))
            assert xs[i] == expect

    @pytest.mark.parametrize("which,order", [
        ("fuzzy", 2), ("fuzzy", 3), ("quad2d", 3), ("const3d", 3),
        ("fuzzy", 5), ("quad2d", 5),
    ])
    def test_defining_property(self, which, order, request):
        w = request.getfixturevalue(which)
        report = verify_darboux(build_gamma(w, order), w)
        assert report.xx_zero
        assert report.pp_zero
        assert report.delta_matches_reference

    def test_mixed_bracket_reference(self, fuzzy):
        report = verify_darboux(build_gamma(fuzzy, 3), fuzzy)
        assert report.delta_matches_reference
        # first grade of the (1,2) component is +th p3 / 2
        got = report.delta[(0, 1)].theta_coefficient(1)
        assert got == ThetaPoly.momentum(3, 2, 3).scale(Fraction(1, 2))

    def test_order_zero_is_canonical(self, fuzzy):
        tower = build_gamma(fuzzy, 0)
        for i, x in enumerate(assemble_darboux(tower)):
            assert x == ThetaPoly.coordinate(3, i, 3)
        report = verify_darboux(tower, fuzzy)
        assert report.xx_zero and report.pp_zero

    def test_grade_one_coefficient_under_map(self, fuzzy):
        """Substituting the bivector entry through the expansion and
        reading the first-grade coefficient recovers the contracted
        first-order tensor."""
        xs = assemble_darboux(build_gamma(fuzzy, 3))
        images = {("x", i): x for i, x in enumerate(xs)}
        got = substitute_all([fuzzy.entry(0, 1).with_trunc(3)], images)[0].theta_coefficient(1)
        expect = ThetaPoly.zero(3, 3)
        for j in range(3):
            expect = expect - fuzzy.entry(2, j) \
                * ThetaPoly.momentum(3, j).scale(Fraction(1, 2))
        assert got == expect

    def test_inversion_roundtrip(self, fuzzy):
        """Both halves of the map come back to the canonical variables, with
        canonical momenta and with momenta p = pi - th j(y, pi) shifted by a
        momentum-dependent j."""
        for order in range(1, 5):
            xs = assemble_darboux(build_gamma(fuzzy, order))
            th = ThetaPoly.theta(3, 1, order)
            canonical = [ThetaPoly.momentum(3, i, order) for i in range(3)]
            p1, p2, p3 = canonical
            j = [p1 * parse_polynomial("x2", 3, order) + parse_polynomial("x3^2", 3, order),
                 ThetaPoly.zero(3, order),
                 p2 * p3 - parse_polynomial("x1", 3, order) * p1 ** 2]
            shifted = [p - th * ji for p, ji in zip(canonical, j)]
            for ps in (canonical, shifted):
                back = invert_phase_map(xs, ps, order)
                got = substitute_all([x.with_trunc(order) for x in xs] + ps, back)
                assert got == [ThetaPoly.coordinate(3, i, order) for i in range(3)] + canonical


def _mutated(tower: GammaTower, order: int, lead: int, change) -> GammaTower:
    """The tower with P^lead_order replaced by change(P^lead_order)."""
    momenta = [list(level) for level in tower.momenta]
    momenta[order][lead] = change(momenta[order][lead])
    return GammaTower(tower.n, momenta, tower.trunc)


class TestDarbouxMutations:
    """verify_darboux must fail a tower that is not the Darboux map."""

    @pytest.mark.parametrize("which", ["fuzzy", "quad2d"])
    @pytest.mark.parametrize("order,grade", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_doubled_low_grade(self, which, order, grade, request):
        w = request.getfixturevalue(which)
        tower = build_gamma(w, order)
        for lead in range(w.n):
            tower = _mutated(tower, grade, lead, lambda p: p.scale(2))
        report = verify_darboux(tower, w)
        assert not report.xx_zero
        assert not report.delta_matches_reference

    def test_doubled_top_grade(self, quad2d):
        tower = build_gamma(quad2d, 3)
        for lead in range(2):
            tower = _mutated(tower, 3, lead, lambda p: p.scale(2))
        assert not verify_darboux(tower, quad2d).xx_zero

    def test_added_momentum_cube(self, fuzzy):
        tower = build_gamma(fuzzy, 3)
        p2 = ThetaPoly.momentum(3, 1, tower.trunc)
        assert not verify_darboux(
            _mutated(tower, 3, 0, lambda p: p + p2 * p2 * p2), fuzzy).xx_zero


class TestGeneralBrackets:
    def test_zero_gauge_matches_reference(self, fuzzy):
        zero_j = [ThetaPoly.zero(3, 2)] * 3
        got = general_brackets(fuzzy, zero_j, order=2)
        assert all(p.is_zero for p in got.varpi.values())
        ref = reference_delta(fuzzy, 2)
        assert sorted(ref) == sorted(got.delta)
        for key, val in got.delta.items():
            assert val == ref[key].truncated(2)

    def test_zero_gauge_agrees_with_darboux_report(self, fuzzy):
        zero_j = [ThetaPoly.zero(3, 2)] * 3
        got = general_brackets(fuzzy, zero_j, order=2)
        report = verify_darboux(build_gamma(fuzzy, 2), fuzzy)
        for key, val in got.delta.items():
            assert val == report.delta[key]

    def test_gradient_gauge_kills_first_grade_varpi(self, fuzzy):
        f = parse_polynomial("x1^2*x2 + x3^2 - x1", 3)
        grad_j = [f.diff_x(i) for i in range(3)]
        got = general_brackets(fuzzy, grad_j, order=2)
        for p in got.varpi.values():
            assert p.theta_coefficient(1).is_zero

    def test_nongradient_gauge_shows_in_varpi(self, fuzzy):
        j = [ThetaPoly.momentum(3, 0, 2) * ThetaPoly.coordinate(3, 1, 2),
             ThetaPoly.zero(3, 2), ThetaPoly.zero(3, 2)]
        got = general_brackets(fuzzy, j, order=2)
        assert any(not p.theta_coefficient(1).is_zero for p in got.varpi.values())

    def test_full_structure_jacobi_first_grade(self, fuzzy):
        j = [ThetaPoly.momentum(3, 0, 2) * ThetaPoly.coordinate(3, 1, 2),
             ThetaPoly.zero(3, 2), ThetaPoly.zero(3, 2)]
        got = general_brackets(fuzzy, j, order=2)
        th = ThetaPoly.theta(3, 1, 2)

        def omega_fn(mu, nu):
            if mu < 3 and nu < 3:
                return th * fuzzy.entry(mu, nu).with_trunc(2)
            if mu < 3 <= nu:
                return got.delta[(mu, nu - 3)]
            if nu < 3 <= mu:
                return -got.delta[(nu, mu - 3)]
            i, j_ = mu - 3, nu - 3
            if i == j_:
                return ThetaPoly.zero(3, 2)
            return got.varpi[(i, j_)] if i < j_ else -got.varpi[(j_, i)]

        assert not phase_space_jacobi_defect(3, omega_fn, 1)
