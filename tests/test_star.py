"""Star product, gauge correction, trace functional."""

import copy
import hashlib
import itertools
from fractions import Fraction

import pytest

import ncqm.star
from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianRational,
    ThetaPoly,
    UsageError,
    gaussian_integrate,
    multi_index,
    parse_polynomial,
)
from ncqm.poisson import (
    NotPoissonError,
    PoissonBivector,
    build_gamma,
    constant_bivector,
)
from ncqm.operators import DiffOperator, _leibniz, build_gamma1, build_phat
from ncqm.star import (
    GaugeError,
    MeasureError,
    StarProduct,
    assoc_defect,
    cyclicity_defect,
    gauge_b,
    measure_defect,
    trace,
    trace_operator,
)

from conftest import GRADE3_FAMILIES, is_symmetric, seeded_poly
from oracles import (
    constant_term,
    hermiticity_defect,
    moyal_product,
    quantized_tower,
    tower_product,
    trace_condition_oracle,
)

I = GaussianRational(0, 1)


class TestProductBasics:
    def test_coordinate_product(self, fuzzy):
        sp = StarProduct(fuzzy, 3)
        x1 = ThetaPoly.coordinate(3, 0)
        x2 = ThetaPoly.coordinate(3, 1)
        th = ThetaPoly.theta(3)
        assert sp.star(x1, x2) == x1 * x2 + (th * fuzzy.entry(0, 1)).scale(
            I * Fraction(1, 2))

    def test_grade_zero_is_pointwise(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 3)
        f = seeded_poly(rng, 3)
        g = seeded_poly(rng, 3)
        assert sp.star(f, g).theta_coefficient(0) == (f * g).theta_coefficient(0)

    def test_commutation_relation_exact(self, fuzzy):
        sp = StarProduct(fuzzy, 3)
        th = ThetaPoly.theta(3)
        for i in range(3):
            for j in range(3):
                got = sp.commutator(ThetaPoly.coordinate(3, i),
                                    ThetaPoly.coordinate(3, j))
                assert got == (th * fuzzy.entry(i, j)).scale(I)

    def test_order_cap(self, fuzzy):
        with pytest.raises(UsageError):
            StarProduct(fuzzy, 4)

    def test_rejects_non_poisson(self):
        w = PoissonBivector(3, {
            (0, 1): parse_polynomial("x2", 3),
            (1, 2): parse_polynomial("x3", 3),
            (2, 0): parse_polynomial("x1", 3),
        })
        for order in (0, 2):
            with pytest.raises(NotPoissonError):
                StarProduct(w, order)


class TestMoyalOracle:
    def test_constant_bivector_matches_all_grades(self, const3d, rng):
        sp = StarProduct(const3d, 3)
        matrix = [[constant_term(const3d.entry(i, j)).re for j in range(3)]
                  for i in range(3)]
        for _ in range(6):
            f = seeded_poly(rng, 3)
            g = seeded_poly(rng, 3)
            got = sp.star(f, g)
            expect = moyal_product(f, g, matrix, 3)
            for k in range(4):
                assert got.theta_coefficient(k) == expect.theta_coefficient(k)

    def test_two_dim_constant(self, rng):
        w = constant_bivector([[0, 1], [-1, 0]])
        sp = StarProduct(w, 3)
        matrix = [[0, 1], [-1, 0]]
        for _ in range(4):
            f = seeded_poly(rng, 2)
            g = seeded_poly(rng, 2)
            assert sp.star(f, g) == moyal_product(f, g, matrix, 3)


    def test_truncation_above_three(self):
        """A product built with trunc 4 keeps its grade-4 terms: every rule
        carries the truncation of the entries, not that of a zero entry."""
        matrix = [[0, 2, 0, 1], [-2, 0, 0, 0], [0, 0, 0, -3], [-1, 0, 3, 0]]
        sp = StarProduct(constant_bivector(matrix).with_trunc(4), 3, trunc=4)
        f = parse_polynomial("(1+x1+x2+x3+x4)^3", 4, 4) * ThetaPoly.theta(4, 2, 4)
        g = parse_polynomial("(1+x1-x2+2*x3+x4)^3", 4, 4)
        got = sp.star(f, g)
        assert not got.theta_coefficient(4).is_zero
        assert got == moyal_product(f, g, matrix, 3)


class TestAssociativity:
    @pytest.mark.parametrize("which", ["fuzzy", "const3d", "quad2d"])
    def test_random_triples(self, which, request, rng):
        w = request.getfixturevalue(which)
        sp = StarProduct(w, 3)
        for _ in range(5):
            f, g, h = (seeded_poly(rng, w.n) for _ in range(3))
            assert assoc_defect(f, g, h, sp).is_zero

    def test_product_depends_on_gamma1(self, monkeypatch, rng):
        """The grade-3 rules come from the coordinate operators, correction
        Q^i included: doubling Q breaks associativity at grade 3 and
        nowhere else."""
        # w^{ij} = eps^{ijk} d_k C for C = x3^3/3 + x1^2*x2 + x2^2
        w = PoissonBivector(3, {(0, 1): parse_polynomial("x3^2", 3),
                                (1, 2): parse_polynomial("2*x1*x2", 3),
                                (2, 0): parse_polynomial("x1^2+2*x2", 3)})
        f, g, h = (seeded_poly(rng, 3) for _ in range(3))
        assert assoc_defect(f, g, h, StarProduct(w, 3)).is_zero

        p3 = build_gamma(w, 3).momenta[3]

        def doubled(*args):
            # X_3 = i (P_3 - Q), so doubling Q gives 2 X_3 - i P_3
            x = build_gamma1(*args)
            if args[3] < 3:
                return x
            return [xi.scale(2) - p.scale(GaussianRational(0, 1)) for xi, p in zip(x, p3)]

        monkeypatch.setattr(ncqm.star, "build_gamma1", doubled)
        defect = assoc_defect(f, g, h, StarProduct(w, 3))
        assert [defect.theta_coefficient(k).is_zero for k in range(4)] == \
            [True, True, True, False]

    def test_constant_argument_trivial_grade_zero(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 3)
        c = ThetaPoly.constant(3, GaussianRational(Fraction(3, 7)))
        f, g = seeded_poly(rng, 3), seeded_poly(rng, 3)
        assert assoc_defect(c, f, g, sp).theta_coefficient(0).is_zero

    def test_operator_identification(self, fuzzy, quad2d):
        """Left multiplication by a coordinate equals the quantized
        coordinate operator, term by term through grade 3."""
        for w in (fuzzy, quad2d):
            sp = StarProduct(w, 3)
            xhat = quantized_tower(w)
            for i in range(w.n):
                got = sp.left_multiplication_operator(
                    ThetaPoly.coordinate(w.n, i, sp.trunc))
                assert got == xhat[i]


class TestTowerOracle:
    """The operators solved grade by grade from the closure against the
    quantized Darboux tower with the closed-form correction."""

    @pytest.mark.parametrize("family", [*GRADE3_FAMILIES, "fuzzy", "const3d", "quad2d"])
    def test_xhat_and_slices_equal_the_quantized_tower(self, family, request):
        w = GRADE3_FAMILIES.get(family) or request.getfixturevalue(family)
        for order, trunc in itertools.product(range(4), range(2, 5)):
            product = StarProduct(w, order, trunc=trunc)
            oracle = tower_product(w, order, trunc)
            assert product.xhat == oracle.xhat
            assert [op.trunc for op in product.xhat] == [op.trunc for op in oracle.xhat]
            assert product.slices == oracle.slices


class TestMeasure:
    def test_fuzzy_unit_and_radial(self, fuzzy):
        assert all(d.is_zero for d in
                   measure_defect(ThetaPoly.one(3), fuzzy))
        r2 = parse_polynomial("x1^2+x2^2+x3^2", 3)
        assert all(d.is_zero for d in measure_defect(r2, fuzzy))

    def test_invalid_measure_reported(self):
        w = PoissonBivector(2, {(0, 1): parse_polynomial("x1", 2)})
        defect = measure_defect(ThetaPoly.one(2), w)
        assert defect[0].is_zero
        assert defect[1] == ThetaPoly.one(2)

    def test_measure_type(self, fuzzy):
        mu = ThetaPoly.one(3)
        assert all(d.is_zero for d in measure_defect(mu, fuzzy))
        # unit density: the momentum operators carry no multiplication term
        assert all((0, (0, 0, 0)) not in op.terms for op in build_phat(mu))
        w = PoissonBivector(2, {(0, 1): parse_polynomial("x1", 2)})
        assert not all(d.is_zero for d in measure_defect(ThetaPoly.one(2), w))

    def test_log_gradient(self, fuzzy):
        # the multiplication term of build_phat is -(i/2) d_i(log mu)
        mu = parse_polynomial("x1^2+x2^2+x3^2", 3)
        term = build_phat(mu)[0].terms[(0, (0, 0, 0))]
        assert term == DiffOperator(parse_polynomial("2*x1", 3), mu) \
            .scale(GaussianRational(0, Fraction(-1, 2)))


@pytest.fixture(scope="module")
def planar():
    """Constant bivector acting in the 1-2 plane of three dimensions;
    any density depending only on x3 satisfies the divergence condition."""
    return PoissonBivector(3, {(0, 1): parse_polynomial("1", 3)})


class TestGauge:
    def test_constant_bivector_gives_zero(self, planar):
        mu = parse_polynomial("1 + x3^2", 3)
        assert all(d.is_zero for d in measure_defect(mu, planar))
        assert gauge_b(mu, StarProduct(planar, 2)) == {}

    def test_fuzzy_unit_density(self, fuzzy):
        gauge = gauge_b(ThetaPoly.one(3), StarProduct(fuzzy, 2))
        expect = ThetaPoly.constant(3, Fraction(1, 24))
        assert gauge == {(i, i): expect for i in range(3)}

    def test_invalid_measure_rejected(self):
        w = PoissonBivector(2, {(0, 1): parse_polynomial("x1", 2)})
        with pytest.raises(MeasureError) as err:
            gauge_b(ThetaPoly.one(2), StarProduct(w, 2))
        assert any(not d.is_zero for d in err.value.defect)

    def test_radial_density_rejected_with_remainder(self, fuzzy):
        r2 = parse_polynomial("x1^2+x2^2+x3^2", 3)
        with pytest.raises(GaugeError) as err:
            gauge_b(r2, StarProduct(fuzzy, 2))
        assert not err.value.numerator.is_zero

    def test_symmetry_for_valid_measures(self, fuzzy, const3d, planar):
        for w, mu_text in ((fuzzy, "1"), (const3d, "1"), (planar, "2+x3^4")):
            mu = parse_polynomial(mu_text, 3)
            assert is_symmetric(gauge_b(mu, StarProduct(w, 2)))


def _biv(n: int, rows: dict) -> PoissonBivector:
    return PoissonBivector(n, {k: parse_polynomial(v, n) for k, v in rows.items()})


# (bivector, density) pairs that satisfy the divergence condition and give a
# polynomial gauge; the Nambu bivectors are w^{ij} = eps^{ijk} d_k C
NAMBU_CUBIC = {(0, 1): "x3^2", (1, 2): "2*x1*x2", (2, 0): "x1^2+2*x2"}
VALID_TRACE_CASES = {
    "fuzzy": ({(0, 1): "x3", (1, 2): "x1", (2, 0): "x2"}, 3, "1"),
    "planar": ({(0, 1): "1"}, 3, "1+x3^2"),
    "constant-4": ({(0, 1): "1", (0, 2): "2"}, 4, "2+(x3-2*x2)^2+x4^2"),
    "nambu-square": ({(0, 1): "3*x3"}, 3, "1"),  # C = 3 x3^2/2
    "nambu-pair": ({(1, 2): "2*x2", (2, 0): "2*x1"}, 3, "1"),  # C = 2 x1 x2
    # C = x1^2 + x1 x3 + 2 x2^2 + x2 x3
    "nambu-quadratic": ({(0, 1): "x1+x2", (1, 2): "2*x1+x3", (2, 0): "4*x2+x3"}, 3, "1"),
    "nambu-cubic": (NAMBU_CUBIC, 3, "1"),  # C = x3^3/3 + x1^2 x2 + x2^2
}


class TestTraceCertificate:
    """The trace condition as an operator identity, for every pair: the
    operator D with Tr(f * g) - Tr(fg) = int f D(g) is empty at grades 1
    and 2 for the corrected product."""

    @pytest.mark.parametrize("case", list(VALID_TRACE_CASES))
    def test_corrected_product_is_certified(self, case):
        rows, n, mu_text = VALID_TRACE_CASES[case]
        sp = StarProduct(_biv(n, rows), 2)
        mu = parse_polynomial(mu_text, n)
        uncorrected = trace_operator(sp, mu, 2)
        assert all(sum(key) == 2 for key in uncorrected)
        corrected = sp.with_gauge(gauge_b(mu, sp))
        for k in (1, 2):
            assert trace_operator(corrected, mu, k) == {}

    def test_operator_matches_the_oracle(self, fuzzy):
        """int f D_2(g) is the moment oracle's grade-2 obstruction."""
        for w in (fuzzy, _biv(3, NAMBU_CUBIC)):
            mu = ThetaPoly.one(3)
            d2 = trace_operator(StarProduct(w, 2), mu, 2)
            f = GaussianFunction(ThetaPoly.coordinate(3, 0))
            for g in (f, GaussianFunction(parse_polynomial("x1*x2^2+2*x3^2-x2", 3))):
                dg = sum((g.diff_multi(key) * c for key, c in d2.items()),
                         GaussianFunction(ThetaPoly.zero(3), 1))
                got = gaussian_integrate(f * dg.theta_shift(2))
                assert not got.is_zero
                assert got == trace_condition_oracle(f, g, w, mu)

    @pytest.mark.parametrize("case", list(VALID_TRACE_CASES))
    def test_grade3_corrected_product_is_certified(self, case, rng):
        """The gauge corrects a product built through grade 3: D_1, D_2
        and D_3 are empty, and the corrected product stays associative."""
        rows, n, mu_text = VALID_TRACE_CASES[case]
        sp = StarProduct(_biv(n, rows), 3)
        mu = parse_polynomial(mu_text, n)
        corrected = sp.with_gauge(gauge_b(mu, sp))
        for k in (1, 2, 3):
            assert trace_operator(corrected, mu, k) == {}
        for _ in range(3):
            f, g, h = (seeded_poly(rng, n) for _ in range(3))
            assert assoc_defect(f, g, h, corrected).is_zero

    @pytest.mark.parametrize("case,rules", [
        ("fuzzy", 45), ("nambu-pair", 18), ("nambu-cubic", 51)])
    def test_doubled_rule_is_caught(self, case, rules):
        """Doubling any one grade-2 rule of the corrected product, one of
        the product's ``rules`` rules or a gauge rule, leaves a nonzero
        certificate."""
        rows, n, mu_text = VALID_TRACE_CASES[case]
        sp = StarProduct(_biv(n, rows), 2)
        mu = parse_polynomial(mu_text, n)
        assert len(sp.slices[2]) == rules
        corrected = sp.with_gauge(gauge_b(mu, sp))
        assert len(corrected.slices[2]) > rules
        for key, coeff in corrected.slices[2].items():
            mutated = copy.copy(corrected)
            mutated.slices = corrected.slices[:2] + [{**corrected.slices[2],
                                                      key: coeff.scale(2)}]
            assert trace_operator(mutated, mu, 2), key

    def test_needs_the_grade2_rules(self, fuzzy):
        with pytest.raises(UsageError):
            gauge_b(ThetaPoly.one(3), StarProduct(fuzzy, 1))


# sha256 of the corrected product's grade-2 rules, one line per rule in
# sorted key order with the coefficient's text and truncation, at trunc 2
# and 3; pinned from the grade-2 rule delta the gauge was first built as
CORRECTED_SLICE2_DIGESTS = {
    "fuzzy": (
        "952a97e95e8e2317421bffe2dc586cb23a607ffd8539f7a09bd959e92b35b038",
        "cae5d6fd7898c8c4b5634c08a8bfd25b85eb5f786a901f493168f900569f56e7"),
    "planar": (
        "d5f1df729c987824b6bda7f0cfdcc945632fa869880d8073f55727d954e25e64",
        "57dba63a1af194371b3844be31f1be2603ead456915b6004fd6a153da36eb4c7"),
    "constant-4": (
        "6edf4a28f52aaaf528fb654a2ac99fd70ead329dc35b977c86daf61c57cba43a",
        "ded7368ee5f52f7e9edfa73d57cdfc5b90e7814ce51d32901602d4d9d7c8a7b1"),
    "nambu-square": (
        "ddeffff025396b533f62b0aa97514fc446cbb9f55101cae9fd63797da1ebf40d",
        "975207fcead51949e5fa096f51fea3f6d60ede241ba97f82b4c88612a208e709"),
    "nambu-pair": (
        "a0eab2c870ddae904af5691fee673c4ce976b6f550707bf205d5772b63f5f56d",
        "d1153b69ce167d9fa686f0ac882d1c5b86459ff16403971d7028874b88c8fffc"),
    "nambu-quadratic": (
        "dc8a06e83cb6f3c87e55d7fb7252559697d3fa1bcdfb01615f0e3d4455055270",
        "7bf147808150ed79529fe0a3086265cb6fb4b1773ce4ca1083cabdfbb35beac7"),
    "nambu-cubic": (
        "80d28dd09c006e44f6d4a21fd67c3419876e53c94e415e25594c2cd0f049856d",
        "52dd74ad98277a783806d98c3fd1709b4d4bd9cff41ae3e2cd2f027bb2204d55"),
}


@pytest.mark.parametrize("case", list(VALID_TRACE_CASES))
def test_corrected_grade2_rules_are_pinned(case):
    rows, n, mu_text = VALID_TRACE_CASES[case]
    mu = parse_polynomial(mu_text, n)
    got = []
    for trunc in (2, 3):
        sp = StarProduct(_biv(n, rows), 2, trunc=trunc)
        rules = sp.with_gauge(gauge_b(mu, sp)).slices[2]
        text = "\n".join(f"{a} {b} {c.text()} {c.trunc}" for (a, b), c in sorted(rules.items()))
        got.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert tuple(got) == CORRECTED_SLICE2_DIGESTS[case]


class TestPrimedProduct:
    def test_constant_bivector_unchanged(self, const3d, rng):
        mu = ThetaPoly.one(3)
        sp = StarProduct(const3d, 3)
        gauge = gauge_b(mu, sp)
        f, g = seeded_poly(rng, 3), seeded_poly(rng, 3)
        assert sp.star_prime(f, g, gauge) == sp.star(f, g)

    def test_fuzzy_correction_value(self, fuzzy):
        sp = StarProduct(fuzzy, 2)
        gauge = gauge_b(ThetaPoly.one(3), sp)
        x1 = ThetaPoly.coordinate(3, 0)
        diff = sp.star_prime(x1, x1, gauge) - sp.star(x1, x1)
        # -2 th^2 b^{11} = -th^2/12 for the derived gauge
        assert diff == ThetaPoly.theta(3, 2).scale(Fraction(-1, 12))

    def test_constant_argument_kills_correction(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 2)
        gauge = gauge_b(ThetaPoly.one(3), sp)
        c = ThetaPoly.constant(3, 5)
        g = seeded_poly(rng, 3)
        assert sp.star_prime(c, g, gauge) == sp.star(c, g)

    def test_with_gauge_is_a_grade2_rule_delta(self, fuzzy):
        sp = StarProduct(fuzzy, 2)
        before = [dict(rule) for rule in sp.slices]
        corrected = sp.with_gauge(gauge_b(ThetaPoly.one(3), sp))
        assert sp.slices == before  # the uncorrected product is untouched
        delta = {key: rule for key, rule in corrected.slices[2].items()
                 if key not in sp.slices[2]}
        units = [tuple(int(k == i) for k in range(3)) for i in range(3)]
        assert delta == {(u, u): ThetaPoly.constant(3, Fraction(-1, 12))
                         for u in units}

    @pytest.mark.parametrize("order", [2, 3])
    def test_with_gauge_shares_slices_0_and_1(self, fuzzy, order):
        """B = 1 + th^2 Delta_b has no grade-0 or grade-1 part, so the
        corrected product keeps the product's rules through grade 1."""
        sp = StarProduct(fuzzy, order)
        corrected = sp.with_gauge(gauge_b(ThetaPoly.one(3), sp))
        assert corrected.slices[0] is sp.slices[0]
        assert corrected.slices[1] is sp.slices[1]
        assert corrected.slices[2] != sp.slices[2]

    @pytest.mark.parametrize("trunc", [3, 4])
    def test_coordinate_operators_are_conjugated(self, trunc):
        """B xhat' = xhat B, composed, through the truncation.  At trunc 4
        the series for B^-1 reaches (th^2 Delta_b)^2, which a pointwise
        power gets wrong for this x-dependent gauge."""
        rows, n, mu_text = VALID_TRACE_CASES["nambu-cubic"]
        sp = StarProduct(_biv(n, rows), 2, trunc=trunc)
        gauge = gauge_b(parse_polynomial(mu_text, n, trunc), sp)
        assert any(not b.diff_x(j).is_zero for b in gauge.values() for j in range(n))
        one = ThetaPoly.one(n, trunc)
        b_op = sum((ThetaPoly.monomial(n, p=multi_index(n, i, k), grade=2, trunc=trunc) * b
                    for (i, k), b in gauge.items()), one)
        corrected = sp.with_gauge(gauge)
        for x, xc in zip(sp.xhat, corrected.xhat):
            assert xc.trunc == trunc
            assert _leibniz(b_op, xc.num, one, 0)[0] == \
                _leibniz(x.num, b_op, one, 0)[0]


class TestTrace:
    def test_plain_gaussian(self):
        assert trace(GaussianFunction(ThetaPoly.one(1)),
                     ThetaPoly.one(1)).coefficient(0, 1) == GaussianRational(1)

    def test_second_moment_three_dim(self):
        f = GaussianFunction(ThetaPoly.coordinate(3, 0) ** 2)
        assert trace(f, ThetaPoly.one(3)).coefficient(0, 1) == \
            GaussianRational(Fraction(1, 2))

    def test_total_derivative_traces_to_zero(self, rng):
        f = GaussianFunction(seeded_poly(rng, 3).truncated(0))
        mu = ThetaPoly.one(3)
        assert trace(f.diff_x(1), mu).is_zero


class TestCyclicity:
    def test_corrected_zero_through_grade2(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 2)
        mu = ThetaPoly.one(3)
        gauge = gauge_b(mu, sp)
        for _ in range(4):
            f = GaussianFunction(seeded_poly(rng, 3))
            g = GaussianFunction(seeded_poly(rng, 3))
            rep = cyclicity_defect(f, g, sp.with_gauge(gauge), mu)
            assert rep.zero_through(2)

    def test_uncorrected_obstruction_matches_oracle(self, fuzzy):
        sp = StarProduct(fuzzy, 2)
        mu = ThetaPoly.one(3)
        # an even-parity pair exhibits the obstruction (odd pairs such as
        # x1, x2 integrate to zero termwise and are checked below)
        f = GaussianFunction(ThetaPoly.coordinate(3, 0))
        rep = cyclicity_defect(f, f, sp, mu)
        grade2 = rep.trace_condition.theta_slice(2)
        assert not grade2.is_zero
        assert grade2 == trace_condition_oracle(f, f, fuzzy, mu)
        g = GaussianFunction(ThetaPoly.coordinate(3, 1))
        rep2 = cyclicity_defect(f, g, sp, mu)
        assert rep2.trace_condition.theta_slice(2) == \
            trace_condition_oracle(f, g, fuzzy, mu)

    def test_first_grade_always_zero_for_valid_measure(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 2)
        mu = ThetaPoly.one(3)
        for _ in range(3):
            f = GaussianFunction(seeded_poly(rng, 3))
            g = GaussianFunction(seeded_poly(rng, 3))
            rep = cyclicity_defect(f, g, sp, mu)
            assert rep.trace_condition.theta_slice(1).is_zero
            assert rep.antisymmetric.theta_slice(1).is_zero

    def test_constant_bivector_nontrivial_measure(self, planar, rng):
        mu = parse_polynomial("1 + x3^2", 3)
        sp = StarProduct(planar, 2)
        gauge = gauge_b(mu, sp)
        f = GaussianFunction(seeded_poly(rng, 3))
        g = GaussianFunction(seeded_poly(rng, 3))
        rep = cyclicity_defect(f, g, sp.with_gauge(gauge), mu)
        assert rep.zero_through(2)


class TestHermiticity:
    def test_real_coordinate_self_adjoint(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 2)
        mu = ThetaPoly.one(3)
        gauge = gauge_b(mu, sp)
        f = ThetaPoly.coordinate(3, 0)
        for _ in range(3):
            phi = GaussianFunction(seeded_poly(rng, 3))
            psi = GaussianFunction(seeded_poly(rng, 3))
            defect = hermiticity_defect(f, phi, psi, sp.with_gauge(gauge), mu)
            for k in range(3):
                assert defect.theta_slice(k).is_zero

    @pytest.mark.parametrize("case", ["fuzzy", "nambu-cubic"])
    def test_grade3_corrected_coordinates_self_adjoint(self, case, rng):
        rows, n, mu_text = VALID_TRACE_CASES[case]
        sp = StarProduct(_biv(n, rows), 3)
        mu = parse_polynomial(mu_text, n)
        corrected = sp.with_gauge(gauge_b(mu, sp))
        for i in range(n):
            phi = GaussianFunction(seeded_poly(rng, n))
            psi = GaussianFunction(seeded_poly(rng, n))
            defect = hermiticity_defect(ThetaPoly.coordinate(n, i), phi, psi, corrected, mu)
            for k in range(4):
                assert defect.theta_slice(k).is_zero

    def test_grade_zero_trivial(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 2)
        mu = ThetaPoly.one(3)
        gauge = gauge_b(mu, sp)
        f = seeded_poly(rng, 3).truncated(0)
        f = (f + f.conjugate()).scale(Fraction(1, 2))  # real part
        phi = GaussianFunction(seeded_poly(rng, 3))
        psi = GaussianFunction(seeded_poly(rng, 3))
        defect = hermiticity_defect(f, phi, psi, sp.with_gauge(gauge), mu)
        assert defect.theta_slice(0).is_zero

    def test_equal_real_states_purely_imaginary(self, fuzzy, rng):
        sp = StarProduct(fuzzy, 2)
        mu = ThetaPoly.one(3)
        gauge = gauge_b(mu, sp)
        f = ThetaPoly.coordinate(3, 2)
        raw = seeded_poly(rng, 3)
        real_pre = (raw + raw.conjugate()).scale(Fraction(1, 2))
        phi = GaussianFunction(real_pre)
        defect = hermiticity_defect(f, phi, phi, sp.with_gauge(gauge), mu)
        assert (defect + defect.conjugate()).is_zero


def test_star_module_is_reachable():
    """The package attribute ncqm.star is the submodule."""
    assert ncqm.star.StarProduct is StarProduct
