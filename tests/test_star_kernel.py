"""``StarProduct.star`` against the bidifferential sum it evaluates, written
out with ``ThetaPoly`` arithmetic, together with the field cap inside the
product and the rule table it reads.

The reference forms every piece th^k c d^a f d^b g as ``(c * d^a f) * d^b g``
and adds the pieces; the product has the lowest truncation among the
pieces, and is the zero of ``_zero_like`` when no rule has both
derivatives nonzero."""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqm.exact_algebra import (
    MAX_EXPONENT,
    GaussianFunction,
    GaussianRational,
    ThetaPoly,
    gaussian_integrate,
    multi_index,
    parse_polynomial,
)
from ncqm.poisson import PoissonBivector, constant_bivector, fuzzy_sphere_bivector
from ncqm.star import StarProduct, gauge_b

from conftest import poly_strategy
from oracles import integral_of_product


def _prefactor(f, midx):
    """d^midx f, or for a Gaussian-class f the prefactor of d^midx f, one
    step d_i P - 2w x_i P at a time in polynomial arithmetic."""
    if not isinstance(f, GaussianFunction):
        return f.diff_multi(midx)
    p = f.prefactor
    for i, k in enumerate(midx):
        x_i = ThetaPoly.coordinate(p.n, i, p.trunc)
        for _ in range(k):
            p = p.diff_x(i) - p * x_i * (2 * f.weight)
    return p


def reference_star(product, f, g):
    total = None
    for k in range(product.order + 1):
        for (a, b), c in product.slices[k].items():
            df = _prefactor(f, a)
            if df.is_zero:
                continue
            dg = _prefactor(g, b)
            if dg.is_zero:
                continue
            piece = (c * df * dg).theta_shift(k)
            total = piece if total is None else total + piece
    weights = sum(h.weight for h in (f, g) if isinstance(h, GaussianFunction))
    if total is None:
        total = ThetaPoly.zero(product.n, product.trunc)
        weights = max(weights, 1)
    if isinstance(f, GaussianFunction) or isinstance(g, GaussianFunction):
        return GaussianFunction(total, weights)
    return total


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, GaussianFunction):
        assert got.weight == want.weight
        got, want = got.prefactor, want.prefactor
    assert got.trunc == want.trunc
    assert got.terms == want.terms


def _biv(n, rows, trunc=3):
    return PoissonBivector(n, {k: parse_polynomial(v, n, trunc) for k, v in rows.items()})


# (bivector rows, dimension, density), all valid densities
FAMILIES = {
    "fuzzy": ({(0, 1): "x3", (1, 2): "x1", (2, 0): "x2"}, 3, "1"),
    "nambu-cubic": ({(0, 1): "x3^2", (1, 2): "2*x1*x2", (2, 0): "x1^2+2*x2"}, 3, "1"),
    "planar-quadratic": ({(0, 1): "1+x2^2"}, 2, None),
    "kappa-4": ({(0, 1): "x2", (0, 2): "x3", (0, 3): "x4"}, 4, None),
    "constant-4": ({(0, 1): "1", (0, 2): "2"}, 4, "2+(x3-2*x2)^2+x4^2"),
}


@pytest.fixture(scope="module")
def products():
    """Every family at order 3, and at order 2 with its gauge correction
    where it has a density."""
    out = []
    for rows, n, mu in FAMILIES.values():
        w = _biv(n, rows)
        out.append(StarProduct(w, 3))
        if mu is not None:
            sp = StarProduct(w, 2)
            out += [sp, sp.with_gauge(gauge_b(parse_polynomial(mu, n), sp))]
    return out


@st.composite
def operand(draw, n):
    """A polynomial with theta grades and rational coefficients at its own
    truncation, or a Gaussian-class function of weight 1-3 with such a
    prefactor; sometimes zero."""
    trunc = draw(st.integers(0, 3))
    p = draw(poly_strategy(n, max_terms=3, max_degree=3, trunc=trunc))
    if draw(st.booleans()):
        return GaussianFunction(p, draw(st.integers(1, 3)))
    return p


class TestAgainstTheSum:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_operands(self, products, data):
        sp = data.draw(st.sampled_from(products))
        f, g = data.draw(operand(sp.n)), data.draw(operand(sp.n))
        assert_same(sp.star(f, g), reference_star(sp, f, g))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_operands_with_grades_from_a_product(self, products, data):
        sp = data.draw(st.sampled_from(products))
        f, g, h = (data.draw(poly_strategy(sp.n, max_terms=3)) for _ in range(3))
        fg = sp.star(f, g)
        assert_same(sp.star(fg, h), reference_star(sp, fg, h))
        assert_same(sp.star(h, fg), reference_star(sp, h, fg))

    def test_zero_operand(self, products):
        sp = products[0]
        x1 = ThetaPoly.coordinate(sp.n, 0)
        for f, g in [(ThetaPoly.zero(sp.n, 1), x1),
                     (GaussianFunction(x1, 2), GaussianFunction(ThetaPoly.zero(sp.n), 3))]:
            got = sp.star(f, g)
            assert_same(got, reference_star(sp, f, g))
            assert_same(sp.star(g, f), reference_star(sp, g, f))
            assert (got.prefactor if isinstance(got, GaussianFunction) else got).trunc == sp.trunc

    def test_pieces_cut_by_truncation_leave_zero_at_their_grade(self, products):
        # every piece exists, but every term lies above the truncation 2
        sp = products[0]
        f = ThetaPoly.monomial(sp.n, 3, x=multi_index(sp.n, 0), grade=2, trunc=2)
        g = ThetaPoly.monomial(sp.n, 5, x=multi_index(sp.n, 1), grade=1)
        got = sp.star(f, g)
        assert got.is_zero and got.trunc == 2
        assert_same(got, reference_star(sp, f, g))

    def test_sum_that_cancels(self, products):
        """Rules (a, b) -> c and (b, a) -> -c cancel term by term on f = g,
        for polynomials and Gaussian-class functions."""
        sp = copy.copy(products[0])
        n = sp.n
        e1, e2, zero = multi_index(n, 0), multi_index(n, 1), (0,) * n
        c = parse_polynomial("x1 + 2*x3/3", n) * GaussianRational(1, 2)
        sp.order = 1
        sp.slices = [{(zero, zero): ThetaPoly.one(n)}, {(e1, e2): c, (e2, e1): -c}]
        for f in (parse_polynomial("x1^2*x2 + x2/5", n), GaussianFunction(
                parse_polynomial("x1*x2 - 1/3", n), 2)):
            got = sp.star(f, f)
            assert_same(got, reference_star(sp, f, f))
            pre = got.prefactor if isinstance(got, GaussianFunction) else got
            assert pre.theta_coefficient(1).is_zero and not pre.is_zero

    def test_gaussian_weights_add(self, products):
        sp = products[0]
        f = GaussianFunction(parse_polynomial("x1 - x2/2", sp.n), 1)
        g = GaussianFunction(parse_polynomial("x3^2", sp.n), 3)
        x = parse_polynomial("x1*x2", sp.n)
        assert sp.star(f, g).weight == 4 and sp.star(f, x).weight == 1
        assert_same(sp.star(f, g), reference_star(sp, f, g))
        assert_same(sp.star(x, g), reference_star(sp, x, g))


def _single_rule(n, a, b, c, trunc=3):
    """A product whose only rule is (a, b) -> c at grade 0."""
    sp = copy.copy(StarProduct(constant_bivector([[0] * n] * n).with_trunc(trunc), 0, trunc))
    sp.slices = [{(a, b): c}]
    return sp


class TestFieldCap:
    """The product raises OverflowError exactly where (c * d^a f) * d^b g
    does, and never wraps a field."""

    def test_carry_of_the_three_factor_product(self):
        zero = (0, 0)
        c, f, g = (ThetaPoly.monomial(2, x=(100, 0)) for _ in range(3))
        assert (c * f).terms  # x1^200: no pair carries
        with pytest.raises(OverflowError):
            (c * f) * g
        with pytest.raises(OverflowError):
            _single_rule(2, zero, zero, c).star(f, g)

    @pytest.mark.parametrize("c_grade", [0, 2])
    def test_carry_above_the_truncation_is_no_term(self, c_grade):
        # grade 0: c * f is x1^200 at grade 2, and times g it lies at grade 4;
        # grade 2: c * f would carry, but at grade 4
        zero = (0, 0)
        c = ThetaPoly.monomial(2, x=(100 * (1 + c_grade // 2), 0), grade=c_grade)
        f = ThetaPoly.monomial(2, x=(100, 0), grade=2)
        g = ThetaPoly.monomial(2, x=(100, 0), grade=2)
        assert ((c * f) * g).is_zero
        got = _single_rule(2, zero, zero, c).star(f, g)
        assert got.is_zero and got.trunc == 3

    def test_cancelled_term_does_not_carry(self):
        # c * f = th^2 x1^250 - th x1^150 + th x1^150 - x1^50, cut at grade 1,
        # is -x1^50: only the cancelled th x1^150 would carry times x1^110
        zero = (0, 0)
        c = ThetaPoly.monomial(2, x=(150, 0), grade=1) + ThetaPoly.monomial(2, x=(50, 0))
        f = ThetaPoly.monomial(2, x=(100, 0), grade=1, trunc=1) - ThetaPoly.one(2, 1)
        g = ThetaPoly.monomial(2, x=(110, 0))
        want = (c * f) * g
        assert want == ThetaPoly.monomial(2, -1, x=(160, 0)) and want.trunc == 1
        assert_same(_single_rule(2, zero, zero, c).star(f, g), want)

    def test_the_cap_itself(self):
        zero = (0, 0)
        c, f = ThetaPoly.monomial(2, x=(100, 0)), ThetaPoly.monomial(2, x=(100, 7))
        g = ThetaPoly.monomial(2, x=(55, 0)) + ThetaPoly.monomial(2, x=(0, 248))
        want = (c * f) * g
        assert want == ThetaPoly.monomial(2, x=(255, 7)) + ThetaPoly.monomial(2, x=(200, 255))
        assert_same(_single_rule(2, zero, zero, c).star(f, g), want)

    def test_gaussian_step_past_the_cap(self):
        one = ThetaPoly.one(2)
        f = GaussianFunction(ThetaPoly.monomial(2, x=(254, 0)))
        g = GaussianFunction(one)
        # the first step reaches x1^255, the second would pass it
        got = _single_rule(2, (1, 0), (0, 0), one).star(f, g)
        assert_same(got, reference_star(_single_rule(2, (1, 0), (0, 0), one), f, g))
        assert any(e[0] == MAX_EXPONENT for (_, e), _ in got.prefactor.sorted_terms())
        with pytest.raises(OverflowError):
            f.diff_multi((2, 0))
        with pytest.raises(OverflowError):
            _single_rule(2, (2, 0), (0, 0), one).star(f, g)
        with pytest.raises(OverflowError):
            _single_rule(2, (0, 0), (2, 0), one).star(g, f)
        # another axis never reaches the cap
        assert not _single_rule(2, (0, 2), (0, 0), one).star(f, g).is_zero

    def test_gaussian_steps_lift_a_field_before_the_product(self):
        # each factor has its fields below 64, but 130 Gaussian steps lift
        # the x1 exponent of d^a f to 193, and c * d^a f carries
        c = ThetaPoly.monomial(2, x=(63, 0))
        f = GaussianFunction(ThetaPoly.monomial(2, x=(63, 0)))
        g = GaussianFunction(ThetaPoly.one(2))
        with pytest.raises(OverflowError):
            c * f.diff_multi((130, 0)).prefactor
        with pytest.raises(OverflowError):
            _single_rule(2, (130, 0), (0, 0), c).star(f, g)
        sp = _single_rule(2, (129, 0), (0, 0), c)
        assert_same(sp.star(f, g), reference_star(sp, f, g))

    def test_derivative_of_g_is_formed_only_for_a_live_rule(self):
        # d^a f is zero, so the reference never forms d^b g, which would raise
        f = ThetaPoly.coordinate(2, 1)
        g = GaussianFunction(ThetaPoly.monomial(2, x=(255, 0)))
        sp = _single_rule(2, (2, 0), (1, 0), ThetaPoly.one(2))
        assert_same(sp.star(f, g), reference_star(sp, f, g))


class TestNoStaleRules:
    def test_replaced_slices_are_read(self):
        sp = StarProduct(fuzzy_sphere_bivector(), 3)
        f, g = parse_polynomial("x1*x2 + x3/2", 3), parse_polynomial("x2^2 - x1", 3)
        before = sp.star(f, g)
        mutated = copy.copy(sp)
        doubled = {key: c.scale(2) for key, c in sp.slices[2].items()}
        mutated.slices = sp.slices[:2] + [doubled] + sp.slices[3:]
        got = mutated.star(f, g)
        assert_same(got, reference_star(mutated, f, g))
        grade2 = before.theta_coefficient(2)
        assert not grade2.is_zero
        assert got == before + grade2.theta_shift(2)
        assert_same(sp.star(f, g), before)

    def test_gauge_on_an_evaluated_product(self):
        sp = StarProduct(fuzzy_sphere_bivector(), 2)
        mu = parse_polynomial("1", 3)
        f = GaussianFunction(parse_polynomial("x1*x3 - 2*x2", 3))
        g = GaussianFunction(parse_polynomial("x2^2 + x1/3", 3))
        plain = sp.star(f, g)
        corrected = sp.with_gauge(gauge_b(mu, sp))
        got = corrected.star(f, g)
        assert_same(got, reference_star(corrected, f, g))
        assert got.prefactor.theta_coefficient(2) != plain.prefactor.theta_coefficient(2)
        assert_same(sp.star(f, g), plain)


class TestReuse:
    """Each operand keeps its derivatives per Gaussian weight, and each
    product its compiled rule tables per tuple of slice dicts, across
    calls."""

    @pytest.mark.parametrize("weights", list(itertools.permutations((0, 1, 2))))
    def test_one_poly_as_operand_and_as_prefactor(self, products, weights):
        sp = products[0]
        p = parse_polynomial("x1^2*x2 + x2/5 - 2*x3/3", sp.n)
        q = GaussianFunction(parse_polynomial("x1*x3 - 1/2", sp.n), 1)
        for w in weights:
            f = GaussianFunction(p, w) if w else p
            for x, y in [(f, q), (q, f), (f, p)]:
                assert_same(sp.star(x, y), reference_star(sp, x, y))

    @pytest.mark.parametrize("density_first", [True, False])
    def test_one_poly_as_operand_and_as_density(self, products, density_first):
        """A value keeps its star forms and its moment tables apart, also
        at the same Gaussian weight."""
        sp = products[0]
        mu = parse_polynomial("2 + x1^2 - x2*x3/5", sp.n)
        f = GaussianFunction(mu)
        g = GaussianFunction(parse_polynomial("x1*x3 - 1/2", sp.n))
        for _ in range(2):
            if density_first:
                assert gaussian_integrate(g, mu) == integral_of_product(g, mu)
            assert_same(sp.star(f, g), reference_star(sp, f, g))
            assert gaussian_integrate(g, mu) == integral_of_product(g, mu)

    def test_pair_under_a_product_and_its_gauge(self):
        sp = StarProduct(fuzzy_sphere_bivector(), 2)
        corrected = sp.with_gauge(gauge_b(parse_polynomial("1", 3), sp))
        f = GaussianFunction(parse_polynomial("x1*x3 - 2*x2 + 1/7", 3))
        g = GaussianFunction(parse_polynomial("x2^2 + x1/3", 3), 2)
        for product in (sp, corrected, sp, corrected):
            for x, y in [(f, g), (g, f)]:
                assert_same(product.star(x, y), reference_star(product, x, y))
