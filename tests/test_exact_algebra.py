"""Foundation tests: scalars, graded polynomials, rational functions,
Gaussian-class integrands."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianRational,
    MAX_NESTING,
    RationalFunction,
    ThetaPoly,
    DimensionError,
    divide_exact,
    gaussian_integrate,
    parse_polynomial,
)
from ncqm.exact_algebra import _moment_product

from conftest import poly_strategy, scalars


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        b = GaussianRational(Fraction(-2, 3), Fraction(1, 5))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (GaussianRational(1) / a) == GaussianRational(1)

    def test_conjugate(self):
        a = GaussianRational(0, 1)
        assert a.conjugate() == GaussianRational(0, -1)
        assert (a * a.conjugate()) == GaussianRational(1)

    @given(scalars, scalars)
    @settings(max_examples=40)
    def test_conjugate_is_homomorphism(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_canonical_text_roundtrip(self):
        for s in ("1/2", "-3/4+1/2*i", "0/1", "5/1-7/3*i"):
            assert str(GaussianRational.parse(s)) == s

    def test_text_forms(self):
        assert str(GaussianRational(Fraction(1, 2))) == "1/2"
        assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


# The kernel stores (a + b*i)/d as an int triple; the reference below is the
# two-Fraction arithmetic it replaced, written out independently.

parts = st.one_of(st.integers(min_value=-60, max_value=60),
                  st.fractions(min_value=-60, max_value=60, max_denominator=90))
kernel_scalars = st.builds(GaussianRational, parts, parts)
operands = st.one_of(kernel_scalars, st.integers(min_value=-9, max_value=9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=12))


def reduced(z):
    """z, after checking that its triple is canonical."""
    assert type(z) is GaussianRational
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    return z


def pair(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_mul(x, y):
    (p, q), (r, s) = x, y
    return p * r - q * s, p * s + q * r


def ref_div(x, y):
    (p, q), (r, s) = x, y
    norm = r * r + s * s
    return (p * r + q * s) / norm, (q * r - p * s) / norm


def ref_text(x):
    re, im = x
    out = f"{re.numerator}/{re.denominator}"
    if im:
        sign = "+" if im > 0 else "-"
        out += f"{sign}{abs(im).numerator}/{abs(im).denominator}*i"
    return out


def agrees(z, want):
    assert pair(reduced(z)) == want
    # equal values have equal triples
    canon = GaussianRational(*want)
    assert (z.a, z.b, z.d) == (canon.a, canon.b, canon.d)


class TestScalarKernel:
    @given(kernel_scalars, operands)
    @settings(max_examples=300)
    def test_ring_ops_match_fraction_pairs(self, z, w):
        x, y = pair(z), pair(w)
        agrees(z + w, (x[0] + y[0], x[1] + y[1]))
        agrees(w + z, (x[0] + y[0], x[1] + y[1]))
        agrees(z - w, (x[0] - y[0], x[1] - y[1]))
        agrees(w - z, (y[0] - x[0], y[1] - x[1]))
        agrees(z * w, ref_mul(x, y))
        agrees(w * z, ref_mul(x, y))
        agrees(-z, (-x[0], -x[1]))
        agrees(z.conjugate(), (x[0], -x[1]))

    @given(kernel_scalars, operands)
    @settings(max_examples=300)
    def test_division_matches_fraction_pairs(self, z, w):
        x, y = pair(z), pair(w)
        if y != (0, 0):
            agrees(z / w, ref_div(x, y))
        else:
            with pytest.raises(ZeroDivisionError):
                z / w
        if x != (0, 0):
            agrees(w / z, ref_div(y, x))
        else:
            with pytest.raises(ZeroDivisionError):
                w / z

    @given(kernel_scalars, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=150)
    def test_powers_match_fraction_pairs(self, z, k):
        x = pair(z)
        want = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            want = ref_mul(want, x)
        if k >= 0:
            agrees(z ** k, want)
        elif x == (0, 0):
            with pytest.raises(ZeroDivisionError):
                z ** k
        else:
            agrees(z ** k, ref_div((Fraction(1), Fraction(0)), want))

    @given(kernel_scalars, st.one_of(st.integers(min_value=-60, max_value=60), parts))
    @settings(max_examples=200)
    def test_equality_with_ints_and_fractions(self, z, q):
        x = pair(z)
        assert (z == q) == (x[1] == 0 and x[0] == q)
        assert (z != q) == (not (x[1] == 0 and x[0] == q))
        assert GaussianRational(q) == q
        assert z == GaussianRational(*x)

    @given(kernel_scalars)
    @settings(max_examples=200)
    def test_text_and_parse_roundtrip(self, z):
        text = str(z)
        assert text == ref_text(pair(z))
        back = GaussianRational.parse(text)
        agrees(back, pair(z))
        assert hash(back) == hash(z)

    def test_zero_is_one_triple(self):
        for z in (GaussianRational(0), GaussianRational(Fraction(0, 7), 0),
                  GaussianRational(Fraction(3, 4)) - Fraction(3, 4),
                  GaussianRational(0, Fraction(2, 9)) * 0):
            assert (reduced(z).a, z.b, z.d) == (0, 0, 1)
            assert z.is_zero and z == 0 and str(z) == "0/1"

    def test_division_by_zero_raises(self):
        one = GaussianRational(1)
        for zero in (GaussianRational(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                one / zero
        with pytest.raises(ZeroDivisionError):
            1 / GaussianRational(0)
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0) ** -2


class TestThetaPoly:
    def test_difference_of_squares(self):
        x1 = ThetaPoly.coordinate(2, 0)
        th = ThetaPoly.theta(2)
        got = (x1 + th) * (x1 - th)
        assert got == x1 * x1 - th * th

    def test_zero_annihilates(self):
        f = parse_polynomial("x1^2 - 3*x2 + i", 2)
        assert (f * ThetaPoly.zero(2)).is_zero

    def test_truncation_drops_high_grades(self):
        th2x1 = ThetaPoly.theta(2, 2) * ThetaPoly.coordinate(2, 0)
        th2x2 = ThetaPoly.theta(2, 2) * ThetaPoly.coordinate(2, 1)
        assert (th2x1 * th2x2).is_zero  # grade 4 > default truncation 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ThetaPoly.coordinate(2, 0) + ThetaPoly.coordinate(3, 0)

    def test_partial_derivative(self):
        f = parse_polynomial("x1^2*x2", 2)
        assert f.diff_x(0) == parse_polynomial("2*x1*x2", 2)
        with pytest.raises(IndexError):
            f.diff_x(5)

    @given(poly_strategy(2, momenta=True), poly_strategy(2, momenta=True))
    @settings(max_examples=30)
    def test_leibniz(self, f, g):
        # truncation commutes with the derivative, so these agree exactly
        for d in (lambda h: h.diff_x(0), lambda h: h.diff_p(1)):
            assert d(f * g) == d(f) * g + f * d(g)

    @given(poly_strategy(2, momenta=True))
    @settings(max_examples=30)
    def test_derivatives_commute(self, f):
        assert f.diff_x(0).diff_x(1) == f.diff_x(1).diff_x(0)
        assert f.diff_p(0).diff_p(1) == f.diff_p(1).diff_p(0)
        assert f.diff_x(0).diff_p(1) == f.diff_p(1).diff_x(0)
        assert f.diff_x(1).diff_p(1) == f.diff_p(1).diff_x(1)

    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    @settings(max_examples=25)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        # associativity of the product holds despite truncation because
        # dropped grades can never re-enter
        assert (a * b) * c == a * (b * c)

    def test_substitute_identity_and_constant(self):
        n = 3
        f = parse_polynomial("x1^2*x3 - 2*x2", n)
        assert f.substitute({}) == f
        const = ThetaPoly.constant(n, GaussianRational(Fraction(5, 7)))
        assert const.substitute(
            {("x", 0): parse_polynomial("x2+x3", n)}) == const

    @given(poly_strategy(2, max_degree=2, max_terms=3),
           poly_strategy(2, max_degree=2, max_terms=3),
           poly_strategy(2, max_degree=1, max_terms=2))
    @settings(max_examples=20, deadline=None)
    def test_substitute_ring_homomorphism(self, f, g, image):
        images = {("x", 0): image}
        lhs = (f * g).substitute(images)
        rhs = f.substitute(images) * g.substitute(images)
        assert lhs == rhs

    @given(poly_strategy(2), poly_strategy(2))
    @settings(max_examples=30)
    def test_conjugate_multiplicative(self, f, g):
        assert (f * g).conjugate() == f.conjugate() * g.conjugate()

    def test_conjugate_examples(self):
        f = parse_polynomial("i*x1", 2)
        assert f.conjugate() == parse_polynomial("-i*x1", 2)
        th = ThetaPoly.theta(2)
        g = parse_polynomial("x1 + 2*i", 2)
        assert (th * g).conjugate() == th * g.conjugate()

    def test_momentum_block_guard(self):
        # a coordinate-only polynomial has no momentum dependence
        f = parse_polynomial("x1", 2)
        assert f.diff_p(0) == ThetaPoly.zero(2)

    def test_text_and_json_deterministic(self):
        f = parse_polynomial("x2 + x1 + x1*x2 + 3/2 + 2*p1*x2", 2, allow_momenta=True)
        assert f.text() == "3/2 + 1/1*x2 + 1/1*x1 + 2/1*x2*p1 + 1/1*x1*x2"
        assert f.to_json() == [
            [0, [0, 0], [0, 0], "3/2"],
            [0, [0, 1], [0, 0], "1/1"],
            [0, [1, 0], [0, 0], "1/1"],
            [0, [0, 1], [1, 0], "2/1"],
            [0, [1, 1], [0, 0], "1/1"],
        ]

    def test_monomial_and_momentum_blocks(self):
        n = 2
        th = ThetaPoly.theta(n)
        f = parse_polynomial("3*x1^2*p2 - x2*p2 + th*x1*p1^2 + 5", n,
                             allow_momenta=True, allow_theta=True)
        assert ThetaPoly.monomial(n, 3, x=(2, 0), p=(0, 1)) == \
            parse_polynomial("3*x1^2*p2", n, allow_momenta=True)
        assert ThetaPoly.monomial(n, -1, x=(0, 1), grade=2) == \
            -(th * th * ThetaPoly.coordinate(n, 1))
        assert ThetaPoly.monomial(n, p=(1, 0)) == ThetaPoly.momentum(n, 0)
        blocks = f.momentum_blocks()
        assert blocks == {
            (0, 1): parse_polynomial("3*x1^2 - x2", n),
            (2, 0): th * ThetaPoly.coordinate(n, 0),
            (0, 0): ThetaPoly.constant(n, 5),
        }
        assert all(b.is_coordinate_only for b in blocks.values())
        rebuilt = ThetaPoly.zero(n)
        for me, coeff in blocks.items():
            rebuilt = rebuilt + coeff * ThetaPoly.monomial(n, p=me)
        assert rebuilt == f


class TestParser:
    def test_rationals_and_i(self):
        f = parse_polynomial("3/4*x1^2 - i*x2 + (1+x1)^2", 2)
        expect = (parse_polynomial("3/4*x1^2", 2)
                  - parse_polynomial("i*x2", 2)
                  + parse_polynomial("1 + 2*x1 + x1^2", 2))
        assert f == expect

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_polynomial("x5", 2)
        with pytest.raises(ValueError):
            parse_polynomial("x1 +", 2)
        with pytest.raises(ValueError):
            parse_polynomial("(x1", 2)
        with pytest.raises(ValueError):
            parse_polynomial("p1", 2)  # momenta disallowed by default

    def test_caps_checked_before_computing(self):
        assert parse_polynomial("(1+x1+x2)^8", 2) == parse_polynomial("(1+x1+x2)^4", 2) ** 2
        for text in ("x1^9", "(1+x1)^4*(1+x2)^5", "x1^4*x2^4*x1",
                     "2^257", "3^1000000000000", f"{2**256}", f"x1/{2**256}"):
            with pytest.raises(ValueError, match="exceeds the cap"):
                parse_polynomial(text, 2)

    def test_deep_input_has_no_recursion_error(self):
        # a run of signs is one loop, however long
        assert parse_polynomial("-" * 983 + "x1", 2) == -parse_polynomial("x1", 2)
        assert parse_polynomial("-+-" * 400 + "x1^2", 2) == parse_polynomial("x1^2", 2)
        nested = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert parse_polynomial(nested, 2) == parse_polynomial("x1", 2)
        with pytest.raises(ValueError, match="nested deeper than"):
            parse_polynomial("(" + nested + ")", 2)


class TestDivision:
    def test_exact(self):
        num = parse_polynomial("x1^3*x2 + x1^2*x2^2", 2)
        den = parse_polynomial("x1 + x2", 2)
        assert divide_exact(num, den) == parse_polynomial("x1^2*x2", 2)

    def test_inexact_returns_none(self):
        num = parse_polynomial("x1^2 + 1", 2)
        den = parse_polynomial("x1 + x2", 2)
        assert divide_exact(num, den) is None

    @given(poly_strategy(2, momenta=True, max_terms=3, max_degree=2))
    @settings(max_examples=25)
    def test_product_always_divides(self, f):
        den = parse_polynomial("1 + x1*x2", 2)
        assert divide_exact(f * den, den) == f


class TestRationalFunction:
    def test_cross_multiplication_equality(self):
        x1 = parse_polynomial("x1", 2)
        one_plus = parse_polynomial("1 + x1", 2)
        a = RationalFunction(x1 * one_plus, one_plus)
        assert a == RationalFunction(x1)

    def test_quotient_rule(self):
        mu = parse_polynomial("1 + x1^2", 1)
        rf = RationalFunction(parse_polynomial("x1", 1), mu)
        d = rf.diff_x(0)
        expect = RationalFunction(parse_polynomial("1 - x1^2", 1), mu * mu)
        assert d == expect

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(parse_polynomial("x1", 1), ThetaPoly.zero(1))


class TestGaussianClass:
    def test_weight_one_moments(self):
        one = GaussianFunction(ThetaPoly.one(1))
        assert gaussian_integrate(one).coefficient(0, 1) == GaussianRational(1)
        x2 = GaussianFunction(ThetaPoly.coordinate(1, 0) ** 2)
        assert gaussian_integrate(x2).coefficient(0, 1) == \
            GaussianRational(Fraction(1, 2))

    def test_odd_moments_vanish(self):
        f = GaussianFunction(parse_polynomial("x1^3*x2", 2))
        assert gaussian_integrate(f).is_zero

    def test_chain_rule(self):
        g = GaussianFunction(ThetaPoly.one(1))
        d = g.diff_x(0)
        assert d.prefactor == parse_polynomial("-2*x1", 1)

    def test_products_track_weight(self):
        f = GaussianFunction(ThetaPoly.coordinate(3, 0))
        g = GaussianFunction(ThetaPoly.coordinate(3, 0))
        fg = f * g
        assert fg.weight == 2
        got = gaussian_integrate(fg)
        # integral of x^2 exp(-2x^2) over the line is (1/4) sqrt(pi/2)
        assert got.coefficient(0, 2) == GaussianRational(Fraction(1, 4))

    @given(poly_strategy(2, max_terms=3, max_degree=3))
    @settings(max_examples=25)
    def test_total_derivative_integrates_to_zero(self, pre):
        # the integration-by-parts license: boundary terms never contribute
        f = GaussianFunction(pre.truncated(0))
        assert gaussian_integrate(f.diff_x(0)).is_zero
        assert gaussian_integrate(f.diff_x(1)).is_zero

    def test_three_dim_second_moment(self):
        f = GaussianFunction(ThetaPoly.coordinate(3, 0) ** 2)
        assert gaussian_integrate(f).coefficient(0, 1) == \
            GaussianRational(Fraction(1, 2))

    def test_moment_table_entries(self):
        # (3!! / 6^2) * (1 / 6) for x1^4 x2^2 under exp(-3|x|^2)
        assert _moment_product((4, 2, 0, 0), 3) == GaussianRational(Fraction(1, 72))
        assert _moment_product((0, 0), 5) == GaussianRational(1)
        assert _moment_product((2, 1), 1) is None
        assert _moment_product((4, 2, 0, 0), 3) is _moment_product((4, 2, 0, 0), 3)

    def test_integral_arithmetic(self):
        a = gaussian_integrate(GaussianFunction(ThetaPoly.one(2)))
        assert (a - a).is_zero
        assert a.theta_slice(1).is_zero
