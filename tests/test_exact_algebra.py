"""Foundation tests: scalars, graded polynomials, exact division,
Gaussian-class integrands."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqm import exact_algebra
from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianRational,
    MAX_NESTING,
    ThetaPoly,
    DimensionError,
    divide_exact,
    gaussian_integrate,
    parse_polynomial,
    substitute_all,
)
from ncqm.exact_algebra import _moment_product, _pack

from conftest import poly_strategy, scalars
from oracles import integral_of_product


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
        assert substitute_all([f], {}) == [f]
        const = ThetaPoly.constant(n, GaussianRational(Fraction(5, 7)))
        assert substitute_all([const], {("x", 0): parse_polynomial("x2+x3", n)}) == [const]

    @given(poly_strategy(2, max_degree=2, max_terms=3),
           poly_strategy(2, max_degree=2, max_terms=3),
           poly_strategy(2, max_degree=1, max_terms=2))
    @settings(max_examples=20, deadline=None)
    def test_substitute_ring_homomorphism(self, f, g, image):
        images = {("x", 0): image}
        lhs, f_image, g_image = substitute_all([f * g, f, g], images)
        assert lhs == f_image * g_image

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
        f = parse_polynomial("x2 + x1 + x1*x2 + 3/2", 2) \
            + parse_polynomial("2*x2", 2) * ThetaPoly.momentum(2, 0)
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
        p1, p2 = ThetaPoly.momentum(n, 0), ThetaPoly.momentum(n, 1)
        f = parse_polynomial("3*x1^2 - x2", n) * p2 + th * parse_polynomial("x1", n) * p1 ** 2 + 5
        assert ThetaPoly.monomial(n, 3, x=(2, 0), p=(0, 1)) == \
            parse_polynomial("3*x1^2", n) * p2
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
        with pytest.raises(ValueError, match="^momentum variables are not allowed here$"):
            parse_polynomial("p1", 2)
        with pytest.raises(ValueError, match="^the grading variable is not allowed here$"):
            parse_polynomial("x1 + th", 2)

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
        # a moment is read off the exponent fields of a packed term key
        def fields(*e):
            return _pack(len(e) // 2, 0, e)

        # (3!! / 6^2) * (1 / 6) for x1^4 x2^2 under exp(-3|x|^2)
        assert _moment_product(fields(4, 2, 0, 0), 3) == GaussianRational(Fraction(1, 72))
        assert _moment_product(fields(0, 0), 5) == GaussianRational(1)
        assert _moment_product(fields(2, 1), 1) is None

    def test_integral_arithmetic(self):
        a = gaussian_integrate(GaussianFunction(ThetaPoly.one(2)))
        assert (a - a).is_zero
        assert a.theta_slice(1).is_zero


@st.composite
def integrands(draw):
    """A prefactor and a density of one to three terms, with grades 0..2,
    complex coefficients and truncations drawn independently."""
    n = draw(st.integers(min_value=1, max_value=4))
    pre = draw(poly_strategy(n, max_terms=6, max_degree=4,
                             trunc=draw(st.integers(min_value=0, max_value=3))))
    mu = draw(poly_strategy(n, max_terms=3, max_degree=2,
                            trunc=draw(st.integers(min_value=0, max_value=3)))
              .filter(lambda p: not p.is_zero))
    return pre, mu


def graded(n: int, trunc: int, *parts: str) -> ThetaPoly:
    """sum_k th^k times the k-th part, each parsed as a coordinate polynomial."""
    return sum((parse_polynomial(text, n, trunc).theta_shift(k) for k, text in enumerate(parts)),
               ThetaPoly.zero(n, trunc))


def _outcome(integral, f, mu):
    try:
        return integral(f, mu)
    except OverflowError:
        return OverflowError


class TestMomentFunctional:
    """gaussian_integrate(f, mu) integrates against the density's cached
    moments; the oracle forms the product f * mu and integrates that."""

    @given(integrands())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_integral_of_the_product(self, pair):
        pre, mu = pair
        # one density at every weight, so a table read at the wrong weight shows
        for weight in (1, 2, 3):
            f = GaussianFunction(pre, weight)
            assert gaussian_integrate(f, mu) == integral_of_product(f, mu)

    def test_graded_complex_density_with_its_own_truncation(self):
        # th x1^2 x2 meets th^2 (1 + i) x1 x2: both grades shift, and the
        # density's truncation of 2 drops th * th^2
        pre = graded(2, 3, "x1^2 + 3*x2^2", "x1*x2", "x2^2")
        mu = graded(2, 2, "2", "x1^2", "(1 + i)*x1*x2")
        for weight in (1, 2, 3):
            f = GaussianFunction(pre, weight)
            got = gaussian_integrate(f, mu)
            assert got == integral_of_product(f, mu)
            assert not got.theta_slice(1).is_zero and not got.theta_slice(2).is_zero
            assert got.theta_slice(3).is_zero

    @pytest.mark.parametrize("mu, raises", [
        # x1^254 * x1 reaches the cap, 255
        pytest.param(graded(2, 2, "1 + x1"), False, id="1 + x1-False"),
        # x1^254 * x1^2 passes it
        pytest.param(graded(2, 2, "1 + x1^2"), True, id="1 + x1^2-True"),
        # th * th^2 lies above the truncation
        pytest.param(graded(2, 2, "1", "0", "x1^2"), False, id="1 + th^2*x1^2-False"),
    ])
    def test_overflow_parity_at_the_exponent_cap(self, mu, raises):
        pre = ThetaPoly.monomial(2, 1, x=(254, 0), grade=1, trunc=2) + ThetaPoly.one(2, 2)
        f = GaussianFunction(pre, 2)
        got = _outcome(gaussian_integrate, f, mu)
        assert got == _outcome(integral_of_product, f, mu)
        assert (got is OverflowError) == raises

    def test_table_rows_stay_within_the_cap(self, monkeypatch):
        monkeypatch.setattr(exact_algebra, "MOMENT_TABLE_SIZE", 3)
        mu = parse_polynomial("5/7 + x1", 1)
        f = GaussianFunction(parse_polynomial("1 + x1 + x1^2 + x1^3 + x1^4 + x1^5", 1))
        assert gaussian_integrate(f, mu) == integral_of_product(f, mu)
        _, rows = mu._derived[("moments", 1)]
        assert len(rows) == 3


def count_moments(monkeypatch) -> list:
    """Record every moment ``gaussian_integrate`` forms from here on."""
    calls = []

    def counted(fields, weight):
        calls.append((fields, weight))
        return _moment_product(fields, weight)

    monkeypatch.setattr(exact_algebra, "_moment_product", counted)
    return calls


class TestDensityOwnsItsTable:
    """A density keeps its moment rows on itself, per weight; nothing is
    shared between density values, equal or not."""

    PRE = "1 + x1^2 + x1*x2 - x2^2/3"

    def test_a_density_reuses_its_rows(self, monkeypatch):
        mu = parse_polynomial("3 + x1*x2", 2)
        f = GaussianFunction(parse_polynomial(self.PRE, 2), 2)
        want = integral_of_product(f, mu)
        assert gaussian_integrate(f, mu) == want
        moments = count_moments(monkeypatch)
        assert gaussian_integrate(f, mu) == want
        assert moments == []

    def test_equal_densities_build_their_own_rows(self, monkeypatch):
        mu, twin = (parse_polynomial("3 + x1*x2", 2) for _ in range(2))
        assert mu == twin and mu is not twin
        f = GaussianFunction(parse_polynomial(self.PRE, 2), 2)
        moments = count_moments(monkeypatch)
        got = gaussian_integrate(f, mu)
        made = len(moments)
        assert made > 0
        assert gaussian_integrate(f, twin) == got
        assert len(moments) == 2 * made
        ours, theirs = (d._derived[("moments", 2)][1] for d in (mu, twin))
        assert ours is not theirs and ours == theirs

    def test_each_weight_keeps_its_own_table(self):
        mu = parse_polynomial("2 + x1^2", 2)
        pre = parse_polynomial(self.PRE, 2)
        for weight in (1, 2):
            f = GaussianFunction(pre, weight)
            assert gaussian_integrate(f, mu) == integral_of_product(f, mu)
        assert {("moments", 1), ("moments", 2)} <= set(mu._derived)
