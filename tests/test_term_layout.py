"""The packed term layout against a tuple-keyed reference, the exponent
field cap, and the hash/eq contract of the scalar and polynomial types.

``RefPoly`` keeps each term under ``(grade, exponents)`` and runs the
textbook algorithm of every operation, so any slip in packing, carrying or
unpacking a key shows up as a difference from it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqm.exact_algebra import (
    MAX_EXPONENT,
    GaussianFunction,
    GaussianRational,
    ThetaPoly,
    UsageError,
    star_sum,
    substitute_all,
)

from conftest import small_fractions


class RefPoly:
    """Tuple-keyed graded polynomial: {(grade, exponents): coefficient}."""

    def __init__(self, n, terms, trunc):
        self.n, self.trunc = n, trunc
        self.terms = {(t, tuple(e)): c for (t, e), c in terms.items()
                      if t <= trunc and not c.is_zero}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return RefPoly(self.n, out, min(self.trunc, other.trunc))

    def scale(self, c):
        return RefPoly(self.n, {k: v * c for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        out = {}
        for (t1, e1), c1 in self.terms.items():
            for (t2, e2), c2 in other.terms.items():
                k = (t1 + t2, tuple(a + b for a, b in zip(e1, e2)))
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
        return RefPoly(self.n, out, min(self.trunc, other.trunc))

    def diff(self, slot):
        out = {}
        for (t, e), c in self.terms.items():
            if e[slot]:
                out[(t, e[:slot] + (e[slot] - 1,) + e[slot + 1:])] = c * e[slot]
        return RefPoly(self.n, out, self.trunc)

    def diff_multi(self, midx):
        out = self
        for i, k in enumerate(midx):
            for _ in range(k):
                out = out.diff(i)
        return out

    def theta_coefficient(self, k):
        return RefPoly(self.n, {(0, e): c for (t, e), c in self.terms.items() if t == k},
                       self.trunc)

    def theta_shift(self, k):
        return RefPoly(self.n, {(t + k, e): c for (t, e), c in self.terms.items()},
                       self.trunc)

    def truncated(self, order):
        return RefPoly(self.n, {k: c for k, c in self.terms.items() if k[0] <= order},
                       self.trunc)

    def with_trunc(self, trunc):
        return RefPoly(self.n, self.terms, trunc)

    def momentum_blocks(self):
        n, blocks = self.n, {}
        for (t, e), c in self.terms.items():
            blocks.setdefault(e[n:], {})[(t, e[:n] + (0,) * n)] = c
        return {m: RefPoly(n, terms, self.trunc) for m, terms in blocks.items()}

    def power(self, k):
        out = RefPoly(self.n, {(0, (0,) * (2 * self.n)): GaussianRational(1)}, self.trunc)
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, images):
        n = self.n
        trunc = min([self.trunc] + [img.trunc for img in images.values()])
        out = RefPoly(n, {}, trunc)
        for (t, e), c in self.terms.items():
            term = RefPoly(n, {(t, (0,) * (2 * n)): c}, trunc)
            for slot, k in enumerate(e):
                unit = tuple(int(s == slot) for s in range(2 * n))
                base = images.get(("x", slot) if slot < n else ("p", slot - n),
                                  RefPoly(n, {(0, unit): GaussianRational(1)}, trunc))
                term = term * base.with_trunc(trunc).power(k)
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (item[0][0], sum(item[0][1]), item[0][1]))

    def to_json(self):
        n = self.n
        return [[t, list(e[:n]), list(e[n:]), str(c)] for (t, e), c in self.sorted_terms()]

    def text(self):
        if not self.terms:
            return "0/1"
        n, parts = self.n, []
        for (t, e), c in self.sorted_terms():
            factors = [] if not t else ["th" if t == 1 else f"th^{t}"]
            for slot, k in enumerate(e):
                if k:
                    name = f"x{slot + 1}" if slot < n else f"p{slot - n + 1}"
                    factors.append(name if k == 1 else f"{name}^{k}")
            coeff = str(c) if c.is_real else f"({c})"
            parts.append("*".join([coeff] + factors))
        return " + ".join(parts)


def same(p: ThetaPoly, ref: RefPoly) -> bool:
    return (p.n == ref.n and p.trunc == ref.trunc
            and dict(p.sorted_terms()) == ref.terms
            and p.to_json() == ref.to_json() and p.text() == ref.text())


# a few coefficients, so that sums and products cancel often
coefficients = st.sampled_from([GaussianRational(v) for v in (1, -1, 2, -2, Fraction(1, 2))]
                               + [GaussianRational(0, 1), GaussianRational(1, -1)])


@st.composite
def raw_terms(draw, n):
    exps = st.tuples(*[st.integers(0, 3)] * (2 * n))
    return draw(st.dictionaries(st.tuples(st.integers(0, 4), exps), coefficients,
                                max_size=6))


@st.composite
def poly_pair(draw):
    """(n, packed a, reference a, packed b, reference b), truncations mixed."""
    n = draw(st.integers(1, 5))
    out = [n]
    for _ in range(2):
        terms, trunc = draw(raw_terms(n)), draw(st.integers(0, 4))
        out += [ThetaPoly(n, terms, trunc), RefPoly(n, terms, trunc)]
    return tuple(out)


class TestPackedAgainstReference:
    @given(poly_pair())
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, case):
        n, a, ra, b, rb = case
        assert same(a, ra) and same(b, rb)
        assert same(a * b, ra * rb)
        assert same(a + b, ra + rb)
        assert same(a - b, ra + rb.scale(GaussianRational(-1)))
        # cancelling sums leave no zero terms behind
        assert (a - a).is_zero and (a + b - b).terms == a.with_trunc(min(a.trunc, b.trunc)).terms
        assert same(a * (b - b + a), ra * ra.with_trunc(min(a.trunc, b.trunc)))
        # the cross terms of (a + b)(a - b) cancel inside the product loop
        minus = GaussianRational(-1)
        assert same((a + b) * (a - b), (ra + rb) * (ra + rb.scale(minus)))
        assert same(a.scale(3), ra.scale(GaussianRational(3)))
        assert same(a.scale(Fraction(-1, 2)), ra.scale(GaussianRational(Fraction(-1, 2))))

    @given(poly_pair(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derivatives(self, case, data):
        n, a, ra, _, _ = case
        for i in range(n):
            assert same(a.diff_x(i), ra.diff(i))
            assert same(a.diff_p(i), ra.diff(n + i))
        midx = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        assert same(a.diff_multi(midx), ra.diff_multi(midx))
        assert same(a.diff_multi(midx[:1]), ra.diff_multi(midx[:1]))

    @given(poly_pair(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_grade_operations(self, case, k):
        n, a, ra, _, _ = case
        assert same(a.theta_shift(k), ra.theta_shift(k))
        assert same(a.theta_coefficient(k), ra.theta_coefficient(k))
        assert same(a.truncated(k), ra.truncated(k))
        assert same(a.with_trunc(k), ra.with_trunc(k))
        assert a.max_theta_power() == max((t for t, _ in ra.terms), default=0)

    @given(poly_pair())
    @settings(max_examples=40, deadline=None)
    def test_momentum_blocks(self, case):
        _, a, ra, _, _ = case
        blocks, ref = a.momentum_blocks(), ra.momentum_blocks()
        assert list(blocks) == list(ref)
        assert all(same(blocks[m], ref[m]) for m in ref)

    @given(poly_pair(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_substitute(self, case, data):
        """One map substituted into a list of polynomials, lowest
        truncation first: each result is cut at its own truncation."""
        n, a, ra, b, rb = case
        a, ra = a.truncated(2), ra.truncated(2)  # keep the powers small
        keys = data.draw(st.lists(st.sampled_from(
            [("x", i) for i in range(n)] + [("p", i) for i in range(n)]),
            unique=True, max_size=2))
        images = {key: b.truncated(1) for key in keys}
        ref_images = {key: rb.truncated(1) for key in keys}
        got = substitute_all([a.with_trunc(k) for k in range(4)] + [a], images)
        for p, ref in zip(got, [ra.with_trunc(k) for k in range(4)] + [ra]):
            assert same(p, ref.substitute(ref_images))

    @given(poly_pair(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_gaussian_derivative_matches_two_product_formula(self, case, weight):
        n, a, ra, _, _ = case
        pre = a.momentum_blocks().get((0,) * n, ThetaPoly.zero(n, a.trunc))
        ref = ra.momentum_blocks().get((0,) * n, RefPoly(n, {}, ra.trunc))
        f = GaussianFunction(pre, weight)
        for i in range(n):
            x_i = ThetaPoly.coordinate(n, i, pre.trunc)
            old = pre.diff_x(i) - pre * x_i * (2 * weight)
            got = f.diff_x(i)
            assert got.weight == weight and got.prefactor == old
            unit = tuple(int(s == i) for s in range(2 * n))
            ref_x = RefPoly(n, {(0, unit): GaussianRational(-2 * weight)}, ref.trunc)
            assert same(got.prefactor, ref.diff(i) + ref * ref_x)

    @given(poly_pair(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_gaussian_multi_derivative_is_the_chain_of_steps(self, case, data):
        n, a, _, _, _ = case
        pre = a.momentum_blocks().get((0,) * n, ThetaPoly.zero(n, a.trunc)) \
            + ThetaPoly.coordinate(n, 0, a.trunc)
        midx = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=n))
        for weight in (1, 2, 3):
            f = GaussianFunction(pre, weight)
            chain = f
            for i, k in enumerate(midx):
                for _ in range(k):
                    chain = chain.diff_x(i)
            got = f.diff_multi(tuple(midx))
            assert got.weight == weight and got.prefactor == chain.prefactor
            with pytest.raises(IndexError):
                f.diff_multi((0,) * n + (1,))

    @given(poly_pair(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_star_sum(self, case, data):
        n, a, ra, b, rb = case
        # f = g = a, and each drawn pair (x, y) puts b on (x, y), -b on
        # (y, x) and a on (x, x): the first two cancel term by term
        midx = st.tuples(*[st.integers(0, 2)] * n)
        slices, pieces = [], []
        for k in range(3):
            rules = {}
            for x, y in data.draw(st.lists(st.tuples(midx, midx), max_size=3)):
                rules[(x, y)] = b, rb
                rules[(y, x)] = -b, rb.scale(GaussianRational(-1))
                rules[(x, x)] = a, ra
            slices.append({key: c for key, (c, _) in rules.items()})
            pieces += [(k, x, y, rc) for (x, y), (_, rc) in rules.items()]
        got = star_sum(n, slices, a, a, {})
        # the lowest truncation among a and the coefficients of the rules
        # whose derivatives are both nonzero holds
        ref, top = None, a.trunc
        for k, x, y, rc in pieces:
            dx, dy = ra.diff_multi(x), ra.diff_multi(y)
            if dx.terms and dy.terms:
                top = min(top, rc.trunc)
                piece = (rc * dx * dy).theta_shift(k)
                ref = piece if ref is None else ref + piece
        if ref is None:
            assert got is None
        else:
            assert same(got, ref.with_trunc(top))

    def test_gaussian_derivative_cancels_in_place(self):
        # d(x^2 + 1) - 2 x (x^2 + 1) = -2 x^3: the two x terms cancel
        x = ThetaPoly.coordinate(1, 0)
        got = GaussianFunction(x * x + 1).diff_x(0).prefactor
        assert list(got.terms.values()) == [GaussianRational(-2)]
        assert got == x ** 3 * (-2)


class TestFieldCap:
    def test_cap_constructs_and_multiplies(self):
        top = ThetaPoly.monomial(2, x=(MAX_EXPONENT, 0), p=(0, MAX_EXPONENT))
        assert top.text() == f"1/1*x1^{MAX_EXPONENT}*p2^{MAX_EXPONENT}"
        assert top * ThetaPoly.coordinate(2, 1) == ThetaPoly.monomial(
            2, x=(MAX_EXPONENT, 1), p=(0, MAX_EXPONENT))
        half = ThetaPoly.monomial(1, x=(200,))
        assert half * ThetaPoly.monomial(1, x=(55,)) == ThetaPoly.monomial(1, x=(255,))
        assert ThetaPoly.coordinate(1, 0) ** MAX_EXPONENT == ThetaPoly.monomial(1, x=(255,))

    @pytest.mark.parametrize("exps", [(256, 0, 0, 0), (0, 0, 0, 300)])
    def test_constructor_refuses_past_cap(self, exps):
        with pytest.raises(OverflowError):
            ThetaPoly(2, {(0, exps): GaussianRational(1)})

    @pytest.mark.parametrize("x,p,other", [
        ((255, 0), (0, 0), ThetaPoly.coordinate(2, 0)),      # into the next coordinate
        ((0, 0), (0, 255), ThetaPoly.momentum(2, 1)),        # into the grade
        ((200, 0), (0, 0), ThetaPoly.monomial(2, x=(56, 0))),
        ((0, 130), (0, 0), ThetaPoly.monomial(2, x=(0, 130)) + 1),
    ])
    def test_product_past_cap_raises(self, x, p, other):
        big = ThetaPoly.monomial(2, x=x, p=p)
        with pytest.raises(OverflowError):
            big * other
        with pytest.raises(OverflowError):
            other * big

    def test_power_past_cap_raises(self):
        with pytest.raises(OverflowError):
            ThetaPoly.coordinate(1, 0) ** (MAX_EXPONENT + 1)
        with pytest.raises(OverflowError):
            ThetaPoly.monomial(1, x=(128,)) ** 2

    def test_derivatives_at_cap(self):
        top = ThetaPoly.monomial(2, 3, x=(MAX_EXPONENT, 1), p=(0, MAX_EXPONENT))
        assert top.diff_multi((2, 1)) == ThetaPoly.monomial(
            2, 3 * 255 * 254, x=(253, 0), p=(0, 255))
        assert top.diff_p(1) == ThetaPoly.monomial(2, 3 * 255, x=(255, 1), p=(0, 254))
        assert top.diff_multi((0, 2)).is_zero

    def test_truncated_pairs_are_not_terms(self):
        a = ThetaPoly.monomial(1, x=(200,), grade=2)
        assert (a * a).is_zero

    def test_gaussian_derivative_past_cap_raises(self):
        f = GaussianFunction(ThetaPoly.monomial(2, x=(MAX_EXPONENT, 0)))
        assert not f.diff_x(1).is_zero
        with pytest.raises(OverflowError):
            f.diff_x(0)

    @pytest.mark.parametrize("key", [(-1, (0, 0)), (0, (-1, 0)), (0, (0, -2))])
    def test_negative_grades_and_exponents_refused(self, key):
        with pytest.raises(UsageError):
            ThetaPoly(1, {key: GaussianRational(1)})
        with pytest.raises(UsageError):
            ThetaPoly.one(1).theta_shift(-1)


# every value below is equal to some value of another type
rationals = small_fractions


@st.composite
def equal_values(draw):
    q = draw(rationals)
    n = draw(st.integers(1, 3))
    out = [q, GaussianRational(q), ThetaPoly.constant(n, q), ThetaPoly.constant(n, q, 0)]
    if q.denominator == 1:
        out.append(int(q))
    return out


class TestHashContract:
    def test_examples(self):
        assert {3: "a"}.get(GaussianRational(3)) == "a"
        assert {3: "a"}.get(ThetaPoly.constant(2, 3)) == "a"
        assert {Fraction(1, 2): "h"}.get(GaussianRational(Fraction(1, 2))) == "h"
        assert hash(ThetaPoly.zero(2)) == hash(0)

    @given(equal_values(), equal_values(),
           st.builds(GaussianRational, rationals, rationals))
    @settings(max_examples=100)
    def test_equal_values_hash_equal(self, xs, ys, z):
        for x in xs + ys + [z, ThetaPoly.constant(2, z), ThetaPoly.coordinate(2, 0)]:
            for y in xs + ys + [z, ThetaPoly.constant(2, z)]:
                if x == y:
                    assert hash(x) == hash(y), (x, y)
