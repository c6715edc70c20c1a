"""Exact arithmetic foundation.

Gaussian-rational scalars, deformation-graded multivariate polynomials,
rational functions, and Gaussian-weighted integrands with closed-form
moments.  Everything here is immutable after construction and all
operations are pure, so values can be shared freely.

Scalar layout: a ``GaussianRational`` is one reduced int triple
``(a, b, d)`` meaning ``(a + b*i)/d``, with ``d > 0`` and
``gcd(a, b, d) = 1``; equal values have equal triples.  ``re`` and ``im``
are ``Fraction`` views derived from it, used by the text form and the
parser's size caps.

Term layout: a polynomial term is given as ``(grade, exponents)``, where
``exponents`` holds the n coordinate exponents followed by the n momentum
exponents, and stored under one packed int key: exponent slot s sits in
the 8-bit field at bit 8s and the grade above all 2n fields, at bit 16n.
A product's key is the sum of its factors' keys, and a grade test is one
compare against ``(trunc + 1) << 16n`` (the packed-monomial layout of
Monagan and Pearce).  There is one format for coordinate and phase-space
values: a coordinate polynomial is one whose momentum exponents are all
zero (``is_coordinate_only``).  Only this module reads or builds the
keys; other modules go through ``ThetaPoly.monomial``, ``momentum_blocks``,
``sorted_terms``, ``star_sum`` and the arithmetic.  An exponent past
``MAX_EXPONENT`` (255) raises ``OverflowError`` instead of wrapping into
the next field; the parser's ``MAX_DEGREE`` of 8 keeps every parsed input
far below it.
The public ``ThetaPoly`` constructor packs and checks its terms; the
arithmetic builds results through ``_poly``, dropping a cancelled term in
the loop that makes it.

Star-product sums: ``star_sum`` evaluates sum th^k c d^a f d^b g over a
rule table on integer numerators.  The first call on a table compiles it:
every rule coefficient goes over one denominator, the lcm of all their
coefficients' denominators, as Gaussian-integer numerators, and the rules
are grouped by grade and left index a.  Each operand is held as one
denominator over numerators too, and so is each derivative, one step on
the numerators from the derivative below it; an operand keeps these forms
for as long as it lives, per Gaussian weight.  The terms are added as
Python ints over one common denominator, and each output coefficient is
reduced once, by ``_make``.

Moments: ``gaussian_integrate(f, mu)`` meets each term of f with one row
of the density's moment table.  The density keeps its rows, per Gaussian
weight and at most ``MOMENT_TABLE_SIZE`` of them, beside its star forms,
and they are freed with it; no cache keyed by a polynomial outlives it.

The deformation parameter is a formal grading variable (written ``th`` in
the text form); it is never assigned a numeric value.  Series are kept
truncated at a fixed order and products silently drop terms above it.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, perm
from operator import or_
from typing import Mapping, Optional, Sequence, Union

DEFAULT_TRUNC = 3

Scalarish = Union[int, Fraction, "GaussianRational"]


class DimensionError(ValueError):
    """Operands live over different coordinate spaces."""


class UsageError(ValueError):
    """An operation was called outside its contract."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


class GaussianRational:
    """Exact complex number (a + b*i)/d with integers a, b, d.

    The triple is kept reduced: d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples and zero is (0, 0, 1).  ``re`` and ``im`` are derived
    ``Fraction`` views of it.  Arithmetic builds its results through
    ``_make``, which reduces with one gcd and skips the public constructor.
    Values are immutable by convention: nothing assigns to a, b or d after
    construction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        q, r = re.denominator, im.denominator
        # reduced parts over their lcm leave gcd(a, b, d) = 1
        d = q // gcd(q, r) * r
        self.a, self.b, self.d = re.numerator * (d // q), im.numerator * (d // r), d

    @staticmethod
    def of(value: Scalarish) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_real(self) -> bool:
        return not self.b

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a + other.a, self.b + other.b, d1)
        return _make(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b1 and not b2:
            return _make(a1 * a2, 0, self.d * other.d)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        # ((a1 + b1 i)/d1) / ((a2 + b2 i)/d2) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 norm)
        a1, b1 = a1 * other.d, b1 * other.d
        return _make(a1 * a2 + b1 * b2, b1 * a2 - a1 * b2, self.d * norm)

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return GaussianRational(1) / (self ** (-k))
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if type(other) is GaussianRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (not self.b and self.d == other.denominator
                    and self.a == other.numerator)
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like the equal int or Fraction
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def __str__(self) -> str:
        # canonical text form: "p/q" or "p/q+r/s*i", explicit sign, reduced
        re, im = self.re, self.im
        re_s = f"{re.numerator}/{re.denominator}"
        if im == 0:
            return re_s
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        return f"{re_s}{sign}{mag.numerator}/{mag.denominator}*i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        m = _re.fullmatch(
            r"\s*(-?\d+)/(\d+)\s*(?:([+-])\s*(\d+)/(\d+)\*i\s*)?", text
        )
        if not m:
            raise ValueError(f"not a canonical scalar: {text!r}")
        re_part = Fraction(int(m.group(1)), int(m.group(2)))
        if m.group(3) is None:
            return GaussianRational(re_part)
        im_part = Fraction(int(m.group(4)), int(m.group(5)))
        if m.group(3) == "-":
            im_part = -im_part
        return GaussianRational(re_part, im_part)


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced by one gcd when d != 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

TermKey = tuple[int, tuple[int, ...]]

# Largest exponent a term may carry: each one lives in an 8-bit field.
MAX_EXPONENT = 255


def multi_index(n: int, *axes: int) -> tuple[int, ...]:
    """Exponent vector of length n with one unit per listed axis; repeated
    axes add up."""
    out = [0] * n
    for a in axes:
        out[a] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _top_bits(n: int) -> int:
    """The top bit of each of the 2n exponent fields."""
    return int.from_bytes(b"\x80" * (2 * n), "little")


def _pack(n: int, t: int, e) -> int:
    """The key of the term th^t x^e, checked against the field cap."""
    if t < 0 or min(e, default=0) < 0:
        raise UsageError("grades and exponents must be nonnegative")
    if max(e, default=0) > MAX_EXPONENT:
        raise OverflowError(f"exponent exceeds the cap of {MAX_EXPONENT}")
    return int.from_bytes(bytes(e), "little") | t << (n << 4)


def _unpack(n: int, key: int) -> TermKey:
    """(grade, exponents) of a packed key."""
    shift = n << 4
    return key >> shift, tuple((key & ((1 << shift) - 1)).to_bytes(2 * n, "little"))


def _poly(n: int, terms: dict, trunc: int) -> "ThetaPoly":
    """Wrap packed terms that are already normal: nonzero, grades <= trunc."""
    out = _new(ThetaPoly)
    out.n = n
    out.trunc = trunc
    out.terms = terms
    return out


class ThetaPoly:
    """Multivariate polynomial over GaussianRational, graded by powers of
    the deformation parameter.

    ``terms`` maps packed keys to nonzero coefficients (see "Term layout"
    in the module docstring); the constructor takes ``(grade, exponents)``
    keys, whose ``exponents`` hold the n coordinate exponents followed by
    the n momentum exponents, which stay zero for coordinate-only values.
    The same type serves coordinate and phase-space values; checks that
    need a coordinate polynomial read ``is_coordinate_only``.  Values are
    immutable by convention: nothing assigns to n, trunc or terms, or
    changes terms, after construction.  The one slot set later is
    ``_derived``, what is derived from terms on first use: the numerator
    forms ``star_sum`` reads of a star operand and the moment tables
    ``gaussian_integrate`` reads of a density.
    """

    __slots__ = ("n", "trunc", "terms", "_derived")

    def __init__(self, n: int, terms: Mapping[TermKey, GaussianRational],
                 trunc: int = DEFAULT_TRUNC):
        if n <= 0:
            raise DimensionError("need at least one coordinate")
        clean: dict[int, GaussianRational] = {}
        for (t, e), c in terms.items():
            if t > trunc or c.is_zero:
                continue
            if len(e) != 2 * n:
                raise DimensionError("exponent vector length mismatch")
            clean[_pack(n, t, e)] = c
        self.n = n
        self.trunc = trunc
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(n: int, c: Scalarish = 1, x: tuple[int, ...] = (),
                 p: tuple[int, ...] = (), grade: int = 0,
                 trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        """c * th^grade * x^x * p^p; an empty exponent vector is all zeros."""
        exps = (tuple(x) or (0,) * n) + (tuple(p) or (0,) * n)
        return ThetaPoly(n, {(grade, exps): GaussianRational.of(c)}, trunc)

    @staticmethod
    def zero(n: int, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        return ThetaPoly(n, {}, trunc)

    @staticmethod
    def constant(n: int, c: Scalarish, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        return ThetaPoly.monomial(n, c, trunc=trunc)

    @staticmethod
    def one(n: int, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        return ThetaPoly.monomial(n, trunc=trunc)

    @staticmethod
    def coordinate(n: int, i: int, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        if not 0 <= i < n:
            raise IndexError(f"coordinate index {i} out of range for n={n}")
        return ThetaPoly.monomial(n, x=multi_index(n, i), trunc=trunc)

    @staticmethod
    def momentum(n: int, i: int, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        if not 0 <= i < n:
            raise IndexError(f"momentum index {i} out of range for n={n}")
        return ThetaPoly.monomial(n, p=multi_index(n, i), trunc=trunc)

    @staticmethod
    def theta(n: int, power: int = 1, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        return ThetaPoly.monomial(n, grade=power, trunc=trunc)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_theta_free(self) -> bool:
        return max(self.terms, default=0) >> (self.n << 4) == 0

    @property
    def is_coordinate_only(self) -> bool:
        low = 8 * self.n
        return not reduce(or_, self.terms, 0) >> low & ((1 << low) - 1)

    def momentum_blocks(self) -> dict[tuple[int, ...], "ThetaPoly"]:
        """Map each momentum exponent vector to the coordinate polynomial
        (grades kept) that multiplies it."""
        n = self.n
        low = 8 * n
        fields = (1 << low) - 1
        blocks: dict[int, dict[int, GaussianRational]] = {}
        for k, c in self.terms.items():
            m = k >> low & fields
            blocks.setdefault(m, {})[k - (m << low)] = c
        return {tuple(m.to_bytes(n, "little")): _poly(n, terms, self.trunc)
                for m, terms in blocks.items()}

    def with_trunc(self, trunc: int) -> "ThetaPoly":
        terms = self.terms if trunc >= self.trunc else self.truncated(trunc).terms
        return _poly(self.n, terms, trunc)

    def _merge_trunc(self, other: "ThetaPoly") -> int:
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch: {self.n} vs {other.n}")
        return self.trunc if self.trunc < other.trunc else other.trunc

    # -- ring arithmetic -----------------------------------------------------

    def __add__(self, other: Union["ThetaPoly", Scalarish]) -> "ThetaPoly":
        if type(other) is not ThetaPoly:
            other = ThetaPoly.constant(self.n, other, self.trunc)
        trunc = self._merge_trunc(other)
        out = dict(self.truncated(trunc).terms if self.trunc > trunc else self.terms)
        b = other.truncated(trunc).terms if other.trunc > trunc else other.terms
        for k, c in b.items():
            _put(out, k, c)
        return _poly(self.n, out, trunc)

    __radd__ = __add__

    def __neg__(self) -> "ThetaPoly":
        return _poly(self.n, {k: -c for k, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: Union["ThetaPoly", Scalarish]) -> "ThetaPoly":
        if type(other) is not ThetaPoly:
            other = ThetaPoly.constant(self.n, other, self.trunc)
        trunc = self._merge_trunc(other)
        out = dict(self.truncated(trunc).terms if self.trunc > trunc else self.terms)
        b = other.truncated(trunc).terms if other.trunc > trunc else other.terms
        # one pass, like __add__; equal values have equal triples, so a
        # difference cancels exactly when s == c
        for k, c in b.items():
            s = out.get(k)
            if s is None:
                out[k] = -c
            elif s == c:
                del out[k]
            elif s.d == c.d:
                out[k] = _make(s.a - c.a, s.b - c.b, c.d)
            else:
                out[k] = _make(s.a * c.d - c.a * s.d, s.b * c.d - c.b * s.d, s.d * c.d)
        return _poly(self.n, out, trunc)

    def __rsub__(self, other: Scalarish) -> "ThetaPoly":
        return (-self) + other

    def scale(self, c: Scalarish) -> "ThetaPoly":
        c = GaussianRational.of(c)
        if c.is_zero:
            return ThetaPoly.zero(self.n, self.trunc)
        return _poly(self.n, {k: v * c for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other: Union["ThetaPoly", Scalarish]) -> "ThetaPoly":
        if type(other) is not ThetaPoly:
            if isinstance(other, (int, Fraction, GaussianRational)):
                return self.scale(other)
            return NotImplemented
        trunc = self._merge_trunc(other)
        n, a, b = self.n, self.terms, other.terms
        # a term's key is the sum of its factors' keys, unless a field passes
        # the cap; fields below their top bit cannot
        if (reduce(or_, a, 0) | reduce(or_, b, 0)) & _top_bits(n):
            _check_fields(n, a, b, trunc)
        limit = (trunc + 1) << (n << 4)
        out: dict[int, GaussianRational] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                if k < limit:
                    c = c1 * c2
                    s = out.get(k)
                    if s is None:
                        out[k] = c
                    else:
                        s = s + c
                        if s.a or s.b:
                            out[k] = s
                        else:
                            del out[k]
        return _poly(n, out, trunc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ThetaPoly":
        if k < 0:
            raise UsageError("negative polynomial power")
        out = ThetaPoly.one(self.n, self.trunc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ThetaPoly.constant(self.n, other, self.trunc)
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant hashes like the scalar it equals
        terms = self.terms
        if not terms.keys() - {0}:
            return hash(terms.get(0, 0))
        return hash((self.n, frozenset(terms.items())))

    # -- calculus ------------------------------------------------------------

    def _diff(self, slot: int) -> "ThetaPoly":
        # lowering one exponent never merges two monomials
        shift = 8 * slot
        out = {}
        for k, c in self.terms.items():
            e = k >> shift & 255
            if e:
                out[k - (1 << shift)] = c if e == 1 else _make(c.a * e, c.b * e, c.d)
        return _poly(self.n, out, self.trunc)

    def diff_x(self, i: int) -> "ThetaPoly":
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate index {i} out of range for n={self.n}")
        return self._diff(i)

    def diff_p(self, i: int) -> "ThetaPoly":
        if not 0 <= i < self.n:
            raise IndexError(f"momentum index {i} out of range for n={self.n}")
        return self._diff(self.n + i)

    def diff_multi(self, midx: tuple[int, ...]) -> "ThetaPoly":
        """Apply the coordinate derivative with multiplicities ``midx``, in
        one pass: each term takes the falling factorials of its exponents."""
        orders = [(8 * i, k) for i, k in enumerate(midx) if k > 0]
        if not orders:
            return self
        if orders[-1][0] >= 8 * self.n:
            i = orders[-1][0] // 8
            raise IndexError(f"coordinate index {i} out of range for n={self.n}")
        drop = sum(k << shift for shift, k in orders)
        out = {}
        for key, c in self.terms.items():
            f = 1
            for shift, k in orders:
                f *= perm(key >> shift & 255, k)
            if f:
                out[key - drop] = c if f == 1 else _make(c.a * f, c.b * f, c.d)
        return _poly(self.n, out, self.trunc)

    def conjugate(self) -> "ThetaPoly":
        # the grading variable is treated as real
        return _poly(self.n, {k: c.conjugate() for k, c in self.terms.items()},
                     self.trunc)

    def theta_coefficient(self, k: int) -> "ThetaPoly":
        """Coordinate/momentum polynomial multiplying the k-th grade."""
        shift = self.n << 4
        return _poly(self.n, {key - (k << shift): c for key, c in self.terms.items()
                              if key >> shift == k}, self.trunc)

    def theta_shift(self, k: int) -> "ThetaPoly":
        if k < 0:
            raise UsageError("grades and exponents must be nonnegative")
        shift = self.n << 4
        step, limit = k << shift, (self.trunc + 1) << shift
        return _poly(self.n, {key + step: c for key, c in self.terms.items()
                              if key + step < limit}, self.trunc)

    def truncated(self, order: int) -> "ThetaPoly":
        limit = (order + 1) << (self.n << 4)
        if max(self.terms, default=-1) < limit:
            return self
        return _poly(self.n, {k: c for k, c in self.terms.items() if k < limit},
                     self.trunc)

    def max_theta_power(self) -> int:
        return max(self.terms, default=0) >> (self.n << 4)

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, GaussianRational]]:
        # (grade, total degree, coordinate exponents, momentum exponents)
        n = self.n
        return sorted(((_unpack(n, k), c) for k, c in self.terms.items()),
                      key=lambda item: (item[0][0], sum(item[0][1]), item[0][1]))

    def text(self) -> str:
        if self.is_zero:
            return "0/1"
        n = self.n
        parts = []
        for (t, exps), c in self.sorted_terms():
            factors = []
            if t:
                factors.append("th" if t == 1 else f"th^{t}")
            for slot, e in enumerate(exps):
                if e:
                    name = f"x{slot + 1}" if slot < n else f"p{slot - n + 1}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            coeff = str(c) if c.is_real else f"({c})"
            parts.append(coeff if not factors else coeff + "*" + "*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> list:
        n = self.n
        return [[t, list(e[:n]), list(e[n:]), str(c)]
                for (t, e), c in self.sorted_terms()]

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"ThetaPoly({self.text()!r})"


def substitute_all(polys: Sequence[ThetaPoly],
                   images: Mapping[tuple[str, int], ThetaPoly]) -> list[ThetaPoly]:
    """Exact composition of each polynomial with one map; keys are
    ('x', i) or ('p', i).

    Unmapped variables keep their identity image.  The grading variable
    passes through unchanged.  Each result is cut at the lowest truncation
    among its polynomial and the images; the powers of the images are
    formed once per truncation and shared by the whole list."""
    powers: dict[tuple[int, int, int, int], ThetaPoly] = {}
    out = []
    for p in polys:
        n = p.n
        if any(img.n != n for img in images.values()):
            raise DimensionError("substitution image dimension mismatch")
        trunc = min([p.trunc, *(img.trunc for img in images.values())])
        total = ThetaPoly.zero(n, trunc)
        for key, c in p.terms.items():
            t, exps = _unpack(n, key)
            if t > trunc:
                continue
            term = _poly(n, {t << (n << 4): c}, trunc)
            for slot, e in enumerate(exps):
                if e:
                    power = powers.get(k := (n, trunc, slot, e))
                    if power is None:
                        base = images.get(("x", slot) if slot < n else ("p", slot - n),
                                          _poly(n, {1 << (8 * slot): ONE}, trunc))
                        power = powers[k] = base.with_trunc(trunc) ** e
                    term = term * power
            total = total + term
        out.append(total)
    return out


def _check_fields(n: int, a: dict, b: dict, trunc: int) -> None:
    """Raise if a product term of a and b would carry out of an exponent
    field; a carry shows as a bit where the sum differs from the xor."""
    shift, carry = n << 4, _top_bits(n) << 1
    for k1 in a:
        for k2 in b:
            if (k1 >> shift) + (k2 >> shift) <= trunc and (k1 + k2 ^ k1 ^ k2) & carry:
                raise OverflowError(f"exponent exceeds the cap of {MAX_EXPONENT}")


def _put(out: dict, key: int, c: GaussianRational) -> None:
    """Add c into out[key], dropping the key when the sum cancels."""
    s = out.get(key)
    if s is None:
        out[key] = c
    elif (s := s + c).a or s.b:
        out[key] = s
    else:
        del out[key]


# ---------------------------------------------------------------------------
# the bilinear sum of a star product, on integer numerators
# ---------------------------------------------------------------------------
#
# A numerator form (d, terms, high) stands for the polynomial
# sum (a + b*i)/d * x^key over the (key, a, b) in ``terms``, with d the lcm
# of the coefficients' denominators.  ``high`` is False only when every
# exponent field is below 64, so that no product of three such factors can
# carry out of a field.


@lru_cache(maxsize=None)
def _high_bits(n: int) -> int:
    """The top two bits of each of the 2n exponent fields."""
    return _top_bits(n) | _top_bits(n) >> 1


def _numerators(p: ThetaPoly, d: int = 0) -> tuple[int, list, bool]:
    """The numerator form of p, over d if given, which must be a multiple
    of every coefficient's denominator."""
    d = d or lcm(*(c.d for c in p.terms.values()))
    if d == 1:
        terms = [(k, c.a, c.b) for k, c in p.terms.items()]
    else:
        terms = [(k, c.a * (m := d // c.d), c.b * m) for k, c in p.terms.items()]
    return d, terms, bool(reduce(or_, p.terms, 0) & _high_bits(p.n))


def _from_numerators(n: int, d: int, terms: list, trunc: int) -> ThetaPoly:
    """The polynomial of nonzero numerator terms over d."""
    return _poly(n, {k: _make(a, b, d) for k, a, b in terms}, trunc)


def _gaussian_step(terms: list, i: int, weight: int) -> list:
    """d_i P - 2w x_i P for the numerator terms of the prefactor P of a
    Gaussian of weight w; the denominator stays and cancelled terms are
    dropped."""
    shift = 8 * i
    unit, w2 = 1 << shift, -2 * weight
    out: dict[int, list] = {}
    for k, a, b in terms:
        e = k >> shift & 255
        if e == MAX_EXPONENT:
            raise OverflowError(f"exponent exceeds the cap of {MAX_EXPONENT}")
        for key, m in ((k + unit, w2), (k - unit, e)) if e else ((k + unit, w2),):
            s = out.get(key)
            if s is None:
                out[key] = [a * m, b * m]
            else:
                s[0] += a * m
                s[1] += b * m
    return [(k, a, b) for k, (a, b) in out.items() if a or b]


def _derivative(cache: dict, midx: tuple[int, ...], weight: int) -> tuple:
    """The numerator form of d^midx, one coordinate derivative of the form
    below it along the last axis of midx: d_i P for a polynomial, the
    Gaussian step for the prefactor P of a Gaussian of weight w > 0.  The
    denominator stays.  ``cache`` holds the forms made so far, the
    operand's own under the zero index."""
    i = len(midx) - 1
    while not midx[i]:
        i -= 1
    below = midx[:i] + (midx[i] - 1,) + midx[i + 1:]
    d, terms, high = cache.get(below) or _derivative(cache, below, weight)
    if terms and not weight:
        # lowering one exponent never merges two monomials, nor raises a field
        shift = 8 * i
        terms = [(k - (1 << shift), a * e, b * e) for k, a, b in terms
                 if (e := k >> shift & 255)]
    elif terms:
        terms = _gaussian_step(terms, i, weight)
        high = bool(reduce(or_, (t[0] for t in terms), 0) & _high_bits(len(midx)))
    got = cache[midx] = (d, terms, high)
    return got


def _kept(p: ThetaPoly, key, make):
    """What is derived from p under key: made by ``make()`` on first use and
    kept in p's ``_derived`` slot for as long as p lives.  A star operand
    keeps its ``_derivative`` cache under its Gaussian weight (0 for a
    polynomial), a density its moment table under ("moments", weight)."""
    try:
        derived = p._derived
    except AttributeError:
        derived = p._derived = {}
    got = derived.get(key)
    if got is None:
        got = derived[key] = make()
    return got


def _compile(slices) -> tuple[int, list]:
    """A rule table on numerators: the lcm of the denominators of every
    rule coefficient, and per grade k and left index a the group
    (k, a, [(b, c, numerator terms of c over that lcm, high)])."""
    denom = lcm(*(v.d for rules in slices for c in rules.values()
                  for v in c.terms.values()))
    groups = []
    for k, rules in enumerate(slices):
        by_a: dict[tuple, list] = {}
        for (a, b), c in rules.items():
            by_a.setdefault(a, []).append((b, c, *_numerators(c, denom)[1:]))
        groups += [(k, a, entries) for a, entries in by_a.items()]
    return denom, groups


def _mul_into(out: dict, a, b: list, step: int, limit: int) -> None:
    """Add the products of the numerator terms a and b into out, as
    {key: [re, im]}, each key raised by step and kept below limit."""
    for k1, a1, b1 in a:
        k1 += step
        for k2, a2, b2 in b:
            key = k1 + k2
            if key < limit:
                v = out.get(key)
                if v is None:
                    out[key] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                else:
                    v[0] += a1 * a2 - b1 * b2
                    v[1] += a1 * b2 + b1 * a2


def star_sum(n: int, slices, f, g, forms: dict) -> Optional[ThetaPoly]:
    """sum th^k c d^a f d^b g over the rules {(a, b): c} of each slice k,
    for polynomials or Gaussian-class f and g (their prefactors are
    multiplied); None when no rule has both derivatives nonzero.

    The result is truncated at the lowest truncation among f, g and the
    coefficients of those rules, and an exponent past the field cap raises
    ``OverflowError`` exactly where ``(c * d^a f) * d^b g`` would.  The sum
    runs on numerators over one common denominator, so each output
    coefficient is reduced once.  ``forms`` keeps the compiled table of
    each tuple of slice dicts, keyed by their identities, across calls;
    f and g keep their own derivatives (``_kept``)."""
    wf, pf = (f.weight, f.prefactor) if isinstance(f, GaussianFunction) else (0, f)
    wg, pg = (g.weight, g.prefactor) if isinstance(g, GaussianFunction) else (0, g)
    for p in (pf, pg):
        if p.n != n:
            raise DimensionError(f"dimension mismatch: {n} vs {p.n}")
    ids = tuple(map(id, slices))
    table = forms.get(ids)
    if table is None:
        # the entry holds the slices, so no other dicts take their ids
        table = forms[ids] = (tuple(slices), *_compile(slices))
    _, denom, groups = table
    cache_f = _kept(pf, wf, lambda: {(0,) * n: _numerators(pf)})
    cache_g = _kept(pg, wg, lambda: {(0,) * n: _numerators(pg)})
    top = min(pf.trunc, pg.trunc)
    active = []
    for k, a, entries in groups:
        df = cache_f.get(a) or _derivative(cache_f, a, wf)
        if not df[1]:
            continue
        for b, c, cterms, chigh in entries:
            dg = cache_g.get(b) or _derivative(cache_g, b, wg)
            if not dg[1]:
                continue
            if c.trunc < top:
                top = c.trunc
            active.append((k, c, cterms, chigh, df, dg))
    if not active:
        return None

    shift = n << 4
    limit = (top + 1) << shift
    acc: dict[int, list] = {}
    for k, c, cterms, chigh, (fd, fterms, fhigh), (gd, gterms, ghigh) in active:
        if chigh or fhigh or ghigh:
            # a field at 64 or more: run the polynomial product for its
            # OverflowError, which it raises where a field would carry
            cf_poly = c * _from_numerators(n, fd, fterms, pf.trunc)
            cf_poly * _from_numerators(n, gd, gterms, pg.trunc)
        # c d^a f first, cut at grade top - k, then times d^b g, at grade k
        step = k << shift
        if len(cterms) == 1:
            # one term: c d^a f is d^a f shifted and scaled, and no two of
            # its terms merge or cancel
            (kc, ca, cb), = cterms
            kc += step
            cf = [(key, a1 * ca - b1 * cb, a1 * cb + b1 * ca) for k1, a1, b1 in fterms
                  if (key := k1 + kc) < limit]
            _mul_into(acc, cf, gterms, 0, limit)
        else:
            cfd: dict[int, list] = {}
            _mul_into(cfd, cterms, fterms, 0, limit - step)
            _mul_into(acc, [(key, a1, b1) for key, (a1, b1) in cfd.items() if a1 or b1],
                      gterms, step, limit)
    zero = (0,) * n
    d = denom * cache_f[zero][0] * cache_g[zero][0]
    return _poly(n, {key: _make(a, b, d) for key, (a, b) in acc.items() if a or b}, top)


# ---------------------------------------------------------------------------
# exact division and rational functions
# ---------------------------------------------------------------------------


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


def divide_exact(num: ThetaPoly, den: ThetaPoly) -> Optional[ThetaPoly]:
    """Return num/den when den divides num exactly, else None.

    The divisor must be a nonzero, grade-free, coordinate-only polynomial,
    so division runs independently on the coordinate polynomial that
    multiplies each grade and momentum monomial, lowest momentum degree
    first.  A single divisor always yields a unique remainder, and exact
    divisibility is equivalent to that remainder being zero.
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if not (den.is_theta_free and den.is_coordinate_only):
        raise UsageError("divisor must be grade-free and coordinate-only")
    n = num.n
    den_terms = sorted(((_unpack(n, k)[1], c) for k, c in den.terms.items()),
                       key=lambda item: _grlex_key(item[0]), reverse=True)
    lead_e, lead_c = den_terms[0]
    blocks: dict[tuple, dict[tuple[int, ...], GaussianRational]] = {}
    for k, c in num.terms.items():
        t, e = _unpack(n, k)
        blocks.setdefault((sum(e[n:]), e[n:], t), {})[e] = c

    out: dict[TermKey, GaussianRational] = {}
    for (_, _, t), rem in sorted(blocks.items()):
        while rem:
            e = max(rem, key=_grlex_key)
            c = rem[e]
            q_e = tuple(a - b for a, b in zip(e, lead_e))
            if min(q_e) < 0:
                return None
            q_c = c / lead_c
            out[(t, q_e)] = q_c
            for d_e, d_c in den_terms:
                k = tuple(a + b for a, b in zip(q_e, d_e))
                s = rem.get(k, ZERO) - q_c * d_c
                if s.is_zero:
                    rem.pop(k, None)
                else:
                    rem[k] = s
    return ThetaPoly(num.n, out, num.trunc)


class RationalFunction:
    """Quotient of a graded polynomial by a grade-free coordinate polynomial.

    No factorization is attempted; equality is decided by
    cross-multiplication and the only simplification performed is exact
    cancellation of the full denominator.  A denominator that stays takes
    the numerator's truncation, so products never cut the numerator short.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ThetaPoly, den: Optional[ThetaPoly] = None):
        if den is not None:
            if den.is_zero:
                raise ZeroDivisionError("zero denominator")
            if not (den.is_theta_free and den.is_coordinate_only):
                raise UsageError("denominator must be grade-free and coordinate-only")
        if den is None or num.is_zero or den == 1:
            den = ThetaPoly.one(num.n, num.trunc)
        elif (q := divide_exact(num, den)) is not None:
            num, den = q, ThetaPoly.one(num.n, num.trunc)
        else:
            den = den.with_trunc(num.trunc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def of(value: Union["RationalFunction", ThetaPoly]) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return RationalFunction(value)

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ThetaPoly.one(self.n, self.den.trunc)

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction.of(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-RationalFunction.of(other))

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction(self.num * other, self.den)
        other = RationalFunction.of(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def diff_x(self, i: int) -> "RationalFunction":
        # quotient rule; keeps the denominator squared only when needed
        dnum = self.num.diff_x(i)
        if self.is_polynomial:
            return RationalFunction(dnum, self.den)
        dden = self.den.diff_x(i)
        return RationalFunction(dnum * self.den - self.num * dden,
                                self.den * self.den)

    def theta_shift(self, k: int) -> "RationalFunction":
        return RationalFunction(self.num.theta_shift(k), self.den)

    def theta_coefficient(self, k: int) -> "RationalFunction":
        return RationalFunction(self.num.theta_coefficient(k), self.den)

    def truncated(self, order: int) -> "RationalFunction":
        return RationalFunction(self.num.truncated(order), self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, ThetaPoly)):
            other = RationalFunction.of(
                other if isinstance(other, ThetaPoly)
                else ThetaPoly.constant(self.n, other, self.num.trunc))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def text(self) -> str:
        if self.is_polynomial:
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"RationalFunction({self.text()!r})"


# ---------------------------------------------------------------------------
# Gaussian class
# ---------------------------------------------------------------------------


class GaussianFunction:
    """prefactor(x) * exp(-weight * |x|^2), the engine's integrable class.

    ``weight`` counts how many unit-width factors have been multiplied
    together, so the class is closed under products; all integrals stay
    exact multiples of (pi/weight)^(n/2).
    """

    __slots__ = ("prefactor", "weight")

    def __init__(self, prefactor: ThetaPoly, weight: int = 1):
        if weight < 1:
            raise UsageError("weight must be a positive integer")
        if not prefactor.is_coordinate_only:
            raise UsageError("Gaussian prefactor must be coordinate-only")
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GaussianFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.prefactor.is_zero

    def diff_x(self, i: int) -> "GaussianFunction":
        """d_i (P exp(-w|x|^2)) = (d_i P - 2w x_i P) exp(-w|x|^2)."""
        n = self.prefactor.n
        if not 0 <= i < n:
            raise IndexError(f"coordinate index {i} out of range for n={n}")
        return self.diff_multi(multi_index(n, i))

    def diff_multi(self, midx: tuple[int, ...]) -> "GaussianFunction":
        """The derivative with multiplicities ``midx``: one chain of Gaussian
        steps on the numerators of the prefactor."""
        p = self.prefactor
        if any(midx[p.n:]):
            raise IndexError(f"coordinate index out of range for n={p.n}")
        if p.is_zero or not any(midx):
            return self
        d, terms, _ = _derivative({(0,) * len(midx): _numerators(p)}, tuple(midx), self.weight)
        return GaussianFunction(_from_numerators(p.n, d, terms, p.trunc), self.weight)

    def conjugate(self) -> "GaussianFunction":
        return GaussianFunction(self.prefactor.conjugate(), self.weight)

    def __add__(self, other: "GaussianFunction") -> "GaussianFunction":
        if not isinstance(other, GaussianFunction):
            return NotImplemented
        if other.weight != self.weight:
            raise UsageError("cannot add Gaussian functions of different weights")
        return GaussianFunction(self.prefactor + other.prefactor, self.weight)

    def __mul__(self, other) -> "GaussianFunction":
        if isinstance(other, GaussianFunction):
            return GaussianFunction(self.prefactor * other.prefactor,
                                    self.weight + other.weight)
        return GaussianFunction(self.prefactor * other, self.weight)

    __rmul__ = __mul__

    def theta_shift(self, k: int) -> "GaussianFunction":
        return GaussianFunction(self.prefactor.theta_shift(k), self.weight)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianFunction):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.weight == other.weight and self.prefactor == other.prefactor

    def __str__(self) -> str:
        return f"({self.prefactor.text()}) * exp(-{self.weight}*r^2)"


# Rows of a density's moment table that ``gaussian_integrate`` keeps per
# weight; a row read past the cap is formed and not kept.
MOMENT_TABLE_SIZE = 4096


def _moment_product(fields: int, weight: int) -> Optional[GaussianRational]:
    """Integral over all space of prod_i x_i^e_i exp(-weight |x|^2), in
    units of (pi/weight)^(n/2), for the exponents e_i packed in the fields
    of a term key; None when an odd exponent makes it zero.

    Each axis contributes (e-1)!! / (2 weight)^(e/2)."""
    num, half = 1, 0
    for e in fields.to_bytes((fields.bit_length() + 7) // 8, "little"):
        if e & 1:
            return None
        for k in range(e - 1, 1, -2):
            num *= k
        half += e >> 1
    return _make(num, 0, (2 * weight) ** half)


class GaussianIntegral:
    """Exact value of an integral over all space of a Gaussian-class function.

    Stored per (grade, weight) as a GaussianRational multiplying the symbol
    (pi/weight)^(n/2).  Sums across different weights stay symbolic, which
    keeps everything exact.
    """

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts: Mapping[tuple[int, int], GaussianRational]):
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "parts",
            {k: c for k, c in parts.items() if not c.is_zero})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GaussianIntegral is immutable")

    @staticmethod
    def zero(n: int) -> "GaussianIntegral":
        return GaussianIntegral(n, {})

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def coefficient(self, theta_power: int, weight: int = 1) -> GaussianRational:
        return self.parts.get((theta_power, weight), ZERO)

    def theta_slice(self, theta_power: int) -> "GaussianIntegral":
        return GaussianIntegral(
            self.n, {k: c for k, c in self.parts.items() if k[0] == theta_power})

    def __add__(self, other: "GaussianIntegral") -> "GaussianIntegral":
        if self.n != other.n:
            raise DimensionError("integral dimension mismatch")
        out = dict(self.parts)
        for k, c in other.parts.items():
            out[k] = out[k] + c if k in out else c
        return GaussianIntegral(self.n, out)

    def __neg__(self) -> "GaussianIntegral":
        return GaussianIntegral(self.n, {k: -c for k, c in self.parts.items()})

    def __sub__(self, other: "GaussianIntegral") -> "GaussianIntegral":
        return self + (-other)

    def scale(self, c: Scalarish) -> "GaussianIntegral":
        c = GaussianRational.of(c)
        return GaussianIntegral(self.n, {k: v * c for k, v in self.parts.items()})

    def conjugate(self) -> "GaussianIntegral":
        return GaussianIntegral(self.n, {k: c.conjugate() for k, c in self.parts.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianIntegral):
            return NotImplemented
        return self.n == other.n and self.parts == other.parts

    def text(self) -> str:
        if self.is_zero:
            return "0/1"
        bits = []
        for (t, w), c in sorted(self.parts.items()):
            sym = f"(pi/{w})^({self.n}/2)"
            th = "" if t == 0 else (f"*th^{t}" if t > 1 else "*th")
            bits.append(f"({c})*{sym}{th}")
        return " + ".join(bits)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"GaussianIntegral({self.text()!r})"


def _density_table(mu: ThetaPoly) -> tuple[list, dict]:
    """The density's terms as (grade, exponent fields, coefficient), and the
    rows of its moment table at one weight, filled as they are read."""
    if not mu.is_coordinate_only:
        raise UsageError("density must be coordinate-only")
    shift = mu.n << 4
    return [(k >> shift, k & ((1 << shift) - 1), c) for k, c in mu.terms.items()], {}


def _moment_row(density: list, e: int, weight: int) -> list:
    """(t_s, D_t_s(e)) for each density grade t_s with a nonzero moment
    D_t_s(e) = sum mu_s M(e + e_s) over the density terms of that grade.  A
    sum that carries out of a field is never read: ``_check_fields`` raises
    on every pair whose grade reaches the result."""
    row: dict[int, GaussianRational] = {}
    for ts, es, c in density:
        m = _moment_product(e + es, weight)
        if m is not None:
            _put(row, ts, c * m)
    return list(row.items())


def gaussian_integrate(f: GaussianFunction,
                       mu: Optional[ThetaPoly] = None) -> GaussianIntegral:
    """Closed-form integral over all space of f, or of the density mu times
    f, equal to the integral of the product ``f * mu`` without forming it.

    Without a density each term of the prefactor is one moment lookup.  The
    integral is linear in f, so with one each term c th^t x^e meets one row
    of the density's moment table, kept on mu per weight:
    D_t_s(e) for each grade t_s of the density, added at grade t + t_s up
    to the lower of the two truncations."""
    p = f.prefactor
    n, weight, shift = p.n, f.weight, p.n << 4
    mask = (1 << shift) - 1
    parts: dict[tuple[int, int], GaussianRational] = {}
    if mu is None:
        for k, c in p.terms.items():
            m = _moment_product(k & mask, weight)
            if m is not None:
                _put(parts, (k >> shift, weight), c * m)
        return GaussianIntegral(n, parts)
    if mu.n != n:
        raise DimensionError(f"dimension mismatch: {n} vs {mu.n}")
    trunc = p.trunc if p.trunc < mu.trunc else mu.trunc
    density, rows = _kept(mu, ("moments", weight), lambda: _density_table(mu))
    if (reduce(or_, p.terms, 0) | reduce(or_, mu.terms, 0)) & _top_bits(n):
        _check_fields(n, p.terms, mu.terms, trunc)
    for k, c in p.terms.items():
        t, e = k >> shift, k & mask
        row = rows.get(e)
        if row is None:
            row = _moment_row(density, e, weight)
            if len(rows) < MOMENT_TABLE_SIZE:
                rows[e] = row
        for ts, m in row:
            if t + ts <= trunc:
                key = (t + ts, weight)
                m = c * m
                parts[key] = parts[key] + m if key in parts else m
    return GaussianIntegral(n, parts)


# ---------------------------------------------------------------------------
# polynomial text grammar
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"\s*(\d+|[ip]\d*|x\d+|th|[()+\-*/^])")

# Caps on parsed polynomials, checked before each literal, product,
# quotient and power is built.  Degrees and bit lengths are estimated as
# they add for monomials, so a power p^e counts e*deg(p) and e*bits(p).
# MAX_DEGREE keeps every parsed exponent far below the engine's own cap,
# MAX_EXPONENT (255, one 8-bit field of a packed term key), past which
# the arithmetic raises OverflowError instead of wrapping.
MAX_DEGREE = 8
MAX_COEFF_BITS = 256
# The parser recurses once per parenthesis level; runs of signs are a loop.
MAX_NESTING = 64


def _size(p: ThetaPoly) -> tuple[int, int]:
    """Total degree and largest numerator or denominator bit length."""
    degree = max((sum(e) for (_, e), _ in p.sorted_terms()), default=0)
    bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in p.terms.values() for q in (c.re, c.im)), default=0)
    return degree, bits


def _check_caps(what: str, degree: int, bits: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"{what} of degree {degree} exceeds the cap of {MAX_DEGREE}")
    if bits > MAX_COEFF_BITS:
        raise ValueError(f"{what} with {bits}-bit coefficients exceeds "
                         f"the cap of {MAX_COEFF_BITS} bits")


def parse_polynomial(text: str, n: int, trunc: int = DEFAULT_TRUNC,
                     allow_momenta: bool = False,
                     allow_theta: bool = False) -> ThetaPoly:
    """Parse the canonical polynomial grammar into an exact polynomial.

    Grammar: integers and rationals, variables x1..xN (and p1..pN when
    allowed), the imaginary literal i, +, -, *, ^, parentheses.  A literal,
    product, quotient or power whose degree would exceed ``MAX_DEGREE`` or
    whose coefficients would exceed ``MAX_COEFF_BITS`` bits raises
    ``ValueError`` before it is computed, and so do parentheses nested
    deeper than ``MAX_NESTING``.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"parse error at column {pos + 1}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    idx = depth = 0

    def peek() -> Optional[str]:
        return tokens[idx] if idx < len(tokens) else None

    def take() -> str:
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_expr() -> ThetaPoly:
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> ThetaPoly:
        node = parse_factor()
        while True:
            tok = peek()
            if tok == "*":
                take()
                rhs = parse_factor()
                (da, ba), (db, bb) = _size(node), _size(rhs)
                _check_caps("product", da + db, ba + bb)
                node = node * rhs
            elif tok == "/":
                take()
                d = take()
                if not d.isdigit() or int(d) == 0:
                    raise ValueError("denominator must be a positive integer")
                da, ba = _size(node)
                _check_caps("quotient", da, ba + int(d).bit_length())
                node = node.scale(Fraction(1, int(d)))
            else:
                return node

    def parse_factor() -> ThetaPoly:
        negate = False
        while peek() in ("-", "+"):
            negate ^= take() == "-"
        node = parse_base()
        if peek() == "^":
            take()
            e = take()
            if not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            k = int(e)
            degree, bits = _size(node)
            _check_caps("power", k * degree, k * bits)
            node = node ** k
        return -node if negate else node

    def parse_base() -> ThetaPoly:
        nonlocal depth
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        if tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
            take()
            node = parse_expr()
            if peek() != ")":
                raise ValueError("unbalanced parentheses")
            take()
            depth -= 1
            return node
        take()
        if tok.isdigit():
            _check_caps("literal", 0, int(tok).bit_length())
            return ThetaPoly.constant(n, int(tok), trunc)
        if tok == "i":
            return ThetaPoly.constant(n, I, trunc)
        if tok == "th":
            if not allow_theta:
                raise ValueError("the grading variable is not allowed here")
            return ThetaPoly.theta(n, 1, trunc)
        if tok.startswith("x"):
            i = int(tok[1:]) - 1
            if not 0 <= i < n:
                raise ValueError(f"variable {tok} out of range for dimension {n}")
            return ThetaPoly.coordinate(n, i, trunc)
        if tok.startswith("p") and len(tok) > 1:
            if not allow_momenta:
                raise ValueError("momentum variables are not allowed here")
            i = int(tok[1:]) - 1
            if not 0 <= i < n:
                raise ValueError(f"variable {tok} out of range for dimension {n}")
            return ThetaPoly.momentum(n, i, trunc)
        raise ValueError(f"unexpected token {tok!r}")

    if not tokens:
        raise ValueError("empty polynomial")
    out = parse_expr()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens: {' '.join(tokens[idx:])!r}")
    return out
