"""Exact arithmetic foundation.

Gaussian-rational scalars, deformation-graded multivariate polynomials,
rational functions, and Gaussian-weighted integrands with closed-form
moments.  Everything here is immutable after construction and all
operations are pure, so values can be shared freely.

Term layout: a polynomial term is keyed by ``(grade, exponents)``, where
``exponents`` holds the n coordinate exponents followed by the n momentum
exponents.  Only this module reads or builds those keys; other modules go
through ``ThetaPoly.monomial``, ``momentum_blocks`` and the arithmetic.
The ``ThetaPoly`` and ``GaussianIntegral`` constructors are the only
places that drop zero terms (and grades above the truncation); the
arithmetic only accumulates.

The deformation parameter is a formal grading variable (written ``th`` in
the text form); it is never assigned a numeric value.  Series are kept
truncated at a fixed order and products silently drop terms above it.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Mapping, Optional, Union

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
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(value: Scalarish) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

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
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __str__(self) -> str:
        # canonical text form: "p/q" or "p/q+r/s*i", explicit sign, reduced
        re_s = f"{self.re.numerator}/{self.re.denominator}"
        if self.im == 0:
            return re_s
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
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


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

TermKey = tuple[int, tuple[int, ...]]


def multi_index(n: int, *axes: int) -> tuple[int, ...]:
    """Exponent vector of length n with one unit per listed axis; repeated
    axes add up."""
    out = [0] * n
    for a in axes:
        out[a] += 1
    return tuple(out)


class ThetaPoly:
    """Multivariate polynomial over GaussianRational, graded by powers of
    the deformation parameter.

    Keys are ``(grade, exponents)``; ``exponents`` holds the n coordinate
    exponents followed by the n momentum exponents.  Momentum exponents
    stay zero for coordinate-only values; ``has_momenta`` records whether
    the value conceptually lives on phase space (used to validate bracket
    arguments).
    """

    __slots__ = ("n", "has_momenta", "trunc", "terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[TermKey, GaussianRational],
        trunc: int = DEFAULT_TRUNC,
        has_momenta: bool = False,
    ):
        if n <= 0:
            raise DimensionError("need at least one coordinate")
        clean: dict[TermKey, GaussianRational] = {}
        for (t, e), c in terms.items():
            if t > trunc or c.is_zero:
                continue
            if len(e) != 2 * n:
                raise DimensionError("exponent vector length mismatch")
            if not has_momenta and any(e[n:]):
                raise UsageError("momentum exponent in a coordinate-only polynomial")
            clean[(t, tuple(e))] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "has_momenta", has_momenta)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ThetaPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(n: int, c: Scalarish = 1, x: tuple[int, ...] = (),
                 p: tuple[int, ...] = (), grade: int = 0,
                 trunc: int = DEFAULT_TRUNC,
                 has_momenta: bool = False) -> "ThetaPoly":
        """c * th^grade * x^x * p^p; an empty exponent vector is all zeros."""
        exps = (tuple(x) or (0,) * n) + (tuple(p) or (0,) * n)
        return ThetaPoly(n, {(grade, exps): GaussianRational.of(c)}, trunc, has_momenta)

    @staticmethod
    def zero(n: int, trunc: int = DEFAULT_TRUNC, has_momenta: bool = False) -> "ThetaPoly":
        return ThetaPoly(n, {}, trunc, has_momenta)

    @staticmethod
    def constant(n: int, c: Scalarish, trunc: int = DEFAULT_TRUNC,
                 has_momenta: bool = False) -> "ThetaPoly":
        return ThetaPoly.monomial(n, c, trunc=trunc, has_momenta=has_momenta)

    @staticmethod
    def one(n: int, trunc: int = DEFAULT_TRUNC, has_momenta: bool = False) -> "ThetaPoly":
        return ThetaPoly.monomial(n, trunc=trunc, has_momenta=has_momenta)

    @staticmethod
    def coordinate(n: int, i: int, trunc: int = DEFAULT_TRUNC,
                   has_momenta: bool = False) -> "ThetaPoly":
        if not 0 <= i < n:
            raise IndexError(f"coordinate index {i} out of range for n={n}")
        return ThetaPoly.monomial(n, x=multi_index(n, i), trunc=trunc,
                                  has_momenta=has_momenta)

    @staticmethod
    def momentum(n: int, i: int, trunc: int = DEFAULT_TRUNC) -> "ThetaPoly":
        if not 0 <= i < n:
            raise IndexError(f"momentum index {i} out of range for n={n}")
        return ThetaPoly.monomial(n, p=multi_index(n, i), trunc=trunc, has_momenta=True)

    @staticmethod
    def theta(n: int, power: int = 1, trunc: int = DEFAULT_TRUNC,
              has_momenta: bool = False) -> "ThetaPoly":
        return ThetaPoly.monomial(n, grade=power, trunc=trunc, has_momenta=has_momenta)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_theta_free(self) -> bool:
        return all(t == 0 for (t, _) in self.terms)

    @property
    def is_coordinate_only(self) -> bool:
        n = self.n
        return not any(any(e[n:]) for (_, e) in self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0, (0,) * (2 * self.n)), ZERO)

    def momentum_blocks(self) -> dict[tuple[int, ...], "ThetaPoly"]:
        """Map each momentum exponent vector to the coordinate polynomial
        (grades kept) that multiplies it."""
        n = self.n
        blocks: dict[tuple[int, ...], dict[TermKey, GaussianRational]] = {}
        for (t, e), c in self.terms.items():
            blocks.setdefault(e[n:], {})[(t, e[:n] + (0,) * n)] = c
        return {me: ThetaPoly(n, terms, self.trunc) for me, terms in blocks.items()}

    def with_momenta(self) -> "ThetaPoly":
        if self.has_momenta:
            return self
        return ThetaPoly(self.n, self.terms, self.trunc, True)

    def with_trunc(self, trunc: int) -> "ThetaPoly":
        return ThetaPoly(self.n, self.terms, trunc, self.has_momenta)

    def _merge_ctx(self, other: "ThetaPoly") -> tuple[int, bool]:
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch: {self.n} vs {other.n}")
        return min(self.trunc, other.trunc), self.has_momenta or other.has_momenta

    # -- ring arithmetic -----------------------------------------------------

    def __add__(self, other: Union["ThetaPoly", Scalarish]) -> "ThetaPoly":
        if not isinstance(other, ThetaPoly):
            other = ThetaPoly.constant(self.n, other, self.trunc, self.has_momenta)
        trunc, hm = self._merge_ctx(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return ThetaPoly(self.n, out, trunc, hm)

    __radd__ = __add__

    def __neg__(self) -> "ThetaPoly":
        return ThetaPoly(self.n, {k: -c for k, c in self.terms.items()},
                         self.trunc, self.has_momenta)

    def __sub__(self, other: Union["ThetaPoly", Scalarish]) -> "ThetaPoly":
        if not isinstance(other, ThetaPoly):
            other = ThetaPoly.constant(self.n, other, self.trunc, self.has_momenta)
        return self + (-other)

    def __rsub__(self, other: Scalarish) -> "ThetaPoly":
        return (-self) + other

    def scale(self, c: Scalarish) -> "ThetaPoly":
        c = GaussianRational.of(c)
        if c.is_zero:
            return ThetaPoly.zero(self.n, self.trunc, self.has_momenta)
        return ThetaPoly(self.n, {k: v * c for k, v in self.terms.items()},
                         self.trunc, self.has_momenta)

    def __mul__(self, other: Union["ThetaPoly", Scalarish]) -> "ThetaPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        trunc, hm = self._merge_ctx(other)
        out: dict[TermKey, GaussianRational] = {}
        for (t1, e1), c1 in self.terms.items():
            for (t2, e2), c2 in other.terms.items():
                t = t1 + t2
                if t > trunc:
                    continue
                k = (t, tuple(a + b for a, b in zip(e1, e2)))
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return ThetaPoly(self.n, out, trunc, hm)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ThetaPoly":
        if k < 0:
            raise UsageError("negative polynomial power")
        out = ThetaPoly.one(self.n, self.trunc, self.has_momenta)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ThetaPoly.constant(self.n, other, self.trunc, self.has_momenta)
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def _diff(self, slot: int) -> "ThetaPoly":
        # lowering one exponent never merges two monomials
        return ThetaPoly(
            self.n,
            {(t, e[:slot] + (e[slot] - 1,) + e[slot + 1:]): c * e[slot]
             for (t, e), c in self.terms.items() if e[slot]},
            self.trunc, self.has_momenta)

    def diff_x(self, i: int) -> "ThetaPoly":
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate index {i} out of range for n={self.n}")
        return self._diff(i)

    def diff_p(self, i: int) -> "ThetaPoly":
        if not self.has_momenta:
            raise UsageError("momentum derivative of a coordinate-only polynomial")
        if not 0 <= i < self.n:
            raise IndexError(f"momentum index {i} out of range for n={self.n}")
        return self._diff(self.n + i)

    def diff_multi(self, midx: tuple[int, ...]) -> "ThetaPoly":
        """Apply the coordinate derivative with multiplicities ``midx``."""
        out = self
        for i, k in enumerate(midx):
            for _ in range(k):
                out = out.diff_x(i)
                if out.is_zero:
                    return out
        return out

    def conjugate(self) -> "ThetaPoly":
        # the grading variable is treated as real
        return ThetaPoly(self.n, {k: c.conjugate() for k, c in self.terms.items()},
                         self.trunc, self.has_momenta)

    def theta_coefficient(self, k: int) -> "ThetaPoly":
        """Coordinate/momentum polynomial multiplying the k-th grade."""
        out = {(0, e): c for (t, e), c in self.terms.items() if t == k}
        return ThetaPoly(self.n, out, self.trunc, self.has_momenta)

    def theta_shift(self, k: int) -> "ThetaPoly":
        out = {(t + k, e): c for (t, e), c in self.terms.items()}
        return ThetaPoly(self.n, out, self.trunc, self.has_momenta)

    def truncated(self, order: int) -> "ThetaPoly":
        out = {k: c for k, c in self.terms.items() if k[0] <= order}
        return ThetaPoly(self.n, out, self.trunc, self.has_momenta)

    def max_theta_power(self) -> int:
        return max((t for (t, _) in self.terms), default=0)

    def substitute(self, images: Mapping[tuple[str, int], "ThetaPoly"]) -> "ThetaPoly":
        """Exact composition; keys are ('x', i) or ('p', i).

        Unmapped variables keep their identity image.  The grading variable
        passes through unchanged.
        """
        n = self.n
        trunc = self.trunc
        hm = self.has_momenta or any(img.has_momenta for img in images.values())
        for img in images.values():
            if img.n != n:
                raise DimensionError("substitution image dimension mismatch")
            trunc = min(trunc, img.trunc)
        cache: dict[tuple[int, int], ThetaPoly] = {}

        def image_power(slot: int, e: int) -> ThetaPoly:
            got = cache.get((slot, e))
            if got is not None:
                return got
            base = images.get(("x", slot) if slot < n else ("p", slot - n))
            if base is None:
                base = ThetaPoly(n, {(0, multi_index(2 * n, slot)): ONE}, trunc, hm)
            val = base.with_trunc(trunc) ** e
            cache[(slot, e)] = val
            return val

        out = ThetaPoly.zero(n, trunc, hm)
        for (t, exps), c in self.terms.items():
            term = ThetaPoly(n, {(t, (0,) * (2 * n)): c}, trunc, hm)
            for slot, e in enumerate(exps):
                if e:
                    term = term * image_power(slot, e)
            out = out + term
        return out

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, GaussianRational]]:
        # (grade, total degree, coordinate exponents, momentum exponents)
        return sorted(self.terms.items(),
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


# ---------------------------------------------------------------------------
# exact division and rational functions
# ---------------------------------------------------------------------------


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


def divide_exact(num: ThetaPoly, den: ThetaPoly) -> Optional[ThetaPoly]:
    """Return num/den when den divides num exactly, else None.

    The divisor must be a nonzero, grade-free, coordinate-only polynomial.
    Division runs independently on every grade of the numerator; the
    momentum exponents are just more variables under grlex.  A single
    divisor always yields a unique remainder, and exact divisibility is
    equivalent to that remainder being zero.
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if not (den.is_theta_free and den.is_coordinate_only):
        raise UsageError("divisor must be grade-free and coordinate-only")
    den_terms = sorted(((e, c) for (_, e), c in den.terms.items()),
                       key=lambda item: _grlex_key(item[0]), reverse=True)
    lead_e, lead_c = den_terms[0]

    blocks: dict[int, dict[tuple[int, ...], GaussianRational]] = {}
    for (t, e), c in num.terms.items():
        blocks.setdefault(t, {})[e] = c

    out: dict[TermKey, GaussianRational] = {}
    for t, rem in blocks.items():
        while rem:
            e = max(rem, key=_grlex_key)
            c = rem[e]
            if any(a < b for a, b in zip(e, lead_e)):
                return None
            q_e = tuple(a - b for a, b in zip(e, lead_e))
            q_c = c / lead_c
            out[(t, q_e)] = q_c
            for d_e, d_c in den_terms:
                k = tuple(a + b for a, b in zip(q_e, d_e))
                s = rem.get(k, ZERO) - q_c * d_c
                if s.is_zero:
                    rem.pop(k, None)
                else:
                    rem[k] = s
    return ThetaPoly(num.n, out, num.trunc, num.has_momenta)


class RationalFunction:
    """Quotient of a graded polynomial by a grade-free coordinate polynomial.

    No factorization is attempted; equality is decided by
    cross-multiplication and the only simplification performed is exact
    cancellation of the full denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ThetaPoly, den: Optional[ThetaPoly] = None):
        if den is None:
            den = ThetaPoly.one(num.n, num.trunc)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not (den.is_theta_free and den.is_coordinate_only):
            raise UsageError("denominator must be grade-free and coordinate-only")
        if num.is_zero or den == 1:
            den = ThetaPoly.one(num.n, num.trunc)
        else:
            q = divide_exact(num, den)
            if q is not None:
                num, den = q, ThetaPoly.one(num.n, num.trunc)
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

    def as_poly(self) -> ThetaPoly:
        if not self.is_polynomial:
            raise UsageError("rational function is not polynomial")
        return self.num

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

    def __truediv__(self, other) -> "RationalFunction":
        other = RationalFunction.of(other)
        if not (other.num.is_theta_free and other.num.is_coordinate_only):
            raise UsageError("can only divide by coordinate-only quantities")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def diff_x(self, i: int) -> "RationalFunction":
        # quotient rule; keeps the denominator squared only when needed
        dnum = self.num.diff_x(i)
        if self.is_polynomial:
            return RationalFunction(dnum, self.den)
        dden = self.den.diff_x(i)
        return RationalFunction(dnum * self.den - self.num * dden,
                                self.den * self.den)

    def conjugate(self) -> "RationalFunction":
        return RationalFunction(self.num.conjugate(), self.den.conjugate())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, ThetaPoly)):
            other = RationalFunction.of(
                other if isinstance(other, ThetaPoly)
                else ThetaPoly.constant(self.n, other, self.num.trunc))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RationalFunction is unhashable")

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
    def n(self) -> int:
        return self.prefactor.n

    @property
    def is_zero(self) -> bool:
        return self.prefactor.is_zero

    def diff_x(self, i: int) -> "GaussianFunction":
        x_i = ThetaPoly.coordinate(self.n, i, self.prefactor.trunc)
        pre = self.prefactor.diff_x(i) - self.prefactor * x_i * (2 * self.weight)
        return GaussianFunction(pre, self.weight)

    def diff_multi(self, midx: tuple[int, ...]) -> "GaussianFunction":
        out = self
        for i, k in enumerate(midx):
            for _ in range(k):
                out = out.diff_x(i)
        return out

    def conjugate(self) -> "GaussianFunction":
        return GaussianFunction(self.prefactor.conjugate(), self.weight)

    def __add__(self, other: "GaussianFunction") -> "GaussianFunction":
        if not isinstance(other, GaussianFunction):
            return NotImplemented
        if other.weight != self.weight:
            raise UsageError("cannot add Gaussian functions of different weights")
        return GaussianFunction(self.prefactor + other.prefactor, self.weight)

    def __neg__(self) -> "GaussianFunction":
        return GaussianFunction(-self.prefactor, self.weight)

    def __sub__(self, other: "GaussianFunction") -> "GaussianFunction":
        return self + (-other)

    def __mul__(self, other) -> "GaussianFunction":
        if isinstance(other, GaussianFunction):
            return GaussianFunction(self.prefactor * other.prefactor,
                                    self.weight + other.weight)
        return GaussianFunction(self.prefactor * other, self.weight)

    __rmul__ = __mul__

    def scale(self, c: Scalarish) -> "GaussianFunction":
        return GaussianFunction(self.prefactor.scale(c), self.weight)

    def theta_shift(self, k: int) -> "GaussianFunction":
        return GaussianFunction(self.prefactor.theta_shift(k), self.weight)

    def theta_coefficient(self, k: int) -> "GaussianFunction":
        return GaussianFunction(self.prefactor.theta_coefficient(k), self.weight)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianFunction):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.weight == other.weight and self.prefactor == other.prefactor

    def __str__(self) -> str:
        return f"({self.prefactor.text()}) * exp(-{self.weight}*r^2)"


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _moment(e: int, weight: int) -> Fraction:
    """integral over the line of x^e exp(-weight x^2), divided by sqrt(pi/weight)."""
    if e % 2 == 1:
        return Fraction(0)
    k = e // 2
    return Fraction(_double_factorial(2 * k - 1), (2 * weight) ** k)


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

    def to_json(self) -> list:
        return [[t, w, str(c)] for (t, w), c in sorted(self.parts.items())]

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"GaussianIntegral({self.text()!r})"


def gaussian_integrate(f: GaussianFunction) -> GaussianIntegral:
    """Closed-form integral over all space, via one-dimensional moments."""
    n = f.n
    parts: dict[tuple[int, int], GaussianRational] = {}
    for (t, e), c in f.prefactor.terms.items():
        m = Fraction(1)
        for k in e[:n]:
            m *= _moment(k, f.weight)
            if m == 0:
                break
        if m == 0:
            continue
        key = (t, f.weight)
        c = c * m
        parts[key] = parts[key] + c if key in parts else c
    return GaussianIntegral(n, parts)


# ---------------------------------------------------------------------------
# polynomial text grammar
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"\s*(\d+|[ip]\d*|x\d+|th|[()+\-*/^])")

# Caps on parsed polynomials, checked before each literal, product,
# quotient and power is built.  Degrees and bit lengths are estimated as
# they add for monomials, so a power p^e counts e*deg(p) and e*bits(p).
MAX_DEGREE = 8
MAX_COEFF_BITS = 256
# The parser recurses once per parenthesis level; runs of signs are a loop.
MAX_NESTING = 64


def _size(p: ThetaPoly) -> tuple[int, int]:
    """Total degree and largest numerator or denominator bit length."""
    degree = max((sum(e) for _, e in p.terms), default=0)
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
            return ThetaPoly.constant(n, int(tok), trunc, allow_momenta)
        if tok == "i":
            return ThetaPoly.constant(n, I, trunc, allow_momenta)
        if tok == "th":
            if not allow_theta:
                raise ValueError("the grading variable is not allowed here")
            return ThetaPoly.theta(n, 1, trunc, allow_momenta)
        if tok.startswith("x"):
            i = int(tok[1:]) - 1
            if not 0 <= i < n:
                raise ValueError(f"variable {tok} out of range for dimension {n}")
            return ThetaPoly.coordinate(n, i, trunc, allow_momenta)
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
