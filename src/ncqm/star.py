"""Star product through third grade, the trace machinery, and the
gauge-corrected product that restores the trace condition.

The product is stored slice by slice as bilinear rules: pairs of
derivative multi-indices with coordinate-polynomial coefficients.  No rule
is written out by hand.  The product is f * g = f(xhat) g, so the rules
follow from the coordinate operators xhat^i = x^i + sum_j th^j X^{ij}: the
quantized Darboux tower, with P^i_3 - Q^i quantized at grade 3.
``StarProduct`` builds the tower and the bare operators (Q = 0), derives
slices 1-2 from them, which read xhat through grade 2 only, solves Q from
the closure at grade 3 with ``build_gamma1``, rebuilds xhat, and only then
derives slice 3; it keeps the tower, Q and xhat, the same at every order,
as ``product.gamma``, ``product.gamma1`` (``None`` below trunc 3) and
``product.xhat``.
Associativity, (x^i * f) * g = x^i * (f * g), fixes each grade from the
lower ones; ``StarProduct._derive_slice`` reads the rules off it.
``StarProduct.star`` hands the rule table to ``exact_algebra.star_sum``,
which evaluates sum th^k c d^a f d^b g on integer numerators and keeps
each coefficient's numerator form in the product's ``_forms``, keyed by
the coefficient object.

The trace condition Tr(f * g) = Tr(fg) is an operator identity:
``trace_operator`` integrates the grade-k rules by parts into the operator
D_k with Tr(f * g) - Tr(fg) = int f D(g).  The gauge-corrected product is
the same rule table with one grade-2 rule delta, (e_i, e_k) -> -2 b_ik,
added by ``StarProduct.with_gauge``.  That delta is the gauge transform
through grade 2 only, so ``with_gauge`` refuses a nonzero gauge on a
product built through grade 3.  ``gauge_b`` reads b off the product it
corrects, as the matrix that cancels the second-order part of D_2.  The
checks take the product they check: pass ``product.with_gauge(gauge)``
for the corrected one.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .exact_algebra import (
    Fraction,
    GaussianFunction,
    GaussianIntegral,
    ThetaPoly,
    UsageError,
    divide_exact,
    gaussian_integrate,
    multi_index,
    star_sum,
)
from .operators import DiffOperator, build_gamma1, build_xhat
from .poisson import PoissonBivector, build_gamma

MultiIndex = tuple[int, ...]
Rule = dict[tuple[MultiIndex, MultiIndex], ThetaPoly]


def _plus(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(operator.add, a, b))


def _minus(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(operator.sub, a, b))


def _times(p: ThetaPoly, k: int) -> ThetaPoly:
    return p if k == 1 else p.scale(k)


def _binomial_tuples(alpha: MultiIndex):
    """All gamma <= alpha with the product of per-axis binomials."""
    for gamma in itertools.product(*(range(a + 1) for a in alpha)):
        yield gamma, math.prod(map(math.comb, alpha, gamma))


def _add(table: dict, key, coeff: ThetaPoly):
    """Add coeff at key, dropping the key when the sum vanishes."""
    s = table[key] + coeff if key in table else coeff
    if s.is_zero:
        table.pop(key, None)
    else:
        table[key] = s


class StarProduct:
    """Associative deformation of pointwise multiplication for one
    polynomial Poisson bivector, evaluated exactly slice by slice; keeps
    the Darboux tower ``gamma``, the grade-3 correction ``gamma1`` and the
    coordinate operators ``xhat``."""

    def __init__(self, w: PoissonBivector, order: int = 3,
                 trunc: Optional[int] = None):
        if order > 3:
            raise UsageError("the product is only constructed through grade 3")
        if order < 0:
            raise UsageError("order must be nonnegative")
        if trunc is None:
            trunc = max(order, 3)
        self.n = w.n
        self.w = w.with_trunc(trunc)
        self.order = order
        self.trunc = trunc
        top = min(trunc, 3)
        # build_gamma raises NotPoissonError, at order 0 too
        self.gamma = build_gamma(w, top, trunc)
        self.gamma1: Optional[list[ThetaPoly]] = None
        self.xhat = build_xhat(self.gamma, trunc=trunc)
        zero_idx = (0,) * self.n
        self.slices: list[Rule] = [{(zero_idx, zero_idx): ThetaPoly.one(self.n, trunc)}]
        # the bare operators give slices 1-2; slice 2 fixes Q, which slice 3 reads
        if top == 3:
            while len(self.slices) < 3:
                self.slices.append(self._derive_slice(len(self.slices)))
            self.gamma1 = build_gamma1(self.w, self.xhat, self.slices[2], trunc)
            self.xhat = build_xhat(self.gamma, self.gamma1, trunc)
        while len(self.slices) <= order:
            self.slices.append(self._derive_slice(len(self.slices)))
        del self.slices[order + 1:]
        # each rule coefficient's numerator form, keyed by the coefficient (see star_sum)
        self._forms: dict = {}

    # -- slice construction ---------------------------------------------------

    def _derive_slice(self, k: int) -> Rule:
        """The grade-k rules, read off associativity with the coordinate
        operators x^i * f = x^i f + sum_j th^j X^{ij} f.  The grade-k part
        of (x^i * f) * g = x^i * (f * g) is

            sum_ab a_i c_ab d^(a-e_i) f d^b g
                = sum_{j=1..k} X^{ij}(B_{k-j}(f, g)) - B_{k-j}(X^{ij} f, g),

        with B_m the grade-m rules; each rule (a, b) is read off the first
        axis i with a_i > 0."""
        rule: Rule = {}
        for i in range(self.n):
            rhs: Rule = {}

            # rhs keeps only the keys a - e_i of the rules whose first axis
            # is i, so no derivative of f may fall on an axis before i
            def tail(idx: MultiIndex) -> MultiIndex:
                return (0,) * i + idx[i:]

            blocks = self.xhat[i].symbol.num.momentum_blocks()
            for j, (m, block) in itertools.product(range(1, k + 1), blocks.items()):
                x = block.theta_coefficient(j)
                if x.is_zero:
                    continue
                for (a, b), c in self.slices[k - j].items():
                    if not any(a[:i]):
                        # X^{ij}(c d^a f d^b g): d^m splits over c, f and g
                        for fg, binom in _binomial_tuples(m):
                            dc = c.diff_multi(_minus(m, fg))
                            if dc.is_zero:
                                continue
                            xdc = x * dc
                            for df, binom_f in _binomial_tuples(tail(fg)):
                                _add(rhs, (_plus(a, df), _plus(b, _minus(fg, df))),
                                     _times(xdc, binom * binom_f))
                    if not any(m[:i]):
                        # -c d^a(X^{ij} f) d^b g: d^a splits over x and f
                        for df, binom in _binomial_tuples(tail(a)):
                            dx = x.diff_multi(_minus(a, df))
                            if not dx.is_zero:
                                _add(rhs, (_plus(df, m), b), _times(c * dx, -binom))
            for (alpha, beta), coeff in rhs.items():
                a = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                rule[(a, beta)] = coeff if a[i] == 1 else coeff.scale(Fraction(1, a[i]))
        return rule

    def with_gauge(self, gauge: "GaugeCorrection") -> "StarProduct":
        """The gauge-corrected product: a shallow copy whose grade-2 slice
        also holds the rules (e_i, e_k) -> -2 b_ik.  That rule delta is the
        gauge transform through grade 2 only; at grade 3 it would leave the
        product non-associative, so a product built through grade 3 takes
        only a zero gauge."""
        out = copy.copy(self)
        if self.order < 2:
            return out
        if self.order > 2 and not gauge.is_zero:
            raise UsageError("a nonzero gauge corrects a product built through grade 2 only")
        out.slices = list(self.slices)
        out.slices[2] = rule = dict(self.slices[2])
        n = self.n
        for (i, k), b_ik in gauge.entries.items():
            _add(rule, (multi_index(n, i), multi_index(n, k)), b_ik.scale(-2))
        return out

    # -- evaluation -------------------------------------------------------------

    def star(self, f, g):
        """Exact product of two polynomials or Gaussian-class functions,
        through the built grade.

        ``star_sum`` adds every rule's term into one accumulator on integer
        numerators; for Gaussian-class operands the sum is of prefactors,
        all of weight wf + wg, wrapped once at the end."""
        out = star_sum(self.n, self.slices[:self.order + 1], f, g, self._forms)
        if out is None:
            return _zero_like(f, g, self.n, self.trunc)
        if isinstance(f, GaussianFunction) or isinstance(g, GaussianFunction):
            return GaussianFunction(out, _weight(f) + _weight(g))
        return out

    def commutator(self, f, g):
        return self.star(f, g) - self.star(g, f)

    def left_multiplication_operator(self, f: ThetaPoly) -> DiffOperator:
        """The operator g -> f * g."""
        blocks: dict[MultiIndex, ThetaPoly] = {}  # d^b -> its coefficient
        for k in range(self.order + 1):
            for (a, b), coeff in self.slices[k].items():
                df = f.diff_multi(a)
                if not df.is_zero:
                    piece = (coeff * df).with_trunc(self.trunc).theta_shift(k)
                    blocks[b] = blocks[b] + piece if b in blocks else piece
        return DiffOperator(sum(
            (c * ThetaPoly.monomial(self.n, p=b, trunc=self.trunc) for b, c in blocks.items()),
            ThetaPoly.zero(self.n, self.trunc)))

    def star_prime(self, f, g, gauge: "GaugeCorrection"):
        """Product conjugated by the grade-2 gauge operator."""
        return self.with_gauge(gauge).star(f, g)


def _weight(f) -> int:
    return f.weight if isinstance(f, GaussianFunction) else 0


def _zero_like(f, g, n: int, trunc: int):
    if isinstance(f, GaussianFunction) or isinstance(g, GaussianFunction):
        return GaussianFunction(ThetaPoly.zero(n, trunc), max(_weight(f) + _weight(g), 1))
    return ThetaPoly.zero(n, trunc)


def assoc_defect(f, g, h, product: StarProduct):
    """(f*g)*h - f*(g*h), exact; zero through the built grade certifies
    associativity on the inputs."""
    return product.star(product.star(f, g), h) - product.star(f, product.star(g, h))


# ---------------------------------------------------------------------------
# trace machinery
# ---------------------------------------------------------------------------


class MeasureError(ValueError):
    """Density fails the divergence condition; carries the defect vector."""

    def __init__(self, defect: list[ThetaPoly]):
        super().__init__("density does not satisfy the divergence condition")
        self.defect = defect


class GaugeError(ValueError):
    """The gauge matrix fails to be polynomial for this density."""

    def __init__(self, i: int, k: int, numerator: ThetaPoly, mu: ThetaPoly):
        super().__init__(
            f"gauge entry ({i+1},{k+1}) is not polynomial: "
            f"({numerator.text()}) / ({mu.text()})")
        self.indices = (i, k)
        self.numerator = numerator
        self.mu = mu


def measure_defect(mu: ThetaPoly, w: PoissonBivector) -> list[ThetaPoly]:
    """Divergence of the weighted bivector, one entry per column; the zero
    vector characterizes valid trace densities."""
    n = w.n
    out = []
    for j in range(n):
        total = ThetaPoly.zero(n, mu.trunc)
        for i in range(n):
            total = total + (mu * w.entry(i, j).with_trunc(mu.trunc)).diff_x(i)
        out.append(total)
    return out


class GaugeCorrection:
    """Symmetric polynomial matrix entering the grade-2 gauge operator."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict[tuple[int, int], ThetaPoly]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries",
                           {k: p for k, p in entries.items() if not p.is_zero})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GaugeCorrection is immutable")

    def entry(self, i: int, k: int) -> ThetaPoly:
        return self.entries.get((i, k), ThetaPoly.zero(self.n))

    @property
    def is_symmetric(self) -> bool:
        return all(self.entry(i, k) == self.entry(k, i)
                   for i in range(self.n) for k in range(self.n))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def to_json(self) -> dict:
        return {f"({i+1},{k+1})": p.text() for (i, k), p in sorted(self.entries.items())}


def trace_operator(product: StarProduct, mu: ThetaPoly, k: int) -> dict[MultiIndex, ThetaPoly]:
    """The grade-k part D_k of Tr(f * g) - Tr(fg) = int f D(g), as
    {derivative multi-index: coefficient}.

    Integrating the grade-k rules by parts gives
    D_k = sum_ab (-1)^|a| d^a o mu c_ab d^b, and each d^a o h splits as
    sum_g C(a, g) (d^(a-g) h) d^g.  The product satisfies the trace
    condition at grade k for every pair exactly when D_k is empty."""
    out: dict[MultiIndex, ThetaPoly] = {}
    for (a, b), c in product.slices[k].items():
        h = mu * c
        sign = -1 if sum(a) % 2 else 1
        for g, binom in _binomial_tuples(a):
            dh = h.diff_multi(_minus(a, g))
            if not dh.is_zero:
                _add(out, _plus(g, b), _times(dh, sign * binom))
    return out


def gauge_b(mu: ThetaPoly, product: StarProduct) -> GaugeCorrection:
    """Gauge matrix restoring the trace condition at grade 2, read off the
    product it corrects.

    The gauge rules (e_i, e_k) -> -2 b_ik add 2 d_i o mu b_ik d_k to D_2,
    whose second-order part is 2 mu b_ii on d_i^2 and 4 mu b_ik on d_i d_k,
    i < k.  So mu b_ik is -1/2 (diagonal) or -1/4 (off-diagonal) times the
    d_i d_k coefficient of the uncorrected D_2.  Requires a valid density
    and a product built through grade 2.  The quotient by the density must
    be exact; a rational remainder signals a density outside the
    polynomial scope and is reported as an error.
    """
    if product.order < 2:
        raise UsageError("the gauge is read off a product built through grade 2")
    defect = measure_defect(mu, product.w)
    if any(not d.is_zero for d in defect):
        raise MeasureError(defect)
    n = product.n
    d2 = trace_operator(product, mu, 2)
    entries: dict[tuple[int, int], ThetaPoly] = {}
    for i in range(n):
        for k in range(n):
            coeff = d2.get(multi_index(n, i, k))
            if coeff is None:
                continue
            total = coeff.scale(Fraction(-1, 2 if i == k else 4))
            quotient = divide_exact(total, mu)
            if quotient is None:
                raise GaugeError(i, k, total, mu)
            entries[(i, k)] = quotient
    return GaugeCorrection(n, entries)


def trace(f: GaussianFunction, mu: ThetaPoly) -> GaussianIntegral:
    """Exact integral of the density times a Gaussian-class function."""
    return gaussian_integrate(f * mu)


@dataclass(frozen=True)
class CyclicityReport:
    """Exact per-grade defects of the trace functional on one pair.

    ``antisymmetric`` is Tr(f#g - g#f); ``trace_condition`` is
    Tr(f#g) - Tr(fg), the stronger defining condition (# is the product
    that was checked).
    """

    antisymmetric: GaussianIntegral
    trace_condition: GaussianIntegral

    def zero_through(self, order: int) -> bool:
        return all(self.antisymmetric.theta_slice(k).is_zero
                   and self.trace_condition.theta_slice(k).is_zero
                   for k in range(order + 1))


def cyclicity_defect(f: GaussianFunction, g: GaussianFunction,
                     product: StarProduct, mu: ThetaPoly) -> CyclicityReport:
    """The trace defects of ``product`` on one pair, through its built
    grade; pass ``product.with_gauge(gauge)`` to check the corrected
    product."""
    tr_fg = trace(product.star(f, g), mu)
    anti = tr_fg - trace(product.star(g, f), mu)
    cond = tr_fg - trace(f * g, mu)
    return CyclicityReport(anti, cond)


def hermiticity_defect(fpoly: ThetaPoly, phi: GaussianFunction,
                       psi: GaussianFunction, product: StarProduct,
                       mu: ThetaPoly) -> GaussianIntegral:
    """Tr(conj(f # phi) # psi) - Tr(conj(phi) # (f # psi)) per grade, with #
    the given product (pass product.with_gauge(gauge)); measures
    self-adjointness of left multiplication by a real polynomial."""
    left = product.star(product.star(fpoly, phi).conjugate(), psi)
    right = product.star(phi.conjugate(), product.star(fpoly, psi))
    return trace(left, mu) - trace(right, mu)
