"""Star product through third grade, the trace machinery, and the
gauge-corrected product that restores the trace condition.

The product is stored slice by slice as bilinear rules: pairs of
derivative multi-indices with coordinate-polynomial coefficients.  No rule
is written out by hand.  The product is f * g = f(xhat) g, so the rules
follow from the coordinate operators xhat^i = x^i + sum_k th^k X_k^i.
Associativity, (x^i * f) * g = x^i * (f * g), fixes slice k from X_1..X_k
and the lower slices; ``StarProduct._derive_slice`` reads the rules off
it.  ``StarProduct`` starts from xhat = x and, for k = 1..3, solves X_k
from slice k - 1 with ``build_gamma1``, then derives slice k; it keeps
xhat, the same at every order, as ``product.xhat``.
``StarProduct.star`` hands the rule table to ``exact_algebra.star_sum``,
which evaluates sum th^k c d^a f d^b g on integer numerators.  It
compiles each table once, on its first call, into the product's
``_forms``, keyed by the identities of the slice dicts.  Each operand
keeps its own derivatives, per Gaussian weight, for as long as it lives.

The trace Tr(f) = int mu f is a moment functional: linear in f, so for a
fixed density mu it is a table of moments, and ``trace`` integrates each
term of f against the density's moments with
``gaussian_integrate(f, mu)`` instead of forming the product f mu.  Like
an operand's derivatives, the rows are kept on the density, per weight.
The trace condition Tr(f * g) = Tr(fg) is an operator identity:
``trace_operator`` integrates the grade-k rules by parts into the operator
D_k with Tr(f * g) - Tr(fg) = int f D(g).  The gauge-corrected product
B^-1(Bf * Bg), B = 1 + th^2 sum b_ik d_i d_k, takes the same path at any
built grade: ``StarProduct.with_gauge`` conjugates xhat by B and derives
the slices from it; at grade 2 this adds the rules (e_i, e_k) -> -2 b_ik.
``gauge_b`` reads b off the product it corrects, as the matrix that
cancels the second-order part of D_2: the dict {(i, k): b_ik} of its
nonzero entries, symmetric in (i, k).  The checks take the product they
check: pass ``product.with_gauge(gauge)`` for the corrected one.
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
from .operators import DiffOperator, _leibniz, build_gamma1, left_multiplication_symbol
from .poisson import NotPoissonError, PoissonBivector, jacobi_defect

MultiIndex = tuple[int, ...]
Rule = dict[tuple[MultiIndex, MultiIndex], ThetaPoly]
Gauge = dict[tuple[int, int], ThetaPoly]  # (i, k) -> b_ik, nonzero entries only

MAX_GRADE = 3  # the highest grade the product is built through


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
    the coordinate operators ``xhat`` it is derived from."""

    def __init__(self, w: PoissonBivector, order: int = 3,
                 trunc: Optional[int] = None):
        if order > MAX_GRADE:
            raise UsageError(f"the product is only constructed through grade {MAX_GRADE}")
        if order < 0:
            raise UsageError("order must be nonnegative")
        if trunc is None:
            trunc = max(order, 3)
        self.n = w.n
        self.w = w.with_trunc(trunc)
        self.order = order
        self.trunc = trunc
        top = min(trunc, MAX_GRADE)
        defect = jacobi_defect(w)  # the closure solve needs a Poisson bivector
        if defect:
            raise NotPoissonError(defect)
        zero_idx = (0,) * self.n
        self.slices: list[Rule] = [{(zero_idx, zero_idx): ThetaPoly.one(self.n, trunc)}]
        self.xhat = [DiffOperator(ThetaPoly.coordinate(self.n, i, trunc)) for i in range(self.n)]
        # grade k of xhat reads slice k - 1, so slices below top are built for it
        for k in range(1, max(top, order) + 1):
            if k <= top:
                xk = build_gamma1(self.w, self.xhat, self.slices[k - 1], k, trunc)
                self.xhat = [DiffOperator(op.num + x.theta_shift(k))
                             for op, x in zip(self.xhat, xk)]
            if k < top or k <= order:
                self.slices.append(self._derive_slice(k))
        del self.slices[order + 1:]
        # the compiled rule tables, keyed by the slice dicts (see star_sum)
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

            blocks = self.xhat[i].num.momentum_blocks()
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

    def with_gauge(self, gauge: Gauge) -> "StarProduct":
        """The gauge-corrected product f *' g = B^-1(Bf * Bg), with
        B = 1 + th^2 sum b_ik d_i d_k, derived like the product itself: B
        kills x^i and 1, so the copy's ``xhat`` is B^-1 xhat B, and its
        coordinate bracket is B^-1 of the product's.  With step =
        -th^2 Delta_b, B^-1 is the series sum_m step^m, composed by
        ``_leibniz`` until the truncation ends it.  B has no grade-0 or
        grade-1 part, so the copy's xhat equals xhat through grade 1 and
        the copy shares slices 0 and 1; it derives slices 2 and up."""
        n, trunc = self.n, self.trunc
        one = ThetaPoly.one(n, trunc)
        step = sum((ThetaPoly.monomial(n, -1, p=multi_index(n, i, k), grade=2, trunc=trunc) * b
                    for (i, k), b in gauge.items()), ThetaPoly.zero(n, trunc))
        out = copy.copy(self)
        out.xhat, out.slices, out._forms = [], self.slices[:2], {}
        for op in self.xhat:
            term = total = _leibniz(op.num, one - step, one, 0)[0]
            while not (term := _leibniz(step, term, one, 0)[0]).is_zero:
                total = total + term
            out.xhat.append(DiffOperator(total))
        for k in range(2, self.order + 1):
            out.slices.append(out._derive_slice(k))
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
        return DiffOperator(left_multiplication_symbol(self.slices[:self.order + 1], f,
                                                       self.trunc))

    def star_prime(self, f, g, gauge: Gauge):
        """The gauge-corrected product B^-1(Bf * Bg) (see ``with_gauge``)."""
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


def gauge_b(mu: ThetaPoly, product: StarProduct) -> Gauge:
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
    entries: Gauge = {}
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
    return entries


def trace(f: GaussianFunction, mu: ThetaPoly) -> GaussianIntegral:
    """Exact integral of the density times a Gaussian-class function."""
    return gaussian_integrate(f, mu)


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
                     product: StarProduct, mu: ThetaPoly,
                     pointwise: Optional[GaussianIntegral] = None) -> CyclicityReport:
    """The trace defects of ``product`` on one pair, through its built
    grade; pass ``product.with_gauge(gauge)`` to check the corrected
    product.  ``pointwise`` is Tr(fg) when the caller has it already, so a
    pair checked under two products integrates fg once."""
    tr_fg = trace(product.star(f, g), mu)
    anti = tr_fg - trace(product.star(g, f), mu)
    if pointwise is None:
        pointwise = trace(f * g, mu)
    return CyclicityReport(anti, tr_fg - pointwise)
