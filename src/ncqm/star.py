"""Star product through third grade, the trace machinery, and the
gauge-corrected product that restores the trace condition.

The product is stored slice by slice as bilinear rules: pairs of
derivative multi-indices with coordinate-polynomial coefficients built
from the bivector.  Grade two is closed-form.  At grade three the sectors
that see only one derivative of a factor are generated from the Darboux
expansion tensors (the coordinate operators act by left multiplication,
which pins those sectors completely); the remaining sector coefficients
are exact rationals fixed by associativity.

The gauge-corrected product is the same rule table with one grade-2 rule
delta, (e_i, e_k) -> -2 b_ik, added by ``StarProduct.with_gauge``; its
grade-3 slice is the uncorrected one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from .exact_algebra import (
    Fraction,
    GaussianFunction,
    GaussianIntegral,
    GaussianRational,
    I,
    RationalFunction,
    ThetaPoly,
    UsageError,
    divide_exact,
    gaussian_integrate,
    multi_index,
)
from .operators import DiffOperator, build_gamma1, quantized_terms
from .poisson import (
    NotPoissonError,
    PoissonBivector,
    build_gamma,
    jacobi_defect,
)

MultiIndex = tuple[int, ...]
Rule = dict[tuple[MultiIndex, MultiIndex], ThetaPoly]

# Exact structure constants of the product.  The grade-2 pair is forced by
# associativity given the grade-1 normalization; the grade-3 pair below is
# fixed the same way (see scripts/calibrate_star.py, which re-derives all
# of them from scratch).
COEFF_G2_DOUBLE = GaussianRational(Fraction(-1, 8))     # w w  d d f  d d g
COEFF_G2_GRAD = GaussianRational(Fraction(-1, 12))      # w dw (ddf dg - df ddg)
COEFF_G3_CHAIN = GaussianRational(0, Fraction(-1, 48))  # w dw dw (ddf ddg - ddg ddf)
COEFF_G3_MIXED = GaussianRational(0, Fraction(-1, 24))  # w dw w (ddf dddg - ddg dddf)
COEFF_G3_TRIPLE = GaussianRational(0, Fraction(-1, 48))  # w w w dddf dddg


class StarProduct:
    """Associative deformation of pointwise multiplication for one
    polynomial Poisson bivector, evaluated exactly slice by slice."""

    def __init__(self, w: PoissonBivector, order: int = 3,
                 trunc: Optional[int] = None,
                 coeff_overrides: Optional[dict] = None):
        if order > 3:
            raise UsageError("the product is only constructed through grade 3")
        if order < 0:
            raise UsageError("order must be nonnegative")
        defect = jacobi_defect(w)
        if not defect.is_zero:
            raise NotPoissonError(defect)
        if trunc is None:
            trunc = max(order, 3)
        self.n = w.n
        self.w = w.with_trunc(trunc)
        self.order = order
        self.trunc = trunc
        coeffs = {
            "g2_double": COEFF_G2_DOUBLE,
            "g2_grad": COEFF_G2_GRAD,
            "g3_chain": COEFF_G3_CHAIN,
            "g3_mixed": COEFF_G3_MIXED,
            "g3_triple": COEFF_G3_TRIPLE,
        }
        if coeff_overrides:
            coeffs.update(coeff_overrides)
        self._coeffs = coeffs
        self.slices: list[Rule] = [self._build_slice(k) for k in range(order + 1)]

    # -- slice construction ---------------------------------------------------

    def _add(self, rule: Rule, a: MultiIndex, b: MultiIndex, coeff: ThetaPoly):
        key = (a, b)
        s = rule[key] + coeff if key in rule else coeff
        if s.is_zero:
            rule.pop(key, None)
        else:
            rule[key] = s

    def _build_slice(self, k: int) -> Rule:
        n = self.n
        w = self.w
        rule: Rule = {}
        zero_idx = (0,) * n
        if k == 0:
            self._add(rule, zero_idx, zero_idx, ThetaPoly.one(n, self.trunc))
            return rule
        if k == 1:
            for i in range(n):
                for j in range(n):
                    self._add(rule, multi_index(n, i), multi_index(n, j),
                              w.entry(i, j).scale(I * Fraction(1, 2)))
            return rule
        if k == 2:
            ca = self._coeffs["g2_double"]
            cb = self._coeffs["g2_grad"]
            for i in range(n):
                for j in range(n):
                    for kk in range(n):
                        for l in range(n):
                            wij = w.entry(i, j)
                            if wij.is_zero:
                                continue
                            prod = wij * w.entry(kk, l)
                            self._add(rule, multi_index(n, i, kk),
                                      multi_index(n, j, l), prod.scale(ca))
                            grad = wij * w.entry(kk, l).diff_x(j)
                            if grad.is_zero:
                                continue
                            self._add(rule, multi_index(n, i, kk),
                                      multi_index(n, l), grad.scale(cb))
                            self._add(rule, multi_index(n, kk),
                                      multi_index(n, i, l), grad.scale(-cb))
            return rule
        # grade 3
        gamma = build_gamma(w, 3, self.trunc)
        gamma1 = build_gamma1(w, self.trunc)
        c_chain = self._coeffs["g3_chain"]
        c_mixed = self._coeffs["g3_mixed"]
        c_triple = self._coeffs["g3_triple"]
        for i in range(n):
            for j in range(n):
                for kk in range(n):
                    for l in range(n):
                        for m in range(n):
                            for nn in range(n):
                                # w^{jl} w^{im} w^{kn} dddf dddg
                                prod = (w.entry(j, l) * w.entry(i, m)
                                        * w.entry(kk, nn))
                                if not prod.is_zero:
                                    self._add(rule, multi_index(n, i, j, kk),
                                              multi_index(n, l, nn, m),
                                              prod.scale(c_triple))
                                # w^{nk} d_n w^{jm} d_m w^{il} (ddf ddg - swap)
                                chain = (w.entry(nn, kk)
                                         * w.entry(j, m).diff_x(nn)
                                         * w.entry(i, l).diff_x(m))
                                if not chain.is_zero:
                                    fa = multi_index(n, i, j)
                                    gb = multi_index(n, kk, l)
                                    self._add(rule, fa, gb, chain.scale(c_chain))
                                    self._add(rule, gb, fa, chain.scale(-c_chain))
                                # w^{ln} d_l w^{jm} w^{ik} (ddf dddg - swap)
                                mixed = (w.entry(l, nn)
                                         * w.entry(j, m).diff_x(l)
                                         * w.entry(i, kk))
                                if not mixed.is_zero:
                                    fa = multi_index(n, i, j)
                                    gb = multi_index(n, kk, nn, m)
                                    self._add(rule, fa, gb, mixed.scale(c_mixed))
                                    self._add(rule, gb, fa, mixed.scale(-c_mixed))
        # single-derivative sectors, pinned by the coordinate operators:
        # x^a * g must reproduce the quantized expansion at this grade.
        for lead in range(n):
            a_idx = multi_index(n, lead)
            for midx, val in quantized_terms(gamma, gamma1, lead, 3):
                self._add(rule, a_idx, midx, val)
                self._add(rule, midx, a_idx, -val)
        return rule

    def with_gauge(self, gauge: "GaugeCorrection") -> "StarProduct":
        """The gauge-corrected product: a shallow copy whose grade-2 slice
        also holds the rules (e_i, e_k) -> -2 b_ik.  The grade-3 slice is
        shared with the uncorrected product."""
        out = copy.copy(self)
        if self.order < 2:
            return out
        out.slices = list(self.slices)
        out.slices[2] = rule = dict(self.slices[2])
        n = self.n
        for (i, k), b_ik in gauge.entries.items():
            self._add(rule, multi_index(n, i), multi_index(n, k), b_ik.scale(-2))
        return out

    # -- evaluation -------------------------------------------------------------

    def star(self, f, g, order: Optional[int] = None):
        """Exact product of two polynomials or Gaussian-class functions."""
        if order is None:
            order = self.order
        if order > self.order:
            raise UsageError(f"product built only through grade {self.order}")
        out = None
        d_cache_f: dict[MultiIndex, object] = {}
        d_cache_g: dict[MultiIndex, object] = {}
        for k in range(order + 1):
            for (a, b), coeff in self.slices[k].items():
                df = self._diff_cached(f, a, d_cache_f)
                if df.is_zero:
                    continue
                dg = self._diff_cached(g, b, d_cache_g)
                if dg.is_zero:
                    continue
                piece = (coeff * df * dg).theta_shift(k)
                out = piece if out is None else out + piece
        if out is None:
            out = _zero_like(f, g, self.n, self.trunc)
        return out

    @staticmethod
    def _diff_cached(f, midx: MultiIndex, cache: dict):
        got = cache.get(midx)
        if got is None:
            got = f.diff_multi(midx)
            cache[midx] = got
        return got

    def commutator(self, f, g, order: Optional[int] = None):
        return self.star(f, g, order) - self.star(g, f, order)

    def left_multiplication_operator(self, f: ThetaPoly,
                                     order: Optional[int] = None) -> DiffOperator:
        """The operator g -> f * g."""
        if order is None:
            order = self.order
        op = DiffOperator.zero(self.n, self.trunc)
        for k in range(order + 1):
            for (a, b), coeff in self.slices[k].items():
                df = f.diff_multi(a)
                if df.is_zero:
                    continue
                coeff_f = RationalFunction((coeff * df).with_trunc(self.trunc))
                op = op + DiffOperator.term(coeff_f, b, theta_power=k, trunc=self.trunc)
        return op

    def star_prime(self, f, g, gauge: "GaugeCorrection",
                   order: Optional[int] = None):
        """Product conjugated by the grade-2 gauge operator."""
        return self.with_gauge(gauge).star(f, g, order)


def _zero_like(f, g, n: int, trunc: int):
    if isinstance(f, GaussianFunction) or isinstance(g, GaussianFunction):
        wf = f.weight if isinstance(f, GaussianFunction) else 0
        wg = g.weight if isinstance(g, GaussianFunction) else 0
        return GaussianFunction(ThetaPoly.zero(n, trunc), max(wf + wg, 1))
    return ThetaPoly.zero(n, trunc, f.has_momenta or g.has_momenta)


def star(f, g, w: PoissonBivector, order: int = 3):
    return StarProduct(w, order).star(f, g)


def star_prime(f, g, w: PoissonBivector, mu: ThetaPoly, order: int = 3):
    """Gauge-corrected product for a validated density, one-shot form."""
    product = StarProduct(w, order)
    return product.star_prime(f, g, gauge_b(mu, w), order)


def assoc_defect(f, g, h, product: StarProduct, order: Optional[int] = None):
    """(f*g)*h - f*(g*h), exact; zero through the built grade certifies
    associativity on the inputs."""
    left = product.star(product.star(f, g, order), h, order)
    right = product.star(f, product.star(g, h, order), order)
    return left - right


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


@dataclass(frozen=True)
class Measure:
    """Validated trace density; the divergence defect is recorded at
    construction."""

    mu: ThetaPoly
    defect: tuple[ThetaPoly, ...]

    @staticmethod
    def build(mu: ThetaPoly, w: PoissonBivector) -> "Measure":
        if mu.is_zero:
            raise UsageError("density must be nonzero")
        if not (mu.is_theta_free and mu.is_coordinate_only):
            raise UsageError("density must be a grade-free coordinate polynomial")
        return Measure(mu, tuple(measure_defect(mu, w)))

    @property
    def is_valid(self) -> bool:
        return all(d.is_zero for d in self.defect)


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


# Coefficient of the gauge matrix in terms of the divergence of the
# once-differentiated bivector; fixed by the exact trace condition for the
# calibrated product (scripts/calibrate_star.py re-derives it).
GAUGE_COEFF = Fraction(1, 48)


def gauge_b(mu: ThetaPoly, w: PoissonBivector) -> GaugeCorrection:
    """Gauge matrix restoring the trace condition at grade 2.

    Requires a valid density.  The quotient by the density must be exact;
    a rational remainder signals a density outside the polynomial scope
    and is reported as an error.
    """
    defect = measure_defect(mu, w)
    if any(not d.is_zero for d in defect):
        raise MeasureError(defect)
    n = w.n
    entries: dict[tuple[int, int], ThetaPoly] = {}
    for i in range(n):
        for k in range(n):
            total = ThetaPoly.zero(n, mu.trunc)
            for l in range(n):
                inner = ThetaPoly.zero(n, mu.trunc)
                for j in range(n):
                    inner = inner + w.entry(i, j) * w.entry(l, k).diff_x(j)
                total = total + (mu * inner).diff_x(l)
            total = total.scale(GAUGE_COEFF)
            if total.is_zero:
                continue
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
    Tr(f#g) - Tr(fg), the stronger defining condition (# is the corrected
    or uncorrected product as requested).
    """

    antisymmetric: GaussianIntegral
    trace_condition: GaussianIntegral
    corrected: bool

    def zero_through(self, order: int) -> bool:
        return all(self.antisymmetric.theta_slice(k).is_zero
                   and self.trace_condition.theta_slice(k).is_zero
                   for k in range(order + 1))


def cyclicity_defect(f: GaussianFunction, g: GaussianFunction,
                     product: StarProduct, mu: ThetaPoly,
                     corrected: bool,
                     gauge: Optional[GaugeCorrection] = None,
                     order: int = 2) -> CyclicityReport:
    if corrected:
        if gauge is None:
            gauge = gauge_b(mu, product.w)
        fg = product.star_prime(f, g, gauge, order)
        gf = product.star_prime(g, f, gauge, order)
    else:
        fg = product.star(f, g, order)
        gf = product.star(g, f, order)
    tr_fg = trace(fg, mu)
    anti = tr_fg - trace(gf, mu)
    cond = tr_fg - trace(f * g, mu)
    return CyclicityReport(anti, cond, corrected)


def trace_condition_oracle(f: GaussianFunction, g: GaussianFunction,
                           w: PoissonBivector, mu: ThetaPoly) -> GaussianIntegral:
    """Independent moment-oracle evaluation of the grade-2 obstruction to
    the trace condition for the uncorrected product.

    Evaluates the two reduced integrals directly from the bivector (no
    star-product code is involved): with W^{ikl} the once-differentiated
    bivector contraction, the obstruction is
    (1/12) Int d_k f d_i(mu W^{ikl}) d_l g + (1/24) Int mu W^{ikl} d_k f d_i d_l g.
    """
    n = w.n
    total = GaussianIntegral.zero(n)
    for i in range(n):
        for k in range(n):
            for l in range(n):
                W = ThetaPoly.zero(n, mu.trunc)
                for j in range(n):
                    W = W + w.entry(i, j) * w.entry(k, l).diff_x(j)
                if W.is_zero:
                    continue
                df = f.diff_x(k)
                first = (mu * W).diff_x(i)
                if not first.is_zero:
                    integrand = df * g.diff_x(l) * first
                    total = total + gaussian_integrate(integrand).scale(Fraction(1, 12))
                ddg = g.diff_x(i).diff_x(l)
                integrand2 = df * ddg * (mu * W)
                total = total + gaussian_integrate(integrand2).scale(Fraction(1, 24))
    return GaussianIntegral(n, {(2, wgt): c for (t, wgt), c in total.parts.items()
                                if t == 0})


def hermiticity_defect(fpoly: ThetaPoly, phi: GaussianFunction,
                       psi: GaussianFunction, product: StarProduct,
                       mu: ThetaPoly, gauge: Optional[GaugeCorrection] = None,
                       order: int = 2) -> GaussianIntegral:
    """Tr(conj(f # phi) # psi) - Tr(conj(phi) # (f # psi)) per grade,
    where # is the gauge-corrected product; measures self-adjointness of
    left multiplication by a real polynomial."""
    if gauge is None:
        gauge = gauge_b(mu, product.w)
    left = product.star_prime(
        product.star_prime(fpoly, phi, gauge, order).conjugate(), psi, gauge, order)
    right = product.star_prime(
        phi.conjugate(), product.star_prime(fpoly, psi, gauge, order), gauge, order)
    return trace(left, mu) - trace(right, mu)
