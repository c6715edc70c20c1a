"""Polydifferential operator algebra.

Operators are kept in normal form: rational-function coefficients stand to
the left of coordinate derivatives.  Composition expands coefficients by
the Leibniz rule exactly; everything is graded by the deformation
parameter and truncated at a fixed order.

The coordinate operators xhat^i are built here, by ``build_xhat``, and
nowhere else: ``StarProduct`` keeps the ones it derives its rules from as
``product.xhat``.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Optional, Sequence, Union

from .exact_algebra import (
    DimensionError,
    Fraction,
    GaussianFunction,
    GaussianRational,
    I,
    RationalFunction,
    ThetaPoly,
    UsageError,
    multi_index,
)
from .poisson import GammaTower, PoissonBivector, levi_civita

MultiIndex = tuple[int, ...]
Coefficient = Union[RationalFunction, ThetaPoly, GaussianRational, int, Fraction]


def _binomial_tuples(alpha: MultiIndex):
    """All gamma <= alpha with the product of per-axis binomials."""
    for gamma in itertools.product(*(range(a + 1) for a in alpha)):
        yield gamma, math.prod(map(math.comb, alpha, gamma))


class DiffOperator:
    """Grade-graded sum of coefficient * derivative-multi-index terms."""

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, MultiIndex], RationalFunction],
                 trunc: int):
        # canonical form: all grading lives in the term key, coefficients
        # are grade-free rational functions
        clean: dict[tuple[int, MultiIndex], RationalFunction] = {}
        for (t, midx), coeff in terms.items():
            if t > trunc or coeff.is_zero:
                continue
            if len(midx) != n:
                raise DimensionError("derivative multi-index length mismatch")
            midx = tuple(midx)
            for s in range(coeff.num.max_theta_power() + 1):
                num_s = coeff.num.theta_coefficient(s)
                if num_s.is_zero or t + s > trunc:
                    continue
                part = RationalFunction(num_s, coeff.den)
                key = (t + s, midx)
                clean[key] = clean[key] + part if key in clean else part
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms",
                           {k: c for k, c in clean.items() if not c.is_zero})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("DiffOperator is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int, trunc: int = 3) -> "DiffOperator":
        return DiffOperator(n, {}, trunc)

    @staticmethod
    def identity(n: int, trunc: int = 3) -> "DiffOperator":
        one = RationalFunction(ThetaPoly.one(n, trunc))
        return DiffOperator(n, {(0, (0,) * n): one}, trunc)

    @staticmethod
    def multiplication(f: Union[ThetaPoly, RationalFunction],
                       trunc: Optional[int] = None) -> "DiffOperator":
        f = RationalFunction.of(f)
        if trunc is None:
            trunc = f.num.trunc
        return DiffOperator(f.n, {(0, (0,) * f.n): f}, trunc)

    @staticmethod
    def derivative(n: int, i: int, trunc: int = 3) -> "DiffOperator":
        one = RationalFunction(ThetaPoly.one(n, trunc))
        return DiffOperator(n, {(0, multi_index(n, i)): one}, trunc)

    @staticmethod
    def term(coeff: Coefficient, midx: MultiIndex, theta_power: int = 0,
             n: Optional[int] = None, trunc: int = 3) -> "DiffOperator":
        if isinstance(coeff, (int, Fraction, GaussianRational)):
            if n is None:
                n = len(midx)
            coeff = RationalFunction(ThetaPoly.constant(n, coeff, trunc))
        else:
            coeff = RationalFunction.of(coeff)
            n = coeff.n
        return DiffOperator(n, {(theta_power, tuple(midx)): coeff}, trunc)

    # -- linear structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.n != other.n:
            raise DimensionError("operator dimension mismatch")
        trunc = min(self.trunc, other.trunc)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return DiffOperator(self.n, out, trunc)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(self.n, {k: -c for k, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, c: Coefficient) -> "DiffOperator":
        return DiffOperator(self.n, {k: v * c for k, v in self.terms.items()},
                            self.trunc)

    def theta_shift(self, k: int) -> "DiffOperator":
        return DiffOperator(self.n,
                            {(t + k, m): c for (t, m), c in self.terms.items()
                             if t + k <= self.trunc},
                            self.trunc)

    def theta_slice(self, k: int) -> "DiffOperator":
        return DiffOperator(self.n,
                            {(0, m): c for (t, m), c in self.terms.items() if t == k},
                            self.trunc)

    def truncated(self, order: int) -> "DiffOperator":
        return DiffOperator(self.n,
                            {k: c for k, c in self.terms.items() if k[0] <= order},
                            self.trunc)

    def max_theta_power(self) -> int:
        return max((t for (t, _) in self.terms), default=0)

    # -- action and composition ----------------------------------------------

    def apply_poly(self, f: ThetaPoly) -> RationalFunction:
        if f.n != self.n:
            raise DimensionError("operand dimension mismatch")
        out = RationalFunction(ThetaPoly.zero(self.n, min(self.trunc, f.trunc),
                                              f.has_momenta))
        for (t, midx), coeff in self.terms.items():
            d = f.diff_multi(midx)
            if d.is_zero:
                continue
            out = out + coeff * RationalFunction.of(d.theta_shift(t))
        return out

    def apply(self, f):
        """Exact application; Gaussian-class operands need polynomial
        coefficients (rational prefactors do not stay in the class)."""
        if isinstance(f, ThetaPoly):
            return self.apply_poly(f)
        if isinstance(f, GaussianFunction):
            out = GaussianFunction(ThetaPoly.zero(self.n, f.prefactor.trunc), f.weight)
            for (t, midx), coeff in self.terms.items():
                if not coeff.is_polynomial:
                    raise UsageError("rational coefficients cannot act on the Gaussian class")
                d = f.diff_multi(midx)
                out = out + d * coeff.num.theta_shift(t)
            return out
        raise UsageError(f"cannot apply operator to {type(f).__name__}")

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self after other, with the Leibniz expansion of coefficients."""
        if self.n != other.n:
            raise DimensionError("operator dimension mismatch")
        trunc = min(self.trunc, other.trunc)
        out: dict[tuple[int, MultiIndex], RationalFunction] = {}
        for (t1, alpha), c1 in self.terms.items():
            for (t2, beta), c2 in other.terms.items():
                t = t1 + t2
                if t > trunc:
                    continue
                for gamma, binom in _binomial_tuples(alpha):
                    # derivative surplus alpha-gamma hits the coefficient c2
                    dcoeff = c2
                    skip = False
                    for axis, (a, g) in enumerate(zip(alpha, gamma)):
                        for _ in range(a - g):
                            dcoeff = dcoeff.diff_x(axis)
                            if dcoeff.is_zero:
                                skip = True
                                break
                        if skip:
                            break
                    if skip or dcoeff.is_zero:
                        continue
                    midx = tuple(g + b for g, b in zip(gamma, beta))
                    val = c1 * dcoeff * binom
                    key = (t, midx)
                    out[key] = out[key] + val if key in out else val
        return DiffOperator(self.n, out, trunc)

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        return self.compose(other) - other.compose(self)

    # -- comparisons and serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self.terms) | set(other.terms)
        zero = RationalFunction(ThetaPoly.zero(self.n, self.trunc))
        for k in keys:
            if self.terms.get(k, zero) != other.terms.get(k, zero):
                return False
        return True

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], sum(kv[0][1]), kv[0][1]))

    def text(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for (t, midx), coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(midx):
                if e == 1:
                    factors.append(f"d{i+1}")
                elif e > 1:
                    factors.append(f"d{i+1}^{e}")
            d = "".join("*" + f for f in factors)
            th = "" if t == 0 else (f"*th^{t}" if t > 1 else "*th")
            bits.append(f"({coeff.text()}){th}{d}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [[t, list(midx), coeff.text()] for (t, midx), coeff in self.sorted_terms()]

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"DiffOperator({self.text()!r})"


# ---------------------------------------------------------------------------
# coordinate and momentum operators
# ---------------------------------------------------------------------------


class Gamma1Tensor:
    """Third-grade quantum correction tensor, symmetric in the trailing pair."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Mapping[tuple[int, tuple[int, int]], ThetaPoly]):
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "components",
            {(i, tuple(sorted(jk))): p for (i, jk), p in components.items()
             if not p.is_zero})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Gamma1Tensor is immutable")

    def component(self, i: int, j: int, k: int) -> ThetaPoly:
        return self.components.get((i, tuple(sorted((j, k)))),
                                   ThetaPoly.zero(self.n))

    @property
    def is_zero(self) -> bool:
        return not self.components

    @staticmethod
    def zero(n: int) -> "Gamma1Tensor":
        return Gamma1Tensor(n, {})


def build_gamma1(w: PoissonBivector, trunc: int = 3) -> Gamma1Tensor:
    """Closed-form correction that restores the coordinate subalgebra at
    third grade.

    The antisymmetrized combination of this tensor cancels the obstruction
    left by the bare quantized coordinate operators; both the obstruction
    and the solution carry second derivatives of the bivector, so the
    tensor vanishes for constant and linear bivectors.  The coefficient is
    fixed by the exact closure requirement (see the acceptance suite).
    """
    n = w.n
    w = w.with_trunc(trunc)
    comps: dict[tuple[int, tuple[int, int]], ThetaPoly] = {}
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                # sum_{a,m} W^{amk} d_a d_m w^{ij} + (j <-> k)
                total = ThetaPoly.zero(n, trunc)
                for a, m in itertools.product(range(n), repeat=2):
                    for p, q in ((j, k), (k, j)):
                        dd = w.entry(i, p).diff_x(a).diff_x(m)
                        if not dd.is_zero:
                            total = total + w.contraction(a, m, q) * dd
                val = total.scale(Fraction(1, 48))
                if not val.is_zero:
                    comps[(i, (j, k))] = val
    return Gamma1Tensor(n, comps)


def build_xhat(w: PoissonBivector, gamma: GammaTower,
               gamma1: Optional[Gamma1Tensor] = None,
               trunc: int = 3) -> list[DiffOperator]:
    """Coordinate operators xhat^i = x^i + sum_k th^k X^{ik}: the
    normal-ordered quantization of the momentum expansion, each canonical
    momentum becoming -i d, so the term p^e of P^i_k becomes (-i)^k d^e.
    At grade 3 the correction tensor adds -i G1^{ijk} d_j d_k; when none is
    given it is built from the bivector, and only if grade 3 is reached.
    """
    n = w.n
    if gamma.max_order < min(trunc, 3):
        raise UsageError("tower must be built through the requested order")
    top = min(trunc, gamma.max_order)
    if top >= 3 and gamma1 is None:
        gamma1 = build_gamma1(w, trunc)
    ops = []
    for i in range(n):
        terms = {(0, (0,) * n): RationalFunction(ThetaPoly.coordinate(n, i, trunc))}
        for k in range(1, top + 1):
            factor = GaussianRational(0, -1) ** k
            for midx, coeff in gamma.momenta[k][i].momentum_blocks().items():
                terms[k, midx] = RationalFunction(coeff.scale(factor).with_trunc(trunc))
        if top >= 3:
            for (lead, (j, l)), g1 in gamma1.components.items():
                if lead == i:
                    factor = GaussianRational(0, -2 if j != l else -1)
                    terms[3, multi_index(n, j, l)] = RationalFunction(
                        g1.scale(factor).with_trunc(trunc))
        ops.append(DiffOperator(n, terms, trunc))
    return ops


def build_phat(mu: ThetaPoly, trunc: int = 3) -> list[DiffOperator]:
    """Momentum operators for a polynomial density: -i d_i - (i/2) d_i(log mu),
    the symmetric choice that keeps them self-adjoint for the induced
    inner product and mutually commuting."""
    if mu.is_zero:
        raise UsageError("measure density must be nonzero")
    if not (mu.is_theta_free and mu.is_coordinate_only):
        raise UsageError("measure density must be a grade-free coordinate polynomial")
    n = mu.n
    minus_i = GaussianRational(0, -1)
    ops = []
    for i in range(n):
        op = DiffOperator.derivative(n, i, trunc).scale(minus_i)
        grad = RationalFunction(mu.diff_x(i).with_trunc(trunc), mu.with_trunc(trunc))
        if not grad.is_zero:
            op = op + DiffOperator.multiplication(
                grad * Fraction(1, 2), trunc).scale(minus_i)
        ops.append(op)
    return ops


def subalgebra_defect(xhat: Sequence[DiffOperator], w: PoissonBivector,
                      star, order: int = 3) -> dict[tuple[int, int], DiffOperator]:
    """Commutator of the coordinate operators minus i th times left star
    multiplication by the bivector entry, truncated at the given grade."""
    n = w.n
    out: dict[tuple[int, int], DiffOperator] = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm = xhat[i].commutator(xhat[j])
            target = star.left_multiplication_operator(w.entry(i, j)) \
                .theta_shift(1).scale(I)
            out[(i, j)] = (comm - target).truncated(order)
    return out


def conjugate_by_measure_power(op: DiffOperator, mu: ThetaPoly,
                               s: Fraction) -> DiffOperator:
    """Exact similarity transform mu^s . op . mu^(-s).

    Multiplication operators are untouched; each bare derivative maps to
    d_i - s (d_i mu)/mu.  The transformed first-order generators commute,
    so the expansion order is immaterial.
    """
    n = op.n
    trunc = op.trunc
    gens = []
    for i in range(n):
        g = DiffOperator.derivative(n, i, trunc)
        grad = RationalFunction(mu.diff_x(i).with_trunc(trunc), mu.with_trunc(trunc))
        if not grad.is_zero:
            g = g - DiffOperator.multiplication(grad * GaussianRational(s), trunc)
        gens.append(g)
    out = DiffOperator.zero(n, trunc)
    for (t, midx), coeff in op.terms.items():
        piece = DiffOperator.multiplication(coeff, trunc).theta_shift(t)
        for i, e in enumerate(midx):
            for _ in range(e):
                piece = piece.compose(gens[i])
        out = out + piece
    return out


def plane_wave_symbol(op: DiffOperator) -> ThetaPoly:
    """Eigenvalue polynomial of a constant-coefficient operator on plane
    waves exp(-i k.x): each derivative contributes -i k."""
    n = op.n
    out = ThetaPoly.zero(n, op.trunc, True)
    minus_i = GaussianRational(0, -1)
    for (t, midx), coeff in op.terms.items():
        if not coeff.is_polynomial:
            raise UsageError("plane-wave symbol needs polynomial coefficients")
        poly = coeff.num
        if poly != poly.constant_term():
            raise UsageError("plane-wave symbol needs constant coefficients")
        factor = ThetaPoly.constant(n, minus_i ** sum(midx), op.trunc, True)
        for i, e in enumerate(midx):
            factor = factor * ThetaPoly.momentum(n, i, op.trunc) ** e
        out = out + poly.with_momenta() * factor.theta_shift(t)
    return out


def angular_momentum(n: int, i: int, trunc: int = 3) -> DiffOperator:
    """-i eps^{iab} x_a d_b, the rotation generator."""
    if n != 3:
        raise UsageError("rotation generators are three-dimensional")
    minus_i = GaussianRational(0, -1)
    op = DiffOperator.zero(n, trunc)
    for a in range(3):
        for b in range(3):
            e = levi_civita(i, a, b)
            if not e:
                continue
            coeff = RationalFunction(
                ThetaPoly.coordinate(n, a, trunc).scale(minus_i * e))
            op = op + DiffOperator.term(coeff, multi_index(3, b), trunc=trunc)
    return op


def l_squared(trunc: int = 3) -> DiffOperator:
    out = DiffOperator.zero(3, trunc)
    for i in range(3):
        li = angular_momentum(3, i, trunc)
        out = out + li.compose(li)
    return out


def laplacian(n: int, trunc: int = 3) -> DiffOperator:
    out = DiffOperator.zero(n, trunc)
    for i in range(n):
        d = DiffOperator.derivative(n, i, trunc)
        out = out + d.compose(d)
    return out
