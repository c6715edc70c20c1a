"""Polydifferential operator algebra.

Operators are kept in normal form: rational-function coefficients stand to
the left of coordinate derivatives.  Composition expands coefficients by
the Leibniz rule exactly; everything is graded by the deformation
parameter and truncated at a fixed order.

The coordinate operators xhat^i are built here, by ``build_xhat``, and
nowhere else: ``StarProduct`` keeps the ones it derives its rules from as
``product.xhat``.  They quantize momentum polynomials: the Darboux tower
P^i_m, and at grade 3 P^i_3 - Q^i with the correction Q^i of
``build_gamma1`` stored in the same form.
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
        out = RationalFunction(ThetaPoly.zero(self.n, min(self.trunc, f.trunc)))
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


def build_gamma1(w: PoissonBivector, trunc: int = 3) -> list[ThetaPoly]:
    """The grade-3 correction as one momentum polynomial per coordinate,

        Q^i = (1/24) sum_{j,k,a,m} W^{amk} d_a d_m w^{ij} p_j p_k,

    stored like the tower orders; ``build_xhat`` quantizes P^i_3 - Q^i.
    It cancels the grade-3 obstruction left by the bare quantized tower;
    both carry second derivatives of the bivector, so Q vanishes for
    constant and linear bivectors.  The coefficient is fixed by the exact
    closure requirement (see the acceptance suite).
    """
    n = w.n
    w = w.with_trunc(trunc)
    zero = ThetaPoly.zero(n, trunc)
    ps = [ThetaPoly.momentum(n, k, trunc) for k in range(n)]
    wp: dict[tuple[int, int], ThetaPoly] = {}  # sum_k W^{amk} p_k, on first use
    out = []
    for i in range(n):
        total = zero
        for j, a, m in itertools.product(range(n), repeat=3):
            dd = w.entry(i, j).diff_x(a).diff_x(m)
            if dd.is_zero:
                continue
            if (a, m) not in wp:
                wp[a, m] = sum((w.contraction(a, m, k) * p for k, p in enumerate(ps)), zero)
            total = total + dd * ps[j] * wp[a, m]
        out.append(total.scale(Fraction(1, 24)))
    return out


def build_xhat(w: PoissonBivector, gamma: GammaTower,
               gamma1: Optional[Sequence[ThetaPoly]],
               trunc: int = 3) -> list[DiffOperator]:
    """Coordinate operators xhat^i = x^i + sum_k th^k X^{ik}: the
    normal-ordered quantization of the momentum expansion, each canonical
    momentum becoming -i d, so the term p^e of P^i_k becomes (-i)^k d^e.
    At grade 3 the quantized polynomial is P^i_3 - Q^i, with Q = ``gamma1``
    the correction from ``build_gamma1`` (zeros give the bare operators);
    it is read only when grade 3 is reached.
    """
    n = w.n
    if gamma.max_order < min(trunc, 3):
        raise UsageError("tower must be built through the requested order")
    ops = []
    for i in range(n):
        terms = {(0, (0,) * n): RationalFunction(ThetaPoly.coordinate(n, i, trunc))}
        for k in range(1, min(trunc, gamma.max_order) + 1):
            poly = gamma.momenta[k][i] - gamma1[i] if k == 3 else gamma.momenta[k][i]
            factor = GaussianRational(0, -1) ** k
            for midx, coeff in poly.momentum_blocks().items():
                terms[k, midx] = RationalFunction(coeff.scale(factor).with_trunc(trunc))
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
    out = ThetaPoly.zero(n, op.trunc)
    minus_i = GaussianRational(0, -1)
    for (t, midx), coeff in op.terms.items():
        if not coeff.is_polynomial:
            raise UsageError("plane-wave symbol needs polynomial coefficients")
        poly = coeff.num
        if poly != poly.constant_term():
            raise UsageError("plane-wave symbol needs constant coefficients")
        factor = ThetaPoly.constant(n, minus_i ** sum(midx), op.trunc)
        for i, e in enumerate(midx):
            factor = factor * ThetaPoly.momentum(n, i, op.trunc) ** e
        out = out + poly * factor.theta_shift(t)
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
