"""Differential operators stored as normal-ordered symbols.

An operator is one ``RationalFunction`` symbol: its numerator is a
phase-space ``ThetaPoly`` whose term ``c th^t x^e p^a`` stands for
``c th^t x^e d^a``, the coefficient to the left of the derivatives, and
its denominator is a grade-free coordinate polynomial, 1 unless a
coefficient is rational.  Sums, scalings and grade slices are the
symbol's own arithmetic; composition is the normal-ordered product
sum_gamma (1/gamma!) d_p^gamma a * d_x^gamma b.

The coordinate operators xhat^i are built here, by ``build_xhat``, and
nowhere else: ``StarProduct`` keeps the ones it derives its rules from as
``product.xhat``.  Each is the Darboux tower read as a symbol,
x^i + sum_k th^k (-i)^k P^i_k with P^i_3 - Q^i at grade 3, the correction
Q^i of ``build_gamma1`` stored in the same momentum-polynomial form: every
canonical momentum p becomes -i d.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

from .exact_algebra import (
    DimensionError,
    Fraction,
    GaussianFunction,
    GaussianRational,
    I,
    RationalFunction,
    ThetaPoly,
    UsageError,
    divide_exact,
    multi_index,
)
from .poisson import GammaTower, PoissonBivector, levi_civita

MultiIndex = tuple[int, ...]
Coefficient = Union[RationalFunction, ThetaPoly, GaussianRational, int, Fraction]
MINUS_I = GaussianRational(0, -1)


def _leibniz(a: ThetaPoly, b: ThetaPoly, d: ThetaPoly, c) -> tuple[ThetaPoly, int]:
    """The normal-ordered product of the symbol a with the function
    b d^(-c): sum_gamma (1/gamma!) d_p^gamma a * d_x^gamma(b d^(-c)).

    Each d_x^gamma(b d^(-c)) is N_gamma d^(-c-|gamma|), with
    N_(gamma+e_i) = d d_i N_gamma - (|gamma| + c) N_gamma d_i d; the sum is
    returned as its numerator over d^(c+M), together with the top order M.
    """
    flat = d == 1
    pieces = [] if a.is_zero or b.is_zero else [(a, b, 0, Fraction(1))]
    for i in range(a.n):
        grown = []
        for da, nb, m, f in pieces:
            for k in itertools.count(1):
                grown.append((da, nb, m, f))
                da = da.diff_p(i)
                if da.is_zero:
                    break
                nb = nb.diff_x(i) if flat else \
                    d * nb.diff_x(i) - d.diff_x(i) * nb.scale(m + c)
                if nb.is_zero:
                    break
                m, f = m + 1, f / k
        pieces = grown
    top = max((m for _, _, m, _ in pieces), default=0)
    powers = [] if flat else [d ** j for j in range(top + 1)]
    total = ThetaPoly.zero(a.n, min(a.trunc, b.trunc))
    for da, nb, m, f in pieces:
        piece = da * nb if f == 1 else (da * nb).scale(f)
        total = total + (piece if flat or m == top else piece * powers[top - m])
    return total, top


class DiffOperator:
    """A differential operator, held as its normal-ordered symbol."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: Union[ThetaPoly, RationalFunction]):
        object.__setattr__(self, "symbol", RationalFunction.of(symbol))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("DiffOperator is immutable")

    @property
    def n(self) -> int:
        return self.symbol.n

    @property
    def trunc(self) -> int:
        return self.symbol.num.trunc

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int, trunc: int = 3) -> "DiffOperator":
        return DiffOperator(ThetaPoly.zero(n, trunc))

    @staticmethod
    def identity(n: int, trunc: int = 3) -> "DiffOperator":
        return DiffOperator(ThetaPoly.one(n, trunc))

    @staticmethod
    def multiplication(f: Union[ThetaPoly, RationalFunction],
                       trunc: Optional[int] = None) -> "DiffOperator":
        f = RationalFunction.of(f)
        if trunc is not None:
            f = RationalFunction(f.num.with_trunc(trunc), f.den)
        return DiffOperator(f)

    @staticmethod
    def derivative(n: int, i: int, trunc: int = 3) -> "DiffOperator":
        return DiffOperator(ThetaPoly.momentum(n, i, trunc))

    @staticmethod
    def term(coeff: Coefficient, midx: MultiIndex, theta_power: int = 0,
             n: Optional[int] = None, trunc: int = 3) -> "DiffOperator":
        if isinstance(coeff, (int, Fraction, GaussianRational)):
            coeff = ThetaPoly.constant(len(midx) if n is None else n, coeff, trunc)
        coeff = RationalFunction.of(coeff)
        mono = ThetaPoly.monomial(coeff.n, p=tuple(midx), grade=theta_power, trunc=trunc)
        return DiffOperator(RationalFunction(coeff.num.with_trunc(trunc) * mono, coeff.den))

    # -- linear structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.symbol.is_zero

    @property
    def terms(self) -> dict[tuple[int, MultiIndex], RationalFunction]:
        """Read-only view of the symbol: (grade, derivative multi-index) ->
        grade-free coefficient."""
        slices = ((t, midx, block.theta_coefficient(t))
                  for midx, block in self.symbol.num.momentum_blocks().items()
                  for t in range(block.max_theta_power() + 1))
        return {(t, midx): RationalFunction(c, self.symbol.den)
                for t, midx, c in slices if not c.is_zero}

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return DiffOperator(self.symbol + other.symbol)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(-self.symbol)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return DiffOperator(self.symbol - other.symbol)

    def scale(self, c: Coefficient) -> "DiffOperator":
        return DiffOperator(self.symbol * c)

    def theta_shift(self, k: int) -> "DiffOperator":
        return DiffOperator(self.symbol.theta_shift(k))

    def theta_slice(self, k: int) -> "DiffOperator":
        return DiffOperator(self.symbol.theta_coefficient(k))

    def truncated(self, order: int) -> "DiffOperator":
        return DiffOperator(self.symbol.truncated(order))

    # -- action and composition ----------------------------------------------

    def apply_poly(self, f: ThetaPoly) -> RationalFunction:
        if f.n != self.n:
            raise DimensionError("operand dimension mismatch")
        out = ThetaPoly.zero(self.n, min(self.trunc, f.trunc))
        for midx, block in self.symbol.num.momentum_blocks().items():
            d = f.diff_multi(midx)
            if not d.is_zero:
                out = out + block * d
        return RationalFunction(out, self.symbol.den)

    def apply(self, f):
        """Exact application; Gaussian-class operands need polynomial
        coefficients (rational prefactors do not stay in the class)."""
        if isinstance(f, ThetaPoly):
            return self.apply_poly(f)
        if isinstance(f, GaussianFunction):
            if not self.symbol.is_polynomial:
                raise UsageError("rational coefficients cannot act on the Gaussian class")
            out = GaussianFunction(ThetaPoly.zero(self.n, f.prefactor.trunc), f.weight)
            for midx, block in self.symbol.num.momentum_blocks().items():
                out = out + f.diff_multi(midx) * block
            return out
        raise UsageError(f"cannot apply operator to {type(f).__name__}")

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self after other: the normal-ordered product of the symbols."""
        if self.n != other.n:
            raise DimensionError("operator dimension mismatch")
        a, b = self.symbol, other.symbol
        num, top = _leibniz(a.num, b.num, b.den, 1)
        # the product is num / (a.den b.den^(top+1)); cancel the powers of
        # b.den that divide out
        power = top + 1
        while power and not b.is_polynomial \
                and (q := divide_exact(num, b.den)) is not None:
            num, power = q, power - 1
        return DiffOperator(RationalFunction(num, a.den * b.den ** power))

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        return self.compose(other) - other.compose(self)

    # -- comparisons and serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        # equal denominators compare numerators term by term, at every grade
        a, b = self.symbol, other.symbol
        return self.n == other.n and (a.num == b.num if a.den == b.den else a == b)

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
    """Coordinate operators with symbols x^i + sum_k th^k (-i)^k P^i_k: the
    momentum expansion read in normal order, each canonical momentum
    becoming -i d.  At grade 3 the symbol carries P^i_3 - Q^i, with
    Q = ``gamma1`` the correction from ``build_gamma1`` (zeros give the
    bare operators); it is read only when grade 3 is reached.
    """
    n = w.n
    if gamma.max_order < min(trunc, 3):
        raise UsageError("tower must be built through the requested order")
    ops = []
    for i in range(n):
        symbol = ThetaPoly.coordinate(n, i, trunc)
        for k in range(1, min(trunc, gamma.max_order) + 1):
            poly = gamma.momenta[k][i] - gamma1[i] if k == 3 else gamma.momenta[k][i]
            symbol = symbol + poly.with_trunc(trunc).scale(MINUS_I ** k).theta_shift(k)
        ops.append(DiffOperator(symbol))
    return ops


def build_phat(mu: ThetaPoly, trunc: int = 3) -> list[DiffOperator]:
    """Momentum operators for a polynomial density: -i d_i - (i/2) d_i(log mu),
    the symmetric choice that keeps them self-adjoint for the induced
    inner product and mutually commuting; symbol -i (mu p_i + d_i mu / 2) / mu."""
    if mu.is_zero:
        raise UsageError("measure density must be nonzero")
    if not (mu.is_theta_free and mu.is_coordinate_only):
        raise UsageError("measure density must be a grade-free coordinate polynomial")
    n = mu.n
    mu = mu.with_trunc(trunc)
    return [DiffOperator(RationalFunction(
        (mu * ThetaPoly.momentum(n, i, trunc) + mu.diff_x(i).scale(Fraction(1, 2)))
        .scale(MINUS_I), mu)) for i in range(n)]


def subalgebra_defect(families: Sequence[Sequence[DiffOperator]], w: PoissonBivector,
                      star) -> list[dict[tuple[int, int], DiffOperator]]:
    """For each family of coordinate operators, the commutators
    [xhat^i, xhat^j] minus i th times left star multiplication by the
    bivector entry: one defect dict per family.  Each target is built once
    and shared by the families."""
    n = w.n
    out: list[dict[tuple[int, int], DiffOperator]] = [{} for _ in families]
    for i in range(n):
        for j in range(i + 1, n):
            target = star.left_multiplication_operator(w.entry(i, j)) \
                .theta_shift(1).scale(I)
            for xhat, defects in zip(families, out):
                defects[i, j] = xhat[i].commutator(xhat[j]) - target
    return out


def conjugate_by_measure_power(op: DiffOperator, mu: ThetaPoly,
                               s: Fraction) -> DiffOperator:
    """Exact similarity transform mu^s . op . mu^(-s): the normal-ordered
    product of the symbol with mu^(-s), multiplied back by mu^s, which
    leaves a pure power of mu in the denominator."""
    mu = mu.with_trunc(op.trunc)
    num, top = _leibniz(op.symbol.num, ThetaPoly.one(op.n, op.trunc), mu, s)
    return DiffOperator(RationalFunction(num, op.symbol.den * mu ** top))


def plane_wave_symbol(op: DiffOperator) -> ThetaPoly:
    """Eigenvalue polynomial of a constant-coefficient operator on plane
    waves exp(-i k.x): each derivative contributes -i k, so the term
    c p^a of the symbol becomes c (-i)^|a| k^a."""
    n = op.n
    if not op.symbol.is_polynomial:
        raise UsageError("plane-wave symbol needs polynomial coefficients")
    out = ThetaPoly.zero(n, op.trunc)
    for a, c in op.symbol.num.momentum_blocks().items():
        if any(not c.diff_x(i).is_zero for i in range(n)):
            raise UsageError("plane-wave symbol needs constant coefficients")
        out = out + c * ThetaPoly.monomial(n, MINUS_I ** sum(a), p=a, trunc=op.trunc)
    return out


def angular_momentum(n: int, i: int, trunc: int = 3) -> DiffOperator:
    """-i eps^{iab} x_a d_b, the rotation generator."""
    if n != 3:
        raise UsageError("rotation generators are three-dimensional")
    return DiffOperator(sum(
        (ThetaPoly.monomial(3, MINUS_I * levi_civita(i, a, b), x=multi_index(3, a),
                            p=multi_index(3, b), trunc=trunc)
         for a, b in itertools.product(range(3), repeat=2)),
        ThetaPoly.zero(3, trunc)))


def l_squared(trunc: int = 3) -> DiffOperator:
    out = DiffOperator.zero(3, trunc)
    for i in range(3):
        li = angular_momentum(3, i, trunc)
        out = out + li.compose(li)
    return out


def laplacian(n: int, trunc: int = 3) -> DiffOperator:
    """The flat Laplacian, symbol sum_i p_i^2."""
    return DiffOperator(sum((ThetaPoly.momentum(n, i, trunc) ** 2 for i in range(n)),
                            ThetaPoly.zero(n, trunc)))
