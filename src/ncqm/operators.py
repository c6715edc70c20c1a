"""Differential operators stored as normal-ordered symbols.

A ``DiffOperator`` holds its symbol as ``num / den``: ``num`` is a
phase-space ``ThetaPoly`` whose term ``c th^t x^e p^a`` stands for
``c th^t x^e d^a``, the coefficient to the left of the derivatives, and
``den`` is a grade-free coordinate polynomial, 1 unless a coefficient is
rational.  A function is the zeroth-order operator that multiplies by it,
so the coefficients ``terms`` lists and the results of ``apply`` are
operators too.  Sums, scalings and grade slices act on the numerator over
the denominator; composition is the normal-ordered product
sum_gamma (1/gamma!) d_p^gamma a * d_x^gamma b.

``build_gamma1`` solves the coordinate operators
xhat^i = x^i + sum_k th^k X_k^i one grade at a time from the closure
[xhat^i, xhat^j] = i th w^{ij}(xhat), by the Euler homotopy that
``build_gamma`` solves the Darboux tower with; its residual reads left
multiplication by w^{ij} as ``left_multiplication_symbol``.  The principal
part of xhat is the quantized tower: the degree-k part of X_k^i is
(-i)^k P^i_k, and through grade 3 the only other part is the correction
th^3 C^i, of momentum degree 2.  ``subalgebra_defect`` forms the closure
for one family; ``residual_without_correction`` reads the bare operators'
defects off xhat's and C, composing no other family and building no
tower.  ``build_xhat`` quantizes the tower itself, the bare operators
x^i + sum_k th^k (-i)^k P^i_k, for the tests to compare against.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .exact_algebra import (
    DimensionError,
    Fraction,
    GaussianFunction,
    GaussianRational,
    I,
    Scalarish,
    ThetaPoly,
    UsageError,
    divide_exact,
    multi_index,
)
from .poisson import GammaTower, PoissonBivector, euler_homotopy, levi_civita

MultiIndex = tuple[int, ...]
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
    """A differential operator, held as its normal-ordered symbol num / den.

    A function is the zeroth-order operator that multiplies by it.  No
    factorization is attempted: operators with equal denominators compare
    numerators, others compare by cross-multiplication, and the only
    simplification is exact cancellation of the whole denominator.  A
    denominator that stays takes the numerator's truncation, so products
    never cut the numerator short.
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
        raise AttributeError("DiffOperator is immutable")

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def trunc(self) -> int:
        return self.num.trunc

    @property
    def is_polynomial(self) -> bool:
        return self.den == 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int, trunc: int = 3) -> "DiffOperator":
        return DiffOperator(ThetaPoly.zero(n, trunc))

    @staticmethod
    def identity(n: int) -> "DiffOperator":
        return DiffOperator(ThetaPoly.one(n))

    @staticmethod
    def derivative(n: int, i: int, trunc: int = 3) -> "DiffOperator":
        return DiffOperator(ThetaPoly.momentum(n, i, trunc))

    @staticmethod
    def term(coeff: "DiffOperator", midx: MultiIndex, theta_power: int = 0,
             trunc: int = 3) -> "DiffOperator":
        mono = ThetaPoly.monomial(coeff.n, p=tuple(midx), grade=theta_power, trunc=trunc)
        return DiffOperator(coeff.num.with_trunc(trunc) * mono, coeff.den)

    # -- linear structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def terms(self) -> dict[tuple[int, MultiIndex], "DiffOperator"]:
        """Read-only view of the symbol: (grade, derivative multi-index) ->
        grade-free coefficient."""
        slices = ((t, midx, block.theta_coefficient(t))
                  for midx, block in self.num.momentum_blocks().items()
                  for t in range(block.max_theta_power() + 1))
        return {(t, midx): DiffOperator(c, self.den)
                for t, midx, c in slices if not c.is_zero}

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.den == other.den:
            return DiffOperator(self.num + other.num, self.den)
        return DiffOperator(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(-self.num, self.den)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, c: Scalarish) -> "DiffOperator":
        return DiffOperator(self.num * c, self.den)

    def theta_shift(self, k: int) -> "DiffOperator":
        return DiffOperator(self.num.theta_shift(k), self.den)

    def theta_slice(self, k: int) -> "DiffOperator":
        return DiffOperator(self.num.theta_coefficient(k), self.den)

    def truncated(self, order: int) -> "DiffOperator":
        return DiffOperator(self.num.truncated(order), self.den)

    # -- action and composition ----------------------------------------------

    def apply_poly(self, f: ThetaPoly) -> "DiffOperator":
        if f.n != self.n:
            raise DimensionError("operand dimension mismatch")
        out = ThetaPoly.zero(self.n, min(self.trunc, f.trunc))
        for midx, block in self.num.momentum_blocks().items():
            d = f.diff_multi(midx)
            if not d.is_zero:
                out = out + block * d
        return DiffOperator(out, self.den)

    def apply(self, f):
        """Exact application; Gaussian-class operands need polynomial
        coefficients (rational prefactors do not stay in the class)."""
        if isinstance(f, ThetaPoly):
            return self.apply_poly(f)
        if isinstance(f, GaussianFunction):
            if not self.is_polynomial:
                raise UsageError("rational coefficients cannot act on the Gaussian class")
            out = GaussianFunction(ThetaPoly.zero(self.n, f.prefactor.trunc), f.weight)
            for midx, block in self.num.momentum_blocks().items():
                out = out + f.diff_multi(midx) * block
            return out
        raise UsageError(f"cannot apply operator to {type(f).__name__}")

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self after other: the normal-ordered product of the symbols."""
        if self.n != other.n:
            raise DimensionError("operator dimension mismatch")
        num, top = _leibniz(self.num, other.num, other.den, 1)
        # the product is num / (self.den other.den^(top+1)); cancel the
        # powers of other.den that divide out
        power = top + 1
        while power and not other.is_polynomial \
                and (q := divide_exact(num, other.den)) is not None:
            num, power = q, power - 1
        return DiffOperator(num, self.den * other.den ** power)

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        return self.compose(other) - other.compose(self)

    # -- comparisons and serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        # equal denominators compare numerators term by term, at every grade
        return self.n == other.n and (
            self.num == other.num if self.den == other.den
            else self.num * other.den == other.num * self.den)

    def text(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for (t, midx), coeff in sorted(self.terms.items(),
                                       key=lambda kv: (kv[0][0], sum(kv[0][1]), kv[0][1])):
            factors = []
            for i, e in enumerate(midx):
                if e == 1:
                    factors.append(f"d{i+1}")
                elif e > 1:
                    factors.append(f"d{i+1}^{e}")
            d = "".join("*" + f for f in factors)
            th = "" if t == 0 else (f"*th^{t}" if t > 1 else "*th")
            c = coeff.num.text() if coeff.is_polynomial \
                else f"({coeff.num.text()}) / ({coeff.den.text()})"
            bits.append(f"({c}){th}{d}")
        return " + ".join(bits)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"DiffOperator({self.text()!r})"


# ---------------------------------------------------------------------------
# coordinate and momentum operators
# ---------------------------------------------------------------------------


class ClosureError(ValueError):
    """A grade's solved symbols leave a nonzero closure residual."""


def left_multiplication_symbol(slices: Sequence[dict], f: ThetaPoly,
                               trunc: int) -> ThetaPoly:
    """The symbol sum_k th^k sum_b (sum_a c_ab d^a f) p^b of g -> f * g,
    for the rule slices [{(a, b): c_ab}, ...] of grades 0, 1, ..."""
    derivatives: dict[MultiIndex, ThetaPoly] = {}  # d^a f, formed once per a
    blocks: dict[MultiIndex, ThetaPoly] = {}  # d^b -> its coefficient
    for k, rules in enumerate(slices):
        for (a, b), c in rules.items():
            df = derivatives.get(a)
            if df is None:
                df = derivatives[a] = f.diff_multi(a)
            if not df.is_zero:
                piece = (c * df).with_trunc(trunc).theta_shift(k)
                blocks[b] = blocks[b] + piece if b in blocks else piece
    return sum((c * ThetaPoly.monomial(f.n, p=b, trunc=trunc) for b, c in blocks.items()),
               ThetaPoly.zero(f.n, trunc))


def build_gamma1(w: PoissonBivector, xhat: Sequence[DiffOperator], rules: dict,
                 k: int, trunc: int = 3) -> list[ThetaPoly]:
    """The grade-k symbols X_k^i of the coordinate operators, solved from
    the closure [xhat^i, xhat^j] = i th w^{ij}(xhat) at grade k on
    ``xhat`` through grade k - 1 and the grade-(k-1) ``rules`` {(a, b): c}
    of its product, L_f = sum th^m c d^a f d^b.

    [x^i, G d^a] has the symbol -d_{p_i}(G p^a), so the closure reads
    d_{p_i} X_k^j - d_{p_j} X_k^i = R^{ij}, with ``_leibniz`` commutators in

        R^{ij} = sum_{m=1..k-1} [X_m^i, X_(k-m)^j] - i sum_ab c_ab d^a w^{ij} p^b.

    ``euler_homotopy`` solves it for a closed R only, so each (i, j) is
    checked and the first that fails raises ``ClosureError``.
    """
    n = w.n
    one, zero = ThetaPoly.one(n, trunc), ThetaPoly.zero(n, trunc)
    xs = [[op.num.theta_coefficient(m) for op in xhat] for m in range(k)]

    def bracket(a: ThetaPoly, b: ThetaPoly) -> ThetaPoly:
        return _leibniz(a, b, one, 0)[0] - _leibniz(b, a, one, 0)[0]

    r = {}
    for i, j in itertools.combinations(range(n), 2):
        rij = sum((bracket(xs[m][i], xs[k - m][j]) for m in range(1, k)), zero)
        r[(i, j)] = rij - left_multiplication_symbol([rules], w.entry(i, j), trunc).scale(I)
    out = euler_homotopy(n, r, trunc)
    for (i, j), rij in r.items():
        if out[j].diff_p(i) - out[i].diff_p(j) != rij:
            raise ClosureError(f"the grade-{k} operators do not close on ({i+1},{j+1})")
    return out


def build_xhat(gamma: GammaTower, trunc: int = 3) -> list[DiffOperator]:
    """The bare coordinate operators x^i + sum_k th^k (-i)^k P^i_k: the
    Darboux tower read in normal order, each canonical momentum becoming
    -i d.  They close through grade 2.  The engine reads them off the
    solved xhat instead (see ``residual_without_correction``); the tests
    build them here, from the symplectic realization, to compare."""
    n = gamma.n
    if gamma.max_order < min(trunc, 3):
        raise UsageError("tower must be built through the requested order")
    ops = []
    for i in range(n):
        symbol = ThetaPoly.coordinate(n, i, trunc)
        for k in range(1, min(trunc, gamma.max_order) + 1):
            symbol = symbol + gamma.momenta[k][i].with_trunc(trunc) \
                .scale(MINUS_I ** k).theta_shift(k)
        ops.append(DiffOperator(symbol))
    return ops


def residual_without_correction(defects: dict[tuple[int, int], DiffOperator],
                                xhat: Sequence[DiffOperator]
                                ) -> dict[tuple[int, int], DiffOperator]:
    """The closure defects of the bare operators through grade 3, read off
    the ``defects`` of ``xhat``.  Each grade-k symbol X_k^i has momentum
    degree at most k, and its degree-k part is the bare term
    (-i)^k P^i_k; through grade 3 the only other part is the correction
    th^3 C^i, the part of X_3^i below degree 3.  [x^i, G d^a] has the
    symbol -d_{p_i}(G p^a), and every other term C adds to
    [xhat^i, xhat^j] is of grade 4 or more, so
    D_bare^{ij} = D^{ij} + th^3 (d_{p_i} C^j - d_{p_j} C^i) through grade 3.
    """
    c = []
    for op in xhat:
        x3 = op.num.theta_coefficient(3).with_trunc(3)
        c.append(sum((block * ThetaPoly.monomial(x3.n, p=m, grade=3, trunc=3)
                      for m, block in x3.momentum_blocks().items() if sum(m) < 3),
                     ThetaPoly.zero(x3.n, 3)))
    return {(i, j): d + DiffOperator(c[j].diff_p(i) - c[i].diff_p(j))
            for (i, j), d in defects.items()}


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
    return [DiffOperator(
        (mu * ThetaPoly.momentum(n, i, trunc) + mu.diff_x(i).scale(Fraction(1, 2)))
        .scale(MINUS_I), mu) for i in range(n)]


def subalgebra_defect(xhat: Sequence[DiffOperator], star
                      ) -> dict[tuple[int, int], DiffOperator]:
    """The commutators [xhat^i, xhat^j], i < j, minus i th times left
    multiplication by the bivector entry w^{ij} of ``star``."""
    w = star.w
    return {(i, j): xhat[i].commutator(xhat[j])
            - star.left_multiplication_operator(w.entry(i, j)).theta_shift(1).scale(I)
            for i, j in itertools.combinations(range(w.n), 2)}


def conjugate_by_measure_power(op: DiffOperator, mu: ThetaPoly,
                               s: Fraction) -> DiffOperator:
    """Exact similarity transform mu^s . op . mu^(-s): the normal-ordered
    product of the symbol with mu^(-s), multiplied back by mu^s, which
    leaves a pure power of mu in the denominator."""
    mu = mu.with_trunc(op.trunc)
    num, top = _leibniz(op.num, ThetaPoly.one(op.n, op.trunc), mu, s)
    return DiffOperator(num, op.den * mu ** top)


def plane_wave_symbol(op: DiffOperator) -> ThetaPoly:
    """Eigenvalue polynomial of a constant-coefficient operator on plane
    waves exp(-i k.x): each derivative contributes -i k, so the term
    c p^a of the symbol becomes c (-i)^|a| k^a."""
    n = op.n
    if not op.is_polynomial:
        raise UsageError("plane-wave symbol needs polynomial coefficients")
    out = ThetaPoly.zero(n, op.trunc)
    for a, c in op.num.momentum_blocks().items():
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
