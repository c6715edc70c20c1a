"""Reference formulas that share no code with the engine they check, the
construction the coordinate-operator solve replaced, and the checks only
the tests run."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Union

from ncqm.exact_algebra import (
    ZERO,
    GaussianFunction,
    GaussianIntegral,
    GaussianRational,
    ThetaPoly,
    gaussian_integrate,
)
from ncqm.operators import DiffOperator, build_xhat, l_squared
from ncqm.poisson import PoissonBivector, build_gamma
from ncqm.qm_examples import solid_harmonics
from ncqm.star import StarProduct, trace

Entry = Union[int, Fraction, GaussianRational]


def constant_term(p: ThetaPoly) -> GaussianRational:
    """The coefficient of th^0 x^0 p^0."""
    return p.terms.get(0, ZERO)


def integral_of_product(f: GaussianFunction, mu: ThetaPoly) -> GaussianIntegral:
    """The integral of the density times f, through the product ``f * mu``
    that ``gaussian_integrate(f, mu)`` never forms."""
    return gaussian_integrate(f * mu)


def closed_form_order2(w: PoissonBivector, i: int, j: int, k: int) -> ThetaPoly:
    """The second-order expansion tensor in closed form,
    (1/24)(w^{mk} d_m w^{ij} + w^{mj} d_m w^{ik}), in the orientation the
    defining bracket identity forces."""
    n = w.n
    out = ThetaPoly.zero(n, 3)
    for m in range(n):
        out = out + w.entry(m, k) * w.entry(i, j).diff_x(m)
        out = out + w.entry(m, j) * w.entry(i, k).diff_x(m)
    return out.scale(Fraction(1, 24))


def gamma1_closed_form(w: PoissonBivector, trunc: int = 3) -> list[ThetaPoly]:
    """The grade-3 correction in closed form, one momentum polynomial per
    coordinate,

        Q^i = (1/24) sum_{j,k,a,m} W^{amk} d_a d_m w^{ij} p_j p_k,

    with W^{amk} = sum_l w^{al} d_l w^{mk} the bivector contracted with its
    own gradient.  It reads the bivector alone, never the operators or the
    product, and vanishes for constant and linear bivectors."""
    n = w.n
    zero = ThetaPoly.zero(n, trunc)
    ps = [ThetaPoly.momentum(n, k, trunc) for k in range(n)]
    entry = [[w.entry(i, j).with_trunc(trunc) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        total = zero
        for j, a, m in itertools.product(range(n), repeat=3):
            dd = entry[i][j].diff_x(a).diff_x(m)
            if dd.is_zero:
                continue
            for k, l in itertools.product(range(n), repeat=2):
                total = total + dd * entry[a][l] * entry[m][k].diff_x(l) * ps[j] * ps[k]
        out.append(total.scale(Fraction(1, 24)))
    return out


def quantized_tower(w: PoissonBivector, trunc: int = 3, q=None) -> list[DiffOperator]:
    """The coordinate operators as the quantized Darboux tower: symbols
    x^i + sum_k th^k (-i)^k P^i_k, with i (P^i_3 - Q^i) at grade 3 and Q
    the closed-form correction unless ``q`` is given.  This builds them
    from the symplectic realization, not from the closure."""
    top = min(trunc, 3)
    bare = build_xhat(build_gamma(w, top, trunc), trunc)
    if top < 3:
        return bare
    q = gamma1_closed_form(w, trunc) if q is None else q
    minus_i = GaussianRational(0, -1)
    return [DiffOperator(op.num + qi.scale(minus_i).theta_shift(3))
            for op, qi in zip(bare, q)]


def tower_product(w: PoissonBivector, order: int, trunc: int) -> SimpleNamespace:
    """``xhat`` from ``quantized_tower`` and the ``slices`` 0..order that
    ``StarProduct._derive_slice`` reads off it, as the product was built
    before its operators were solved grade by grade."""
    zero = (0,) * w.n
    product = SimpleNamespace(n=w.n, xhat=quantized_tower(w, trunc),
                              slices=[{(zero, zero): ThetaPoly.one(w.n, trunc)}])
    for k in range(1, order + 1):
        product.slices.append(StarProduct._derive_slice(product, k))
    return product


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


def moyal_product(f: ThetaPoly, g: ThetaPoly,
                  matrix: Sequence[Sequence[Entry]], order: int = 3) -> ThetaPoly:
    """The constant-bivector product by direct exponential series, written
    without the slice machinery so the two can be compared term by term:
    sum over n of (1/n!) (i th / 2)^n  w^{i1 j1} ... w^{in jn}
    d_{i1..in} f  d_{j1..jn} g, evaluated exactly."""
    n_dim = f.n
    if len(matrix) != n_dim:
        raise ValueError("matrix dimension mismatch")
    out = ThetaPoly.zero(n_dim, f.trunc)
    half_i = GaussianRational(0, Fraction(1, 2))
    for n in range(order + 1):
        scale = (half_i ** n) * Fraction(1, math.factorial(n))
        for left in itertools.product(range(n_dim), repeat=n):
            df = f
            for i in left:
                df = df.diff_x(i)
            if df.is_zero:
                continue
            for right in itertools.product(range(n_dim), repeat=n):
                w_prod = GaussianRational(1)
                for i, j in zip(left, right):
                    w_prod = w_prod * GaussianRational.of(matrix[i][j])
                    if w_prod.is_zero:
                        break
                if w_prod.is_zero:
                    continue
                dg = g
                for j in right:
                    dg = dg.diff_x(j)
                if dg.is_zero:
                    continue
                out = out + (df * dg).scale(scale * w_prod).theta_shift(n)
    return out


def phase_space_jacobi_defect(
        n: int,
        omega: Callable[[int, int], ThetaPoly],
        order: int) -> dict[tuple[int, int, int], ThetaPoly]:
    """Jacobi defect of a full 2n-dimensional antisymmetric structure given
    componentwise; indices 0..n-1 are coordinates, n..2n-1 momenta."""

    def d(sigma: int, f: ThetaPoly) -> ThetaPoly:
        return f.diff_x(sigma) if sigma < n else f.diff_p(sigma - n)

    out: dict[tuple[int, int, int], ThetaPoly] = {}
    dim = 2 * n
    for mu in range(dim):
        for nu in range(mu + 1, dim):
            for al in range(nu + 1, dim):
                total = ThetaPoly.zero(n, order)
                for (a, b, c) in ((mu, nu, al), (al, mu, nu), (nu, al, mu)):
                    for sigma in range(dim):
                        total = total + omega(a, sigma) * d(sigma, omega(b, c))
                total = total.truncated(order)
                if not total.is_zero:
                    out[(mu, nu, al)] = total
    return out


class Quotient:
    """num / den, with den a nonzero coordinate polynomial: the functions
    the composition oracle applies operators to.  It writes out the sum,
    the product, the quotient rule and equality by cross-multiplication,
    and cancels nothing, so it shares no code with ``DiffOperator``."""

    def __init__(self, num: ThetaPoly, den: Optional[ThetaPoly] = None):
        if den is not None and den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = ThetaPoly.one(num.n, num.trunc) if den is None else den

    def __add__(self, other: "Quotient") -> "Quotient":
        if self.den == other.den:
            return Quotient(self.num + other.num, self.den)
        return Quotient(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "Quotient") -> "Quotient":
        return Quotient(self.num * other.num, self.den * other.den)

    def diff_x(self, i: int) -> "Quotient":
        return Quotient(self.num.diff_x(i) * self.den - self.num * self.den.diff_x(i),
                        self.den * self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quotient):
            return NotImplemented
        return self.num * other.den == other.num * self.den


def of_function(op: DiffOperator) -> Quotient:
    """The function a zeroth-order operator multiplies by."""
    return Quotient(op.num, op.den)


def l_squared_eigencheck(l: int, trunc: int = 3) -> bool:
    """Apply the squared rotation generator to the degree-l harmonics and
    confirm the eigenvalue l(l+1) exactly."""
    op = l_squared(trunc)
    expect = l * (l + 1)
    for y in solid_harmonics(l, trunc):
        if of_function(op.apply(y)) != Quotient(y.scale(expect)):
            return False
    return True


def hermiticity_defect(fpoly: ThetaPoly, phi: GaussianFunction,
                       psi: GaussianFunction, product: StarProduct,
                       mu: ThetaPoly) -> GaussianIntegral:
    """Tr(conj(f # phi) # psi) - Tr(conj(phi) # (f # psi)) per grade, with #
    the given product (pass product.with_gauge(gauge)); measures
    self-adjointness of left multiplication by a real polynomial."""
    left = product.star(product.star(fpoly, phi).conjugate(), psi)
    right = product.star(phi.conjugate(), product.star(fpoly, psi))
    return trace(left, mu) - trace(right, mu)
