"""Reference formulas that share no code with the engine they check, and
the construction the coordinate-operator solve replaced."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

from ncqm.exact_algebra import (
    GaussianFunction,
    GaussianIntegral,
    GaussianRational,
    ThetaPoly,
    gaussian_integrate,
)
from ncqm.operators import DiffOperator, build_xhat
from ncqm.poisson import PoissonBivector, build_gamma
from ncqm.star import StarProduct


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
    return [DiffOperator(op.symbol.num + qi.scale(minus_i).theta_shift(3))
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
