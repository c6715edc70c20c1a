"""Poisson-bivector validation and the direct construction of Darboux
coordinates by an order-by-order algebraic recursion.

The curved coordinates are expanded in the canonical momenta with
coefficient tensors that are symmetric in their trailing indices; each
order is fixed (up to the hard-coded symmetric gauge) by requiring the
canonical bracket of the expansion to reproduce the bivector exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .exact_algebra import (
    DEFAULT_TRUNC,
    DimensionError,
    Fraction,
    ThetaPoly,
    UsageError,
    multi_index,
)


class NotPoissonError(ValueError):
    """Raised when a bivector fails the Jacobi identity.

    Carries the full defect tensor for diagnosis.
    """

    def __init__(self, defect: "JacobiDefect"):
        super().__init__("bivector is not Poisson; Jacobi defect is nonzero")
        self.defect = defect


class PoissonBivector:
    """Antisymmetric matrix of grade-free coordinate polynomials.

    ``entry`` reads the full matrix, built once at construction;
    ``contraction`` reads the table of W^{ikl} = sum_j w^{ij} d_j w^{kl},
    built on first use.
    """

    __slots__ = ("n", "upper", "_matrix", "_contraction")

    def __init__(self, n: int, upper: Mapping[tuple[int, int], ThetaPoly]):
        store: dict[tuple[int, int], ThetaPoly] = {}
        for (i, j), poly in upper.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"bivector index ({i},{j}) out of range")
            if i == j:
                raise UsageError("diagonal bivector entries must vanish")
            if poly.n != n:
                raise DimensionError("entry dimension mismatch")
            if not (poly.is_theta_free and poly.is_coordinate_only):
                raise UsageError("bivector entries must be grade-free coordinate polynomials")
            if i > j:
                i, j, poly = j, i, -poly
            store[(i, j)] = store[(i, j)] + poly if (i, j) in store else poly
        store = {k: p for k, p in store.items() if not p.is_zero}
        matrix = [[ThetaPoly.zero(n)] * n for _ in range(n)]
        for (i, j), poly in store.items():
            matrix[i][j], matrix[j][i] = poly, -poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "upper", store)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_contraction", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PoissonBivector is immutable")

    def entry(self, i: int, j: int) -> ThetaPoly:
        return self._matrix[i][j]

    def contraction(self, i: int, k: int, l: int) -> ThetaPoly:
        """W^{ikl} = sum_j w^{ij} d_j w^{kl}: the bivector contracted with
        its own gradient.  The Jacobi defect, the trace gauge and the
        correction tensor read it."""
        if self._contraction is None:
            n, rows = self.n, self._matrix
            # the entries' truncation, not that of the zeros on the diagonal
            trunc = min((p.trunc for p in self.upper.values()), default=DEFAULT_TRUNC)
            grads = [[[p.diff_x(j) for j in range(n)] for p in row] for row in rows]
            object.__setattr__(self, "_contraction", [
                [[sum(map(operator.mul, row, grads[k][l]), ThetaPoly.zero(n)).with_trunc(trunc)
                  for l in range(n)] for k in range(n)] for row in rows])
        return self._contraction[i][k][l]

    def with_trunc(self, trunc: int) -> "PoissonBivector":
        return PoissonBivector(
            self.n, {k: p.with_trunc(trunc) for k, p in self.upper.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonBivector):
            return NotImplemented
        return self.n == other.n and self.upper == other.upper


class JacobiDefect:
    """Totally antisymmetric rank-3 defect of the Jacobi identity."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Mapping[tuple[int, int, int], ThetaPoly]):
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "components",
            {k: p for k, p in components.items() if not p.is_zero})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("JacobiDefect is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, i: int, j: int, k: int) -> ThetaPoly:
        # resolve through total antisymmetry
        idx = tuple(sorted((i, j, k)))
        if len(set(idx)) < 3:
            return ThetaPoly.zero(self.n)
        base = self.components.get(idx, ThetaPoly.zero(self.n))
        sign = _permutation_sign((i, j, k))
        return base if sign == 1 else -base

    def to_json(self) -> dict:
        return {f"({i+1},{j+1},{k+1})": p.text()
                for (i, j, k), p in sorted(self.components.items())}


def _permutation_sign(idx: Sequence[int]) -> int:
    sign = 1
    lst = list(idx)
    for a in range(len(lst)):
        for b in range(a + 1, len(lst)):
            if lst[a] > lst[b]:
                sign = -sign
    return sign


def jacobi_defect(w: PoissonBivector) -> JacobiDefect:
    """Cyclic contraction of the bivector with its own gradient; the zero
    tensor exactly characterizes Poisson bivectors."""
    W = w.contraction
    comps = {(i, j, k): W(i, j, k) + W(k, i, j) + W(j, k, i)
             for i, j, k in itertools.combinations(range(w.n), 3)}
    return JacobiDefect(w.n, comps)


def canonical_bracket(f: ThetaPoly, g: ThetaPoly) -> ThetaPoly:
    """{f,g} = sum_i df/dy^i dg/dpi_i - df/dpi_i dg/dy^i, exact."""
    if not (f.has_momenta and g.has_momenta):
        raise UsageError("canonical bracket needs phase-space polynomials")
    if f.n != g.n:
        raise DimensionError("bracket dimension mismatch")
    out = ThetaPoly.zero(f.n, min(f.trunc, g.trunc), True)
    for i in range(f.n):
        out = out + f.diff_x(i) * g.diff_p(i) - f.diff_p(i) * g.diff_x(i)
    return out


# ---------------------------------------------------------------------------
# the coefficient tower
# ---------------------------------------------------------------------------


def _multinomial(total: int, exps: Sequence[int]) -> int:
    out = math.factorial(total)
    for e in exps:
        out //= math.factorial(e)
    return out


def _exps_to_tuple(exps: Sequence[int]) -> tuple[int, ...]:
    idx: list[int] = []
    for i, e in enumerate(exps):
        idx.extend([i] * e)
    return tuple(idx)


class GammaTower:
    """Per-order tensors of the momentum expansion of the curved
    coordinates, stored symmetric in the trailing indices."""

    __slots__ = ("n", "max_order", "tensors", "trunc")

    def __init__(self, n: int, max_order: int,
                 tensors: Mapping[int, Mapping[tuple[int, tuple[int, ...]], ThetaPoly]],
                 trunc: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "tensors",
                           {order: dict(comps) for order, comps in tensors.items()})
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GammaTower is immutable")

    def component(self, order: int, lead: int, trailing: Sequence[int]) -> ThetaPoly:
        if order < 1 or order > self.max_order:
            raise UsageError(f"order {order} not built (max {self.max_order})")
        key = (lead, tuple(sorted(trailing)))
        return self.tensors[order].get(key, ThetaPoly.zero(self.n, self.trunc))

    def contracted(self, order: int, lead: int) -> ThetaPoly:
        """The degree-``order`` momentum polynomial carried by one coordinate."""
        n = self.n
        out = ThetaPoly.zero(n, self.trunc, True)
        for (l, trailing), coeff in self.tensors[order].items():
            if l != lead:
                continue
            exps = multi_index(n, *trailing)
            mono = ThetaPoly.monomial(n, _multinomial(order, exps), p=exps,
                                      trunc=self.trunc, has_momenta=True)
            out = out + coeff.with_momenta() * mono
        return out

    def to_json(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for order in sorted(self.tensors):
            block = {}
            for (lead, trailing), coeff in sorted(self.tensors[order].items()):
                label = f"({lead+1};{','.join(str(t+1) for t in trailing)})"
                block[label] = coeff.text()
            out[str(order)] = block
        return out


@dataclass(frozen=True)
class DarbouxMap:
    """Curved coordinates and momenta expressed in canonical variables."""

    x_of: tuple[ThetaPoly, ...]
    p_of: tuple[ThetaPoly, ...]

    @property
    def n(self) -> int:
        return len(self.x_of)


def _tensor_from_momentum_poly(r: ThetaPoly,
                               degree: int) -> dict[tuple[int, ...], ThetaPoly]:
    """Read the symmetric tensor representative off a momentum polynomial.

    Contraction with symmetric momentum powers determines only the
    symmetric part; dividing each monomial coefficient by its multinomial
    weight recovers the unique symmetric representative.
    """
    comps: dict[tuple[int, ...], ThetaPoly] = {}
    for me, coeff in r.momentum_blocks().items():
        if sum(me) != degree:
            raise UsageError("momentum degree mismatch in tensor extraction")
        comps[_exps_to_tuple(me)] = coeff.scale(Fraction(1, _multinomial(degree, me)))
    return comps


def build_gamma(w: PoissonBivector, order: int, trunc: Optional[int] = None) -> GammaTower:
    """Solve the expansion tensors order by order.

    Order 1 is the antisymmetric half of the bivector (symmetric gauge
    fixed to zero).  At order n the canonical bracket of the partial
    expansion determines an inhomogeneity; its symmetric-representative
    tensor feeds a closed-form symmetrization that inverts the
    antisymmetrized linear equation.  The defining property (the bracket
    of the assembled coordinates reproduces the bivector) holds exactly
    through the built order and is re-checked by ``verify_darboux``.
    """
    defect = jacobi_defect(w)
    if not defect.is_zero:
        raise NotPoissonError(defect)
    n = w.n
    if trunc is None:
        trunc = max(order, 3)
    w = w.with_trunc(trunc)

    tensors: dict[int, dict[tuple[int, tuple[int, ...]], ThetaPoly]] = {}
    if order < 1:
        return GammaTower(n, 0, tensors, trunc)
    # order 1: antisymmetric part fixed by the bracket, symmetric gauge zero
    tensors[1] = {(i, (j,)): w.entry(i, j).scale(Fraction(-1, 2))
                  for i, j in itertools.product(range(n), repeat=2)
                  if not w.entry(i, j).is_zero}

    for m in range(2, order + 1):
        tower = GammaTower(n, m - 1, tensors, trunc)
        xs = assemble_darboux(tower).x_of
        images = {("x", i): xs[i] for i in range(n)}
        block: dict[tuple[int, tuple[int, ...]], ThetaPoly] = {}
        # inhomogeneity, antisymmetric in the leading pair
        g_hat: dict[tuple[int, int], dict[tuple[int, ...], ThetaPoly]] = {}
        for i in range(n):
            for j in range(i + 1, n):
                taylor = w.entry(i, j).substitute(images).theta_coefficient(m - 1)
                bracket_sum = ThetaPoly.zero(n, trunc, True)
                for k in range(1, m):
                    a = tower.contracted(k, i)
                    b = tower.contracted(m - k, j)
                    bracket_sum = bracket_sum + canonical_bracket(a, b)
                r = taylor.with_momenta() - bracket_sum
                g_hat[(i, j)] = _tensor_from_momentum_poly(-r, m - 1)

        def g_component(i: int, j: int, trailing: tuple[int, ...]) -> ThetaPoly:
            if i == j:
                return ThetaPoly.zero(n, trunc)
            if i < j:
                comp = g_hat[(i, j)].get(tuple(sorted(trailing)))
            else:
                comp = g_hat[(j, i)].get(tuple(sorted(trailing)))
                comp = -comp if comp is not None else None
            return comp if comp is not None else ThetaPoly.zero(n, trunc)

        # closed-form inverse: promote each trailing index to the pair slot
        scale = Fraction(1, m * (m + 1))
        for lead in range(n):
            for trailing in itertools.combinations_with_replacement(range(n), m):
                total = ThetaPoly.zero(n, trunc)
                for t_pos in range(len(trailing)):
                    second = trailing[t_pos]
                    rest = trailing[:t_pos] + trailing[t_pos + 1:]
                    total = total + g_component(lead, second, rest)
                val = total.scale(scale)
                if not val.is_zero:
                    block[(lead, trailing)] = val
        tensors[m] = block
    return GammaTower(n, order, tensors, trunc)


def assemble_darboux(gamma: GammaTower) -> DarbouxMap:
    """Curved coordinates from the tower; momenta are left canonical."""
    n = gamma.n
    xs = []
    for i in range(n):
        x = ThetaPoly.coordinate(n, i, gamma.trunc, True)
        for m in range(1, gamma.max_order + 1):
            x = x + gamma.contracted(m, i).theta_shift(m)
        xs.append(x)
    ps = tuple(ThetaPoly.momentum(n, i, gamma.trunc) for i in range(n))
    return DarbouxMap(tuple(xs), ps)


def invert_phase_map(x_of: Sequence[ThetaPoly], p_of: Sequence[ThetaPoly],
                     order: int) -> tuple[list[ThetaPoly], list[ThetaPoly]]:
    """Series inversion of a phase-space map that is the identity at grade
    zero; returns the canonical variables as functions of the images."""
    n = x_of[0].n
    trunc = order
    xs = [x.with_trunc(trunc) for x in x_of]
    ps = [p.with_trunc(trunc) for p in p_of]
    ys = [ThetaPoly.coordinate(n, i, trunc, True) for i in range(n)]
    pis = [ThetaPoly.momentum(n, i, trunc) for i in range(n)]
    for _ in range(order + 1):
        images = {("x", i): ys[i] for i in range(n)}
        images.update({("p", i): pis[i] for i in range(n)})
        new_ys = []
        new_pis = []
        for i in range(n):
            # y = x - higher(x(y,pi)) evaluated on the current iterate
            resid = xs[i].substitute(images) - ThetaPoly.coordinate(n, i, trunc, True)
            new_ys.append(ys[i] - resid)
            resid_p = ps[i].substitute(images) - ThetaPoly.momentum(n, i, trunc)
            new_pis.append(pis[i] - resid_p)
        if new_ys == ys and new_pis == pis:
            break
        ys, pis = new_ys, new_pis
    return ys, pis


def reference_delta(w: PoissonBivector, i: int, j: int, trunc: int = 3) -> ThetaPoly:
    """Closed-form mixed bracket through second grade, in the original
    variables.  (First-grade sign fixed by the bracket algebra; see the
    acceptance suite.)"""
    n = w.n
    out = ThetaPoly.zero(n, trunc, True)
    if i == j:
        out = out + ThetaPoly.one(n, trunc, True)
    th1 = ThetaPoly.theta(n, 1, trunc, True)
    th2 = ThetaPoly.theta(n, 2, trunc, True)
    for l in range(n):
        p_l = ThetaPoly.momentum(n, l, trunc)
        out = out - th1 * w.entry(i, l).diff_x(j).with_momenta() * p_l.scale(Fraction(1, 2))
    for l in range(n):
        for m in range(n):
            p_lm = ThetaPoly.momentum(n, l, trunc) * ThetaPoly.momentum(n, m, trunc)
            term1 = ThetaPoly.zero(n, trunc)
            term2 = ThetaPoly.zero(n, trunc)
            for k in range(n):
                term1 = term1 + w.entry(k, l).diff_x(j) * w.entry(i, m).diff_x(k)
                term2 = term2 + w.entry(l, k) * w.entry(i, m).diff_x(j).diff_x(k)
            out = out + th2 * (term1.scale(Fraction(1, 12))
                               + term2.scale(Fraction(1, 6))).with_momenta() * p_lm
    return out


@dataclass(frozen=True)
class DarbouxReport:
    xx_defect: dict[tuple[int, int], ThetaPoly]
    pp_defect: dict[tuple[int, int], ThetaPoly]
    delta: dict[tuple[int, int], ThetaPoly]
    delta_reference: dict[tuple[int, int], ThetaPoly]

    @property
    def xx_zero(self) -> bool:
        return all(p.is_zero for p in self.xx_defect.values())

    @property
    def pp_zero(self) -> bool:
        return all(p.is_zero for p in self.pp_defect.values())

    @property
    def delta_matches_reference(self) -> bool:
        return all(
            (self.delta[k].truncated(2) - self.delta_reference[k].truncated(2)).is_zero
            for k in self.delta)

    def to_json(self) -> dict:
        return {
            "xx_defect": {f"({i+1},{j+1})": p.text()
                          for (i, j), p in sorted(self.xx_defect.items())},
            "pp_defect": {f"({i+1},{j+1})": p.text()
                          for (i, j), p in sorted(self.pp_defect.items())},
            "delta": {f"({i+1},{j+1})": p.text()
                      for (i, j), p in sorted(self.delta.items())},
            "delta_reference": {f"({i+1},{j+1})": p.text()
                                for (i, j), p in sorted(self.delta_reference.items())},
            "xx_zero": self.xx_zero,
            "pp_zero": self.pp_zero,
            "delta_matches_reference": self.delta_matches_reference,
        }


def verify_darboux(darboux: DarbouxMap, w: PoissonBivector, order: int) -> DarbouxReport:
    """Exact defect report for the defining properties of the map.

    A nonzero defect is data, not an exception.
    """
    n = darboux.n
    trunc = order
    xs = [x.with_trunc(trunc) for x in darboux.x_of]
    ps = [p.with_trunc(trunc) for p in darboux.p_of]
    images = {("x", i): xs[i] for i in range(n)}
    th = ThetaPoly.theta(n, 1, trunc, True)

    xx: dict[tuple[int, int], ThetaPoly] = {}
    for i in range(n):
        for j in range(i + 1, n):
            lhs = canonical_bracket(xs[i], xs[j])
            rhs = th * w.entry(i, j).with_trunc(trunc).substitute(images)
            xx[(i, j)] = (lhs - rhs).truncated(order)

    pp: dict[tuple[int, int], ThetaPoly] = {}
    for i in range(n):
        for j in range(i + 1, n):
            pp[(i, j)] = canonical_bracket(ps[i], ps[j]).truncated(order)

    # mixed bracket re-expressed in the original variables
    ys, pis = invert_phase_map(xs, ps, order)
    back = {("x", i): ys[i] for i in range(n)}
    back.update({("p", i): pis[i] for i in range(n)})
    delta: dict[tuple[int, int], ThetaPoly] = {}
    ref: dict[tuple[int, int], ThetaPoly] = {}
    for i in range(n):
        for j in range(n):
            d = canonical_bracket(xs[i], ps[j]).substitute(back).truncated(order)
            delta[(i, j)] = d
            ref[(i, j)] = reference_delta(w, i, j, trunc).truncated(min(order, 2))
    return DarbouxReport(xx, pp, delta, ref)


@dataclass(frozen=True)
class GeneralBrackets:
    """Mixed and momentum-momentum brackets for an arbitrary first-order
    gauge vector, re-expressed in the original phase-space variables."""

    delta: dict[tuple[int, int], ThetaPoly]
    varpi: dict[tuple[int, int], ThetaPoly]

    def to_json(self) -> dict:
        return {
            "delta": {f"({i+1},{j+1})": p.text()
                      for (i, j), p in sorted(self.delta.items())},
            "varpi": {f"({i+1},{j+1})": p.text()
                      for (i, j), p in sorted(self.varpi.items())},
        }


def general_brackets(w: PoissonBivector, j1: Sequence[ThetaPoly],
                     order: int = 2) -> GeneralBrackets:
    """Brackets of the curved variables when the momenta are shifted by a
    first-order gauge vector (higher gauge orders fixed to zero)."""
    n = w.n
    if len(j1) != n:
        raise UsageError("gauge vector needs one component per coordinate")
    trunc = order
    gamma = build_gamma(w, order, trunc)
    base = assemble_darboux(gamma)
    th = ThetaPoly.theta(n, 1, trunc, True)
    xs = [x.with_trunc(trunc) for x in base.x_of]
    ps = []
    for i in range(n):
        ji = j1[i].with_trunc(trunc).with_momenta()
        ps.append(ThetaPoly.momentum(n, i, trunc) - th * ji)

    ys, pis = invert_phase_map(xs, ps, order)
    back = {("x", i): ys[i] for i in range(n)}
    back.update({("p", i): pis[i] for i in range(n)})

    delta: dict[tuple[int, int], ThetaPoly] = {}
    varpi: dict[tuple[int, int], ThetaPoly] = {}
    for i in range(n):
        for j in range(n):
            delta[(i, j)] = canonical_bracket(xs[i], ps[j]).substitute(back).truncated(order)
    for i in range(n):
        for j in range(i + 1, n):
            varpi[(i, j)] = canonical_bracket(ps[i], ps[j]).substitute(back).truncated(order)
    return GeneralBrackets(delta, varpi)


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
                total = ThetaPoly.zero(n, order, True)
                for (a, b, c) in ((mu, nu, al), (al, mu, nu), (nu, al, mu)):
                    for sigma in range(dim):
                        total = total + omega(a, sigma) * d(sigma, omega(b, c))
                total = total.truncated(order)
                if not total.is_zero:
                    out[(mu, nu, al)] = total
    return out


# convenience models ---------------------------------------------------------


def levi_civita(i: int, j: int, k: int) -> int:
    return _permutation_sign((i, j, k)) if len({i, j, k}) == 3 else 0


def fuzzy_sphere_bivector(trunc: int = 3) -> PoissonBivector:
    """Rotationally invariant linear bivector in three dimensions."""
    n = 3
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            entry = ThetaPoly.zero(n, trunc)
            for k in range(n):
                e = levi_civita(i, j, k)
                if e:
                    entry = entry + ThetaPoly.coordinate(n, k, trunc).scale(e)
            upper[(i, j)] = entry
    return PoissonBivector(n, upper)


def constant_bivector(matrix: Sequence[Sequence[int]], trunc: int = 3) -> PoissonBivector:
    n = len(matrix)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            upper[(i, j)] = ThetaPoly.constant(n, matrix[i][j], trunc)
    return PoissonBivector(n, upper)
