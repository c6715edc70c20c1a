"""Poisson-bivector validation and the direct construction of Darboux
coordinates by an order-by-order algebraic recursion.

A bivector is Poisson when its Jacobi defect, the cyclic sum of the
contraction W^{ikl} = sum_j w^{ij} d_j w^{kl} of the bivector with its own
gradient, vanishes; ``jacobi_defect`` forms only the contractions it sums.

The curved coordinates are a series in the canonical momenta,
x^i = y^i + sum_m th^m P^i_m(y, p), with P^i_m homogeneous of degree m in
p; the tower stores the P^i_m themselves.  Each order is fixed (up to the
hard-coded symmetric gauge) by requiring the canonical bracket of the
expansion to reproduce the bivector exactly.  The symmetric tensors of
the paper are read off the P^i_m only for reports.

The map is its coordinate tuple; the momenta are canonical by
construction.  One routine inverts a phase-space map and re-expresses
its mixed and momentum brackets in the original variables, with the
inverse taken one grade short of the truncation: the defect report reads
it with canonical momenta, ``general_brackets`` with gauge-shifted ones.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .exact_algebra import (
    DEFAULT_TRUNC,
    DimensionError,
    Fraction,
    ThetaPoly,
    UsageError,
    multi_index,
    substitute_all,
)


class NotPoissonError(ValueError):
    """Raised when a bivector fails the Jacobi identity.

    Carries the defect, as ``jacobi_defect`` returns it, for diagnosis.
    """

    def __init__(self, defect: dict[tuple[int, int, int], ThetaPoly]):
        super().__init__("bivector is not Poisson; Jacobi defect is nonzero")
        self.defect = defect


class PoissonBivector:
    """Antisymmetric matrix of grade-free coordinate polynomials.

    ``entry`` reads the full matrix, built once at construction, its zeros
    at the entries' truncation.
    """

    __slots__ = ("n", "upper", "_matrix")

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
        zero = ThetaPoly.zero(n, min((p.trunc for p in store.values()), default=DEFAULT_TRUNC))
        matrix = [[zero] * n for _ in range(n)]
        for (i, j), poly in store.items():
            matrix[i][j], matrix[j][i] = poly, -poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "upper", store)
        object.__setattr__(self, "_matrix", matrix)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PoissonBivector is immutable")

    def entry(self, i: int, j: int) -> ThetaPoly:
        return self._matrix[i][j]

    def with_trunc(self, trunc: int) -> "PoissonBivector":
        return PoissonBivector(
            self.n, {k: p.with_trunc(trunc) for k, p in self.upper.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonBivector):
            return NotImplemented
        return self.n == other.n and self.upper == other.upper


def jacobi_defect(w: PoissonBivector) -> dict[tuple[int, int, int], ThetaPoly]:
    """The cyclic sum W^{ijk} + W^{kij} + W^{jki} of the contraction
    W^{ikl} = sum_m w^{im} d_m w^{kl} of the bivector with its own
    gradient, as the dict {(i, j, k): defect} of its nonzero components,
    i < j < k; the empty dict exactly characterizes Poisson bivectors."""
    n = w.n
    zero = w.entry(0, 0)  # a diagonal entry, at the entries' truncation

    def contraction(i: int, k: int, l: int) -> ThetaPoly:
        grad = (w.entry(k, l).diff_x(m) for m in range(n))
        return sum(map(operator.mul, (w.entry(i, m) for m in range(n)), grad), zero)

    comps = {(i, j, k): contraction(i, j, k) + contraction(k, i, j) + contraction(j, k, i)
             for i, j, k in itertools.combinations(range(n), 3)}
    return {k: p for k, p in comps.items() if not p.is_zero}


def canonical_bracket(f: ThetaPoly, g: ThetaPoly) -> ThetaPoly:
    """{f,g} = sum_i df/dy^i dg/dpi_i - df/dpi_i dg/dy^i, exact."""
    if f.n != g.n:
        raise DimensionError("bracket dimension mismatch")
    out = ThetaPoly.zero(f.n, min(f.trunc, g.trunc))
    for i in range(f.n):
        out = out + f.diff_x(i) * g.diff_p(i) - f.diff_p(i) * g.diff_x(i)
    return out


# ---------------------------------------------------------------------------
# the coefficient tower
# ---------------------------------------------------------------------------


class GammaTower:
    """The momentum expansion of the curved coordinates,
    x^i = y^i + sum_m th^m P^i_m(y, p), stored as the polynomials it is
    solved in: ``momenta[m][i]`` is P^i_m, homogeneous of degree m in p,
    and ``momenta[0][i]`` is y^i.

    ``component`` and ``to_json`` read the symmetric tensor form: the
    coefficient of p^e in P^i_m over its multinomial weight.
    """

    __slots__ = ("n", "max_order", "momenta", "trunc")

    def __init__(self, n: int, momenta: Sequence[Sequence[ThetaPoly]], trunc: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_order", len(momenta) - 1)
        object.__setattr__(self, "momenta", tuple(map(tuple, momenta)))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GammaTower is immutable")

    def _tensor(self, order: int, lead: int) -> dict[tuple[int, ...], ThetaPoly]:
        """The symmetric tensor of P^lead_order, keyed by momentum exponents."""
        return {exps: coeff.scale(Fraction(math.prod(map(math.factorial, exps)),
                                           math.factorial(order)))
                for exps, coeff in self.momenta[order][lead].momentum_blocks().items()}

    def component(self, order: int, lead: int, trailing: Sequence[int]) -> ThetaPoly:
        if order < 1 or order > self.max_order:
            raise UsageError(f"order {order} not built (max {self.max_order})")
        return self._tensor(order, lead).get(multi_index(self.n, *trailing),
                                             ThetaPoly.zero(self.n, self.trunc))

    def to_json(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for order in range(1, self.max_order + 1):
            comps = sorted((lead, tuple(a for a, e in enumerate(exps) for _ in range(e)), coeff)
                           for lead in range(self.n)
                           for exps, coeff in self._tensor(order, lead).items())
            out[str(order)] = {
                f"({lead+1};{','.join(str(t+1) for t in trailing)})": coeff.text()
                for lead, trailing, coeff in comps}
        return out


def build_gamma(w: PoissonBivector, order: int, trunc: Optional[int] = None) -> GammaTower:
    """Solve the momentum polynomials P^i_m order by order.

    The bracket of the curved coordinates must reproduce the bivector,
    {x^i, x^j} = th w^{ij}(x).  At grade m the part linear in the unknowns
    is {y^i, P^j_m} + {P^i_m, y^j}; the rest is the residual

        r^{ij} = [th^(m-1)] w^{ij}(x) - sum_{k=1..m-1} {P^i_k, P^j_(m-k)},

    antisymmetric in (i, j) and of momentum degree m - 1.  Its
    ``euler_homotopy`` P^i_m = -(1/(m+1)) sum_j p_j r^{ij} solves it in the
    symmetric gauge; at m = 1, r = w.  The defining property holds exactly
    through the built order and is re-checked by ``verify_darboux``.
    """
    defect = jacobi_defect(w)
    if defect:
        raise NotPoissonError(defect)
    n = w.n
    if trunc is None:
        trunc = max(order, 3)
    w = w.with_trunc(trunc)
    zero = ThetaPoly.zero(n, trunc)
    momenta = [[ThetaPoly.coordinate(n, i, trunc) for i in range(n)]]
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(1, order + 1):
        # w^{ij}(x) is read only at grade m - 1, so substitute at that truncation
        xs = assemble_darboux(GammaTower(n, momenta, m - 1))
        entries = substitute_all([w.entry(i, j) for i, j in pairs],
                                 {("x", i): x for i, x in enumerate(xs)})
        r = {(i, j): entry.theta_coefficient(m - 1).with_trunc(trunc)
             - sum((canonical_bracket(momenta[k][i], momenta[m - k][j]) for k in range(1, m)), zero)
             for (i, j), entry in zip(pairs, entries)}
        momenta.append(euler_homotopy(n, r, trunc))
    return GammaTower(n, momenta, trunc)


def euler_homotopy(n: int, r: Mapping[tuple[int, int], ThetaPoly],
                   trunc: int) -> list[ThetaPoly]:
    """X^j = sum_i p_i r^{ij} / (d + 2) on each part of momentum degree d:
    for r (i < j) closed in the momenta, the solution of
    d_{p_i} X^j - d_{p_j} X^i = r^{ij} with sum_i p_i X^i = 0."""
    zero = ThetaPoly.zero(n, trunc)
    out = [zero] * n
    for (i, j), rij in r.items():
        h = sum((block * ThetaPoly.monomial(n, Fraction(1, sum(e) + 2), p=e, trunc=trunc)
                 for e, block in rij.momentum_blocks().items()), zero)
        out[j] = out[j] + ThetaPoly.momentum(n, i, trunc) * h
        out[i] = out[i] - ThetaPoly.momentum(n, j, trunc) * h
    return out


def assemble_darboux(gamma: GammaTower) -> tuple[ThetaPoly, ...]:
    """Curved coordinates x^i = sum_m th^m P^i_m from the tower; the
    momenta are the canonical ones by construction."""
    n, trunc = gamma.n, gamma.trunc
    return tuple(sum((ps[i].theta_shift(m) for m, ps in enumerate(gamma.momenta)),
                     ThetaPoly.zero(n, trunc))
                 for i in range(n))


def invert_phase_map(x_of: Sequence[ThetaPoly], p_of: Sequence[ThetaPoly],
                     order: int) -> dict[tuple[str, int], ThetaPoly]:
    """Series inversion of a phase-space map that is the identity at grade
    zero: the substitution sending each canonical variable to its series
    in the images.  Each round z <- z - (f(z) - z_0) fixes one more grade,
    so ``order`` rounds give the series exactly through that grade."""
    n = x_of[0].n
    keys = [("x", i) for i in range(n)] + [("p", i) for i in range(n)]
    images = [f.with_trunc(order) for f in (*x_of, *p_of)]
    start = [ThetaPoly.coordinate(n, i, order) for i in range(n)] \
        + [ThetaPoly.momentum(n, i, order) for i in range(n)]
    current = start
    for _ in range(order):
        back = dict(zip(keys, current))
        current = [z - (f - z0)
                   for f, z, z0 in zip(substitute_all(images, back), current, start)]
    return dict(zip(keys, current))


def _curved_brackets(xs: Sequence[ThetaPoly], ps: Sequence[ThetaPoly], order: int
                     ) -> tuple[dict[tuple[int, int], ThetaPoly], dict[tuple[int, int], ThetaPoly]]:
    """The mixed brackets {x^i, p_j}, every (i, j), and the momentum
    brackets {p_i, p_j}, i < j, of the map (xs, ps), re-expressed in the
    original variables by inverting the map.  Each bracket is a constant
    plus th times a series, so the inverse is needed through one grade
    less than ``order``."""
    back = {k: z.with_trunc(order)
            for k, z in invert_phase_map(xs, ps, max(order - 1, 0)).items()}
    mixed = list(itertools.product(range(len(xs)), range(len(ps))))
    momenta = list(itertools.combinations(range(len(ps)), 2))
    brackets = substitute_all([canonical_bracket(xs[i], ps[j]) for i, j in mixed]
                              + [canonical_bracket(ps[i], ps[j]) for i, j in momenta], back)
    return dict(zip(mixed, brackets)), dict(zip(momenta, brackets[len(mixed):]))


def reference_delta(w: PoissonBivector, trunc: int = 3) -> dict[tuple[int, int], ThetaPoly]:
    """Closed-form mixed brackets {x^i, p_j} through second grade, in the
    original variables, keyed by (i, j).  With V_k = sum_l w^{kl} p_l each is

        delta_ij - (th/2) d_j V_i
            + th^2 sum_k ((1/12) d_j V_k d_k V_i - (1/6) V_k d_j d_k V_i).

    It reads the bivector alone, never the tower, so it checks
    ``verify_darboux`` independently.  (First-grade sign fixed by the
    bracket algebra; see the acceptance suite.)"""
    n = w.n
    zero = ThetaPoly.zero(n, trunc)
    ps = [ThetaPoly.momentum(n, l, trunc) for l in range(n)]
    v = [sum((w.entry(k, l) * p for l, p in enumerate(ps)), zero) for k in range(n)]
    dv = [[vk.diff_x(j) for j in range(n)] for vk in v]  # dv[k][j] = d_j V_k
    th, th2 = ThetaPoly.theta(n, 1, trunc), ThetaPoly.theta(n, 2, trunc)
    out: dict[tuple[int, int], ThetaPoly] = {}
    for i, j in itertools.product(range(n), repeat=2):
        grade2 = zero
        for k in range(n):
            grade2 = grade2 + (dv[k][j] * dv[i][k]).scale(Fraction(1, 12)) \
                - (v[k] * dv[i][k].diff_x(j)).scale(Fraction(1, 6))
        base = zero + ThetaPoly.one(n, trunc) if i == j else zero
        out[(i, j)] = base - th * dv[i][j].scale(Fraction(1, 2)) + th2 * grade2
    return out


def index_texts(table: Mapping[tuple[int, ...], object]) -> dict[str, str]:
    """The report form of a table keyed by index tuples: "(i,j,...)" -> text."""
    return {f"({','.join(str(i + 1) for i in key)})": v.text()
            for key, v in sorted(table.items())}


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
            "xx_defect": index_texts(self.xx_defect),
            "pp_defect": index_texts(self.pp_defect),
            "delta": index_texts(self.delta),
            "delta_reference": index_texts(self.delta_reference),
            "xx_zero": self.xx_zero,
            "pp_zero": self.pp_zero,
            "delta_matches_reference": self.delta_matches_reference,
        }


def verify_darboux(gamma: GammaTower, w: PoissonBivector) -> DarbouxReport:
    """Exact defect report for the defining properties of the map built
    from the tower, through the order it was built at.

    A nonzero defect is data, not an exception.
    """
    n, order = gamma.n, gamma.max_order
    xs = [x.with_trunc(order) for x in assemble_darboux(gamma)]
    th = ThetaPoly.theta(n, 1, order)
    pairs = list(itertools.combinations(range(n), 2))
    entries = substitute_all([w.entry(i, j).with_trunc(order) for i, j in pairs],
                             {("x", i): x for i, x in enumerate(xs)})
    xx = {(i, j): canonical_bracket(xs[i], xs[j]) - th * entry
          for (i, j), entry in zip(pairs, entries)}
    delta, pp = _curved_brackets(
        xs, [ThetaPoly.momentum(n, i, order) for i in range(n)], order)
    ref = {k: p.truncated(min(order, 2)) for k, p in reference_delta(w, order).items()}
    return DarbouxReport(xx, pp, delta, ref)


@dataclass(frozen=True)
class GeneralBrackets:
    """Mixed and momentum-momentum brackets for an arbitrary first-order
    gauge vector, re-expressed in the original phase-space variables."""

    delta: dict[tuple[int, int], ThetaPoly]
    varpi: dict[tuple[int, int], ThetaPoly]


def general_brackets(w: PoissonBivector, j1: Sequence[ThetaPoly],
                     order: int = 2) -> GeneralBrackets:
    """Brackets of the curved variables when the momenta are shifted by a
    first-order gauge vector, p_i = pi_i - th j_i (higher gauge orders
    fixed to zero)."""
    n = w.n
    if len(j1) != n:
        raise UsageError("gauge vector needs one component per coordinate")
    xs = assemble_darboux(build_gamma(w, order, order))
    th = ThetaPoly.theta(n, 1, order)
    ps = [ThetaPoly.momentum(n, i, order) - th * ji.with_trunc(order)
          for i, ji in enumerate(j1)]
    return GeneralBrackets(*_curved_brackets(xs, ps, order))


# convenience models ---------------------------------------------------------


def levi_civita(i: int, j: int, k: int) -> int:
    if len({i, j, k}) < 3:
        return 0
    return -1 if sum(a > b for a, b in itertools.combinations((i, j, k), 2)) % 2 else 1


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


def constant_bivector(matrix: Sequence[Sequence[int]]) -> PoissonBivector:
    n = len(matrix)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            upper[(i, j)] = ThetaPoly.constant(n, matrix[i][j])
    return PoissonBivector(n, upper)
