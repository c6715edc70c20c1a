import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ncqm.exact_algebra import GaussianRational, ThetaPoly, multi_index, parse_polynomial
from ncqm.poisson import PoissonBivector, build_gamma, constant_bivector, fuzzy_sphere_bivector
from ncqm.star import StarProduct


def seeded_poly(rng: random.Random, n: int, degree: int = 3, terms: int = 5,
                trunc: int = 3, height: int = 3, momenta: bool = False) -> ThetaPoly:
    """Deterministic random polynomial of bounded degree and coefficient height."""
    p = ThetaPoly.zero(n, trunc)
    for _ in range(terms):
        # slots 0..n-1 are coordinates, n..2n-1 momenta
        slots = [rng.randrange(2 * n if momenta else n)
                 for _ in range(rng.randint(0, degree))]
        c = GaussianRational(Fraction(rng.randint(-height, height)),
                             Fraction(rng.randint(-height, height)))
        p = p + _slot_monomial(n, c, slots, 0, trunc)
    return p


def _slot_monomial(n: int, c, slots, grade: int, trunc: int) -> ThetaPoly:
    e = multi_index(2 * n, *slots)
    return ThetaPoly.monomial(n, c, x=e[:n], p=e[n:], grade=grade, trunc=trunc)


def is_symmetric(gauge: dict) -> bool:
    """A gauge {(i, k): b_ik} keeps nonzero entries only, so it is
    symmetric when each entry's transpose is present and equal."""
    return all(gauge.get((k, i)) == b for (i, k), b in gauge.items())


def _bivector(n: int, rows: dict) -> PoissonBivector:
    return PoissonBivector(n, {k: parse_polynomial(v, n) for k, v in rows.items()})


# bivectors whose grade-3 correction is pinned and checked against the
# closed form; the Nambu ones are w^{12} = d_3 C, w^{23} = d_1 C, w^{31} = d_2 C
GRADE3_FAMILIES = {
    "kappa-5": _bivector(5, {(0, 1): "x2", (0, 2): "x3", (0, 3): "x4", (0, 4): "x5"}),
    # C = x1^3 + x1*x2*x3 + x3^2
    "nambu-cubic": _bivector(3, {(0, 1): "x1*x2+2*x3", (1, 2): "3*x1^2+x2*x3",
                                 (2, 0): "x1*x3"}),
    # C = x1*x2*x3 + x3^2
    "nambu-construct": _bivector(3, {(0, 1): "x1*x2+2*x3", (1, 2): "x2*x3",
                                     (2, 0): "x1*x3"}),
    "planar-quadratic": _bivector(2, {(0, 1): "1+x2^2"}),
}


def solved_gamma1(w: PoissonBivector, trunc: int = 3) -> list[ThetaPoly]:
    """The grade-3 correction Q that the product solves, read off its
    grade-3 symbols X_3 = i (P_3 - Q) as Q = P_3 + i X_3."""
    xhat = StarProduct(w, 2, trunc=trunc).xhat
    tower = build_gamma(w, 3, trunc)
    return [p + op.symbol.num.theta_coefficient(3).scale(GaussianRational(0, 1))
            for p, op in zip(tower.momenta[3], xhat)]


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def fuzzy():
    return fuzzy_sphere_bivector()


@pytest.fixture(scope="session")
def quad2d():
    return PoissonBivector(2, {(0, 1): parse_polynomial("x1*x2", 2)})


@pytest.fixture(scope="session")
def const3d():
    return constant_bivector([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])


# hypothesis strategies -------------------------------------------------------

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4)

scalars = st.builds(GaussianRational, small_fractions, small_fractions)


def poly_strategy(n: int, momenta: bool = False, max_terms: int = 4,
                  max_degree: int = 2, trunc: int = 3):
    def build(term_list):
        p = ThetaPoly.zero(n, trunc)
        for t, slots, c in term_list:
            p = p + _slot_monomial(n, c, slots, t, trunc)
        return p

    slot_range = 2 * n if momenta else n
    term = st.tuples(
        st.integers(min_value=0, max_value=2),
        st.lists(st.integers(min_value=0, max_value=slot_range - 1),
                 max_size=max_degree),
        scalars,
    )
    return st.lists(term, max_size=max_terms).map(build)
