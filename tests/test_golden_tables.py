"""The rule tables and the tensors read from the bivector contraction,
pinned by digest.

Each digest is the sha256 of a sorted text form, recorded before the
contraction W^{ikl} = sum_j w^{ij} d_j w^{kl} was shared: the product
rules of kappa-Minkowski (n = 4, 5, 6) and of a quadratic Nambu bivector,
that bivector's correction tensor and unit-density gauge, and the Jacobi
defect of the non-Poisson control.  The rule tables of six more families
at five (order, trunc) pairs, each coefficient with its truncation, were
recorded while every rule was still written out by hand, sector by
sector, before the rules were derived from the coordinate operators.
"""

import hashlib
import json

import pytest

from ncqm.exact_algebra import ThetaPoly, parse_polynomial
from ncqm.operators import build_gamma1
from ncqm.poisson import (
    PoissonBivector,
    constant_bivector,
    fuzzy_sphere_bivector,
    jacobi_defect,
)
from ncqm.star import StarProduct, gauge_b


def kappa(n: int) -> PoissonBivector:
    """w^{1k} = x^k."""
    return PoissonBivector(n, {(0, k): ThetaPoly.coordinate(n, k) for k in range(1, n)})


def bivector(rows: dict) -> PoissonBivector:
    return PoissonBivector(3, {k: parse_polynomial(v, 3) for k, v in rows.items()})


# w^{ij} = eps^{ijk} d_k C for C = x3^3/3 + x1^2*x2 + x2^2
NAMBU = bivector({(0, 1): "x3^2", (1, 2): "2*x1*x2", (2, 0): "x1^2+2*x2"})
NON_POISSON = bivector({(0, 1): "x2", (1, 2): "x3", (2, 0): "x1"})
# C = 2*x1*x2*x3 - x3^2/2
NAMBU_LINEAR = bivector({(0, 1): "2*x1*x2-x3", (1, 2): "2*x2*x3", (2, 0): "2*x1*x3"})

TABLE_FAMILIES = {
    "fuzzy": fuzzy_sphere_bivector(),
    "planar": PoissonBivector(2, {(0, 1): parse_polynomial("1+x1^2+x2^2", 2)}),
    "quadratic": PoissonBivector(2, {(0, 1): parse_polynomial("x1*x2", 2)}),
    "constant3": constant_bivector([[0, 1, -2], [-1, 0, 3], [2, -3, 0]]),
    "constant4": constant_bivector(
        [[0, 2, 0, 1], [-2, 0, 0, 0], [0, 0, 0, -3], [-1, 0, 3, 0]]),
    "nambu": NAMBU_LINEAR,
}
ORDER_TRUNC = ((1, 3), (2, 2), (2, 3), (3, 3), (3, 4))
TABLE_DIGESTS = {
    "fuzzy": "6f93f05c6b61bf85b02a9a604b38b6a964368ca1f12d6a978ed7fba0cc08b179",
    "planar": "e18dff5da13a004644728d6116fc1d82bdfcdc3dc7ee51198c11b81fccb07ad7",
    "quadratic": "6ade7964bfcc48e352c521c7d68e3bc40368169e12010b0049094b017444c121",
    "constant3": "a6045cd951f99e4e029bf69f17aa2e050f117d91d0b2cbe76ce2848c69b63436",
    "constant4": "33c55efea1a78805cfc26bf3464421c581659848f77d1cdad0a5585202abb039",
    "nambu": "f2861a72d854ef927aaea707f17dae27c368a1dd87d5aca1407df300689acdd6",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rules_text(w: PoissonBivector) -> str:
    product = StarProduct(w, 3)
    return "\n".join(f"{k} {a} {b} {coeff.text()}"
                     for k, rule in enumerate(product.slices)
                     for (a, b), coeff in sorted(rule.items()))


@pytest.mark.parametrize("n,expected", [
    (4, "1a3f49f2e16d3d034b63cafc9b12b7a9fa157b7c12b481062aaf2567a905081c"),
    (5, "e64a39dabf6007d6c1f85f9faf7fc5707221c3358cbe0d6671c387ee8183054e"),
    (6, "46d7170a0221d8b16507f1c10e84c1f92db536656a364824ff864bcc9aa86faa"),
])
def test_kappa_rules(n, expected):
    assert digest(rules_text(kappa(n))) == expected


def truncated_rules_text(w: PoissonBivector) -> str:
    """Every rule at each (order, trunc) pair, with its coefficient's
    truncation, so a rule that keeps the right text at the wrong
    truncation shows too."""
    lines = []
    for order, trunc in ORDER_TRUNC:
        product = StarProduct(w, order, trunc=trunc)
        lines += [f"{order} {trunc} {k} {a} {b} {coeff.text()} {coeff.trunc}"
                  for k, rule in enumerate(product.slices)
                  for (a, b), coeff in sorted(rule.items())]
    return "\n".join(lines)


@pytest.mark.parametrize("family", list(TABLE_FAMILIES))
def test_rule_tables(family):
    assert digest(truncated_rules_text(TABLE_FAMILIES[family])) == TABLE_DIGESTS[family]


def test_nambu_rules():
    assert digest(rules_text(NAMBU)) == \
        "6112f2f4b8661a91864aade5367e1c7fa2c7343cea7a5c01d64223c54cf0e8d2"


def test_nambu_gamma1():
    components = sorted(build_gamma1(NAMBU).components.items())
    text = "\n".join(f"{k} {p.text()}" for k, p in components)
    assert digest(text) == \
        "705c0b77bb6e07dc5f9d6f77357216bd7e07e962f6e389a52298559a6281a48f"


def test_nambu_gauge():
    gauge = gauge_b(ThetaPoly.one(3), NAMBU)
    assert digest(json.dumps(gauge.to_json(), sort_keys=True)) == \
        "dbb32823f31936c8b906db2088170d3521f0ff727f6b6533c8aa0ab2bc0ae4ac"


def test_non_poisson_jacobi():
    defect = jacobi_defect(NON_POISSON)
    assert not defect.is_zero
    assert digest(json.dumps(defect.to_json(), sort_keys=True)) == \
        "ef7ef9dc77f750e9e469a571d7e7a3ae3a89a3088835e62c61590b99e2cb1961"


@pytest.mark.parametrize("w", [NAMBU, NON_POISSON, kappa(4)],
                         ids=["nambu", "non-poisson", "kappa4"])
def test_contraction_is_the_gradient_sum(w):
    """The shared table against its definition, term by term."""
    n = w.n
    for i in range(n):
        for k in range(n):
            for l in range(n):
                direct = ThetaPoly.zero(n)
                for j in range(n):
                    direct = direct + w.entry(i, j) * w.entry(k, l).diff_x(j)
                assert w.contraction(i, k, l) == direct


def test_entries_are_stored():
    assert NAMBU.entry(0, 0) is NAMBU.entry(0, 0)
    assert NAMBU.entry(2, 0) is NAMBU.entry(2, 0)
    assert NAMBU.entry(0, 2) == -NAMBU.entry(2, 0)
