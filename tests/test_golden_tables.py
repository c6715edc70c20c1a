"""The rule tables and the tensors read from the bivector contraction,
pinned by digest.

Each digest is the sha256 of a sorted text form, recorded before the
contraction W^{ikl} = sum_j w^{ij} d_j w^{kl} was shared: the product
rules of kappa-Minkowski (n = 4, 5, 6) and of a quadratic Nambu bivector,
that bivector's correction tensor and unit-density gauge, and the Jacobi
defect of the non-Poisson control.  The rule tables of six more families
at five (order, trunc) pairs, each coefficient with its truncation, were
recorded while every rule was still written out by hand, sector by
sector, before the rules were derived from the coordinate operators.  The
Darboux towers of those families and of kappa-Minkowski (n = 3, 4), with
every tensor component and its truncation, were recorded while the tower
was still stored as symmetric tensors.  The coordinate operators of the
six families, each with its truncation, were recorded while the product
still built its own copy of them as raw term lists.  The momentum
operators of two curved densities and their conjugated Hamiltonians, the
first pinned operators with rational coefficients, were recorded while
operators were still stored as (grade, multi-index) -> coefficient tables.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from ncqm.exact_algebra import ThetaPoly, parse_polynomial
from ncqm.cli import ProblemFile, run_task
from ncqm.operators import (
    DiffOperator,
    build_phat,
    build_xhat,
    conjugate_by_measure_power,
)
from ncqm.poisson import (
    PoissonBivector,
    build_gamma,
    constant_bivector,
    fuzzy_sphere_bivector,
    jacobi_defect,
)
from ncqm.star import StarProduct, gauge_b

from conftest import GRADE3_FAMILIES, solved_gamma1
from oracles import gamma1_closed_form


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


TOWER_FAMILIES = {**TABLE_FAMILIES, "kappa3": kappa(3), "kappa4": kappa(4)}
TOWER_DIGESTS = {
    "fuzzy": "bcbd5e62ad931112802acded8b0117b9abf24e8ea3a2a6fceb6444ac65d2528d",
    "planar": "edc1f2db0c741eb6b0ace71f549b921fe34f2e63ef49aa469efb61df3d97241c",
    "quadratic": "1821373cde6e252d39738b7754350c5fc0d6e652cd6b1437689678b9f9b202eb",
    "constant3": "af090b371d66b85cd5e491a750b31f6c18befb5c562faecb3552eec89834eee3",
    "constant4": "21b68d75862f4de4ad18fd8452ae172e890c7a3f3110cb8bfead0bfdaa06731f",
    "nambu": "9a5410a8911e89bf0fc1c2b3107e850ff5998cf49700a6549ff31155d3699bb2",
    "kappa3": "5803e7a03b20676e1d530df53f9a1ba1c7c1b20069c62368d5a47bf9923aab96",
    "kappa4": "521102cad3ee48186fed4bdb0ef724e2d9b01c1c20a364e30a78b16dbe054c8f",
}


def tower_text(w: PoissonBivector) -> str:
    """The report form of the tower and every tensor component with its
    truncation, at orders 1-5 and three truncations each."""
    lines = []
    for order in range(1, 6):
        for trunc in sorted({order, max(order, 3), 5}):
            tower = build_gamma(w, order, trunc)
            lines.append(f"{order} {trunc} {json.dumps(tower.to_json(), sort_keys=True)}")
            for m in range(1, order + 1):
                for lead in range(w.n):
                    for trailing in itertools.combinations_with_replacement(range(w.n), m):
                        c = tower.component(m, lead, trailing)
                        lines.append(f"{m} {lead} {trailing} {c.text()} {c.trunc}")
    return "\n".join(lines)


@pytest.mark.parametrize("family", list(TOWER_FAMILIES))
def test_towers(family):
    assert digest(tower_text(TOWER_FAMILIES[family])) == TOWER_DIGESTS[family]


XHAT_DIGESTS = {
    "fuzzy": "ca7e68fe8147c5c935ab0fe2feb26a681d72a6a38c25fd7ed271039c17d5037c",
    "planar": "582484f5451660025a0fd0d2e43d11e1a2edd38850e80d9403cecd044544749a",
    "quadratic": "d4ebbc9cced237c05043287a8ac40965e5fdcb6f1cd4685605a8f79676d88167",
    "constant3": "afab6eeb80e2a3055da9ca2d7bbafe16aceaafde1ba06eeebceca4f0c2561dc2",
    "constant4": "e1a019ef9099ecd0b1ae6ae3a5a56ab1f9c6f77c64bd998a0e3fa062a03d74d5",
    "nambu": "fe2ee7881728e808728bdad2073550182e4ae7c09c26ffeb70d59055a8122f1d",
}


def xhat_text(w: PoissonBivector) -> str:
    """Every coordinate operator with its truncation at trunc 2, 3 and 4,
    and the bare operators (Q = 0) at trunc 3."""
    lines = []
    for trunc in (2, 3, 4):
        ops = StarProduct(w, 2, trunc=trunc).xhat
        lines += [f"{trunc} {i} {op.text()} {op.trunc}" for i, op in enumerate(ops)]
    bare = build_xhat(build_gamma(w, 3))
    lines += [f"bare {i} {op.text()} {op.trunc}" for i, op in enumerate(bare)]
    return "\n".join(lines)


@pytest.mark.parametrize("family", list(TABLE_FAMILIES))
def test_coordinate_operators(family):
    assert digest(xhat_text(TABLE_FAMILIES[family])) == XHAT_DIGESTS[family]


def test_nambu_rules():
    assert digest(rules_text(NAMBU)) == \
        "6112f2f4b8661a91864aade5367e1c7fa2c7343cea7a5c01d64223c54cf0e8d2"


def test_nambu_gamma1():
    """The correction tensor G1^{ijk} (j <= k), read off Q^i: the
    coefficient of p_j p_k, halved off the diagonal."""
    components = []
    for i, q in enumerate(solved_gamma1(NAMBU)):
        for exps, coeff in q.momentum_blocks().items():
            j, k = (a for a, e in enumerate(exps) for _ in range(e))
            g1 = coeff if j == k else coeff.scale(Fraction(1, 2))
            components.append(((i, (j, k)), g1))
    text = "\n".join(f"{k} {p.text()}" for k, p in sorted(components))
    assert digest(text) == \
        "705c0b77bb6e07dc5f9d6f77357216bd7e07e962f6e389a52298559a6281a48f"


def test_nambu_gauge():
    gauge = gauge_b(ThetaPoly.one(3), StarProduct(NAMBU, 2))
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
    """The Jacobi defect against its definition, term by term: the cyclic
    sum of the contraction W^{ikl} = sum_j w^{ij} d_j w^{kl}."""
    n = w.n

    def contraction(i, k, l):
        direct = ThetaPoly.zero(n)
        for j in range(n):
            direct = direct + w.entry(i, j) * w.entry(k, l).diff_x(j)
        return direct

    defect = jacobi_defect(w)
    for i, j, k in itertools.combinations(range(n), 3):
        assert defect.component(i, j, k) == \
            contraction(i, j, k) + contraction(k, i, j) + contraction(j, k, i)


def test_entries_are_stored():
    assert NAMBU.entry(0, 0) is NAMBU.entry(0, 0)
    assert NAMBU.entry(2, 0) is NAMBU.entry(2, 0)
    assert NAMBU.entry(0, 2) == -NAMBU.entry(2, 0)


@pytest.mark.parametrize("family", list(TABLE_FAMILIES))
def test_product_keeps_the_coordinate_operators(family):
    """At every order the product keeps the tower quantized with the
    closed-form correction."""
    w = TABLE_FAMILIES[family]
    expect = build_xhat(build_gamma(w, 3), gamma1_closed_form(w))
    for order in range(4):
        assert StarProduct(w, order, trunc=3).xhat == expect


# recorded while Q was the closed form: the coordinate operators of the
# products of orders 0-3 at trunc 3, Q, and the subalgebra report
GRADE3_DIGESTS = {
    "kappa-5": (
        "18fa406e5011050aedcecb9127aea2ce0f0a4837fc5bf6161bcf29034245d73b",
        "ded39a5ee4b1fa9cfce11c0357a15b9bfbc9b4ae1dc67cd995ca4b32b31f7f08",
        "772dbec777bc643b9472c49ffd4483bc29fbc05f9c5f4746b7086d442fe9e530"),
    "nambu-cubic": (
        "fe908f539020500d5905d8f0eabfed890a728d84116c0374e35c62000dfd4f1d",
        "4815adcbd5c9c012e3fe6599ba880b42af62458f5c4f3c2231decb8795b61e7e",
        "595922cdc9a7ad4907ea265df69fb4d5383e7218076b8628c41c18316ba30b37"),
    "nambu-construct": (
        "17e1a624ae169e1f3fd52daa1f1fd1b62a162c1d8e49a436ba51796d3a506e4e",
        "20560c51deae1ee3ff8ee48017b7904f3dee2190ee753a5b161780002e82c313",
        "46aac870ad9b2c77c437c0ac6ba0d14c9e8c8c58e0ae2671f02dba15021dfe23"),
    "planar-quadratic": (
        "f6482a8996bf9b8eced8de81b8964a586156bf5929f54abe995a3b2ceebd219e",
        "af2300ca5073d8b992bb1423c0e17d891dac16854380a9236d29884b0504a03f",
        "ab486f1b7247a01e740aa34dc7e174c51af4a7aafea39da1ffc66fea2a38e4d1"),
}


@pytest.mark.parametrize("family", list(GRADE3_DIGESTS))
def test_grade3_correction(family):
    w = GRADE3_FAMILIES[family]
    xhat = "\n".join(f"{k} {i} {op.text()} {op.trunc}" for k in range(4)
                     for i, op in enumerate(StarProduct(w, k, trunc=3).xhat))
    q = "\n".join(f"{i} {p.text()} {p.trunc}" for i, p in enumerate(solved_gamma1(w)))
    doc = {"dim": w.n, "bivector": [{"i": i + 1, "j": j + 1, "poly": p.text()}
                                    for (i, j), p in sorted(w.upper.items())]}
    report = json.dumps(run_task(ProblemFile.parse(json.dumps(doc)), "subalgebra"),
                        sort_keys=True, separators=(",", ":"))
    assert (digest(xhat), digest(q), digest(report)) == GRADE3_DIGESTS[family]


@pytest.mark.parametrize("mu_text,phat_digest", [
    ("1+x1^2+x2^2+x3^2", "7195f605614cfa39893a07f319507c029480b600626f86e3711706f108c0d4eb"),
    ("2+x1^2+x1*x2+x3^2", "152d57fdb092fbd6f3c3924c90d94ec35368b8b318f8f94ebfd0f827d5607159"),
])
def test_curved_momenta(mu_text, phat_digest):
    """The momentum operators and the Hamiltonian sum_i phat_i^2 / 2
    conjugated by the square root of the density: the flat -Laplacian/2."""
    mu = parse_polynomial(mu_text, 3)
    phat = build_phat(mu)
    assert digest("\n".join(f"{op.text()} {op.trunc}" for op in phat)) == phat_digest
    ham = DiffOperator.zero(3, 3)
    for op in phat:
        ham = ham + op.compose(op)
    conj = conjugate_by_measure_power(ham.scale(Fraction(1, 2)), mu, Fraction(1, 2))
    assert digest(f"{conj.text()} {conj.trunc}") == \
        "7533d8ecd41a037f9018f925b6bd73a170893d26c0068159b5beefcce63c5d6b"
