"""The two worked quantum-mechanics checks as exact derivations.

Free particle on a general polynomial density: the similarity transform by
the square root of the density reduces the Hamiltonian to the flat
Laplacian, forcing plane-wave eigenstates with energy k.k/2.

Isotropic oscillator on the rotationally invariant linear bivector: left
gauge-corrected multiplication by the squared radius produces, at second
grade, exactly 1/24 of the squared angular momentum, so the energy shift
is th^2 w^2 l(l+1)/24 with the magnetic degeneracy intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_algebra import (
    GaussianRational,
    ThetaPoly,
    UsageError,
)
from .operators import (
    DiffOperator,
    angular_momentum,
    build_phat,
    conjugate_by_measure_power,
    l_squared,
    laplacian,
    plane_wave_symbol,
)
from .poisson import fuzzy_sphere_bivector, levi_civita
from .star import StarProduct, gauge_b

TRUNC = 3  # the truncation both worked examples are built at
MAX_L = 2  # the oscillator report lists the levels l = 0..MAX_L


@dataclass(frozen=True)
class FreeParticleReport:
    """Exact operator identities behind the free spectrum."""

    conjugated_momenta: tuple[DiffOperator, ...]
    momentum_identity: bool
    hamiltonian_identity: bool
    momenta_commute: bool
    eigenvalue_symbol: ThetaPoly

    def to_json(self) -> dict:
        return {
            "momentum_identity": self.momentum_identity,
            "hamiltonian_identity": self.hamiltonian_identity,
            "momenta_commute": self.momenta_commute,
            "eigenvalue_symbol": self.eigenvalue_symbol.text(),
        }


def free_particle_check(mu: ThetaPoly) -> FreeParticleReport:
    """Verify the similarity reduction of the free Hamiltonian.

    Conjugating each momentum operator by the square root of the density
    must return the bare derivative exactly; the conjugated Hamiltonian is
    then half the flat Laplacian and its plane-wave symbol reports the
    energy k.k/2.
    """
    if mu.is_zero:
        raise UsageError("density must be nonzero")
    n, trunc = mu.n, TRUNC
    phat = build_phat(mu, trunc)
    minus_i = GaussianRational(0, -1)
    conj = tuple(conjugate_by_measure_power(op, mu, Fraction(1, 2)) for op in phat)
    momentum_ok = all(
        conj[i] == DiffOperator.derivative(n, i, trunc).scale(minus_i)
        for i in range(n))
    ham = DiffOperator.zero(n, trunc)
    for op in phat:
        ham = ham + op.compose(op)
    ham = ham.scale(Fraction(1, 2))
    conj_ham = conjugate_by_measure_power(ham, mu, Fraction(1, 2))
    ham_ok = conj_ham == laplacian(n, trunc).scale(Fraction(-1, 2))
    commute = all(phat[i].commutator(phat[j]).is_zero
                  for i in range(n) for j in range(i + 1, n))
    symbol = plane_wave_symbol(conj_ham)
    return FreeParticleReport(conj, momentum_ok, ham_ok, commute, symbol)


@dataclass(frozen=True)
class EnergyCorrection:
    """Exact level shift th^2 w^2 l(l+1)/24 beside the flat level."""

    n: int
    l: int
    coefficient: Fraction          # multiplies th^2 * w_osc^2
    unperturbed: Fraction          # multiplies w_osc, plus 3/2

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "l": self.l,
            "shift": f"({self.coefficient})*th^2*w_osc^2",
            "unperturbed": f"({self.unperturbed})*w_osc",
        }


def energy_correction(principal: int, l: int) -> EnergyCorrection:
    if l < 0 or l > principal:
        raise UsageError("need 0 <= l <= n")
    return EnergyCorrection(
        principal, l,
        Fraction(l * (l + 1), 24),
        Fraction(2 * principal + 3, 2),
    )


@dataclass(frozen=True)
class OscillatorReport:
    """Exact operator content of the corrected oscillator Hamiltonian.

    The potential enters through gauge-corrected left multiplication by
    the squared radius; ``potential_slices[k]`` is the grade-k slice of
    that operator through grade 2 (the frequency squared over two
    multiplies the whole potential and is kept symbolic).
    """

    frequency_symbol: str
    potential_slices: tuple[DiffOperator, ...]
    correction_coefficient: Fraction
    identity_holds: bool
    first_grade_vanishes: bool
    corrections: tuple[EnergyCorrection, ...]

    def to_json(self) -> dict:
        return {
            "frequency_symbol": self.frequency_symbol,
            "correction_coefficient": str(self.correction_coefficient),
            "identity_holds": self.identity_holds,
            "first_grade_vanishes": self.first_grade_vanishes,
            "levels": [c.to_json() for c in self.corrections],
        }


def build_fuzzy_oscillator() -> OscillatorReport:
    """Assemble the oscillator on the fuzzy sphere and verify, as exact
    operator identities, that the grade-1 slice of the potential vanishes
    and the grade-2 slice equals L^2/12 (so the Hamiltonian correction is
    th^2 w^2 L^2 / 24)."""
    trunc = TRUNC
    product = StarProduct(fuzzy_sphere_bivector(trunc=trunc), 2, trunc=trunc)
    gauge = gauge_b(ThetaPoly.one(3, trunc), product)
    r2 = ThetaPoly.zero(3, trunc)
    for i in range(3):
        r2 = r2 + ThetaPoly.coordinate(3, i, trunc) ** 2
    potential = product.with_gauge(gauge).left_multiplication_operator(r2)
    slices = tuple(potential.theta_slice(k) for k in range(product.order + 1))
    first_ok = slices[1].is_zero
    target = l_squared(trunc).scale(Fraction(1, 12))
    identity_ok = slices[2] == target
    corrections = tuple(energy_correction(MAX_L, l) for l in range(MAX_L + 1))
    return OscillatorReport(
        frequency_symbol="w_osc",
        potential_slices=slices,
        correction_coefficient=Fraction(1, 24),
        identity_holds=identity_ok,
        first_grade_vanishes=first_ok,
        corrections=corrections,
    )


def solid_harmonics(l: int, trunc: int = 3) -> list[ThetaPoly]:
    """A spanning set of degree-l harmonic polynomials (not normalized)."""
    x = [ThetaPoly.coordinate(3, i, trunc) for i in range(3)]
    i_unit = GaussianRational(0, 1)
    if l == 0:
        return [ThetaPoly.one(3, trunc)]
    if l == 1:
        return [x[0] + x[1].scale(i_unit), x[2], x[0] - x[1].scale(i_unit)]
    if l == 2:
        plus = x[0] + x[1].scale(i_unit)
        minus = x[0] - x[1].scale(i_unit)
        return [plus * plus,
                x[2] * plus,
                x[2] * x[2] * 2 - x[0] * x[0] - x[1] * x[1],
                x[2] * minus,
                minus * minus]
    raise UsageError("only l <= 2 tabulated")


@dataclass(frozen=True)
class RotationReport:
    """Exact commutators of the rotation generators with the model."""

    generators_close: bool
    coordinates_vector: bool
    coordinate_ops_vector: bool
    radius_invariant: bool
    correction_invariant: bool

    def to_json(self) -> dict:
        return {
            "generators_close": self.generators_close,
            "coordinates_vector": self.coordinates_vector,
            "coordinate_ops_vector": self.coordinate_ops_vector,
            "radius_invariant": self.radius_invariant,
            "correction_invariant": self.correction_invariant,
        }


def _transforms_as_vector(L: list[DiffOperator], ops: list[DiffOperator],
                          trunc: int) -> bool:
    """[L_i, V_j] = i eps^{ijk} V_k for every i, j, exactly."""
    i_unit = GaussianRational(0, 1)
    for i in range(3):
        for j in range(3):
            expect = DiffOperator.zero(3, trunc)
            for k in range(3):
                e = levi_civita(i, j, k)
                if e:
                    expect = expect + ops[k].scale(i_unit * e)
            if L[i].commutator(ops[j]) != expect:
                return False
    return True


def rotation_covariance_check() -> RotationReport:
    """Check rotational covariance of the fuzzy-sphere construction as
    exact operator identities, through the built grade: the generators,
    the coordinate multiplications and the full coordinate operators all
    transform as vectors."""
    trunc = TRUNC
    w = fuzzy_sphere_bivector(trunc=trunc)
    L = [angular_momentum(3, i, trunc) for i in range(3)]
    xmul = [DiffOperator(ThetaPoly.coordinate(3, k, trunc)) for k in range(3)]
    xhat = StarProduct(w, 2, trunc=trunc).xhat

    r2 = ThetaPoly.zero(3, trunc)
    for i in range(3):
        r2 = r2 + ThetaPoly.coordinate(3, i, trunc) ** 2
    r2op = DiffOperator(r2)
    radius_ok = all(L[i].commutator(r2op).is_zero for i in range(3))

    corr = l_squared(trunc)
    corr_ok = all(L[i].commutator(corr).is_zero for i in range(3))

    return RotationReport(_transforms_as_vector(L, L, trunc),
                          _transforms_as_vector(L, xmul, trunc),
                          _transforms_as_vector(L, xhat, trunc),
                          radius_ok, corr_ok)
