"""Free particle and fuzzy-sphere oscillator as exact derivations."""

from fractions import Fraction

import pytest

from ncqm.exact_algebra import ThetaPoly, UsageError, parse_polynomial
from ncqm.operators import l_squared
from ncqm.qm_examples import (
    build_fuzzy_oscillator,
    energy_correction,
    free_particle_check,
    rotation_covariance_check,
    solid_harmonics,
)
from ncqm.star import MeasureError, StarProduct, gauge_b, measure_defect

from oracles import l_squared_eigencheck


class TestFreeParticle:
    @pytest.mark.parametrize("mu_text,n", [
        ("1", 3),
        ("1+x1^2", 3),
        ("1+x1^2+x2^2+x3^2", 3),
        ("1+x1^2", 1),
        ("(1+x1^2)^2", 1),
    ])
    def test_conjugation_identities(self, mu_text, n):
        report = free_particle_check(parse_polynomial(mu_text, n))
        assert report.momentum_identity
        assert report.hamiltonian_identity
        assert report.momenta_commute

    def test_eigenvalue_symbol(self):
        report = free_particle_check(parse_polynomial("1+x1^2", 3))
        expect = ThetaPoly.zero(3, 3)
        for i in range(3):
            expect = expect + ThetaPoly.momentum(3, i) ** 2
        assert report.eigenvalue_symbol == expect.scale(Fraction(1, 2))

    def test_zero_density_rejected(self):
        with pytest.raises(UsageError):
            free_particle_check(ThetaPoly.zero(2))


class TestOscillator:
    def test_identity_and_first_grade(self):
        report = build_fuzzy_oscillator()
        assert report.first_grade_vanishes
        assert report.identity_holds
        assert report.correction_coefficient == Fraction(1, 24)

    def test_grade2_slice_value(self):
        report = build_fuzzy_oscillator()
        assert report.potential_slices[2] == l_squared().scale(Fraction(1, 12))

    def test_grade0_is_radius_squared(self):
        from ncqm.operators import DiffOperator
        report = build_fuzzy_oscillator()
        r2 = parse_polynomial("x1^2+x2^2+x3^2", 3)
        assert report.potential_slices[0] == DiffOperator(r2)

    def test_energy_corrections(self):
        assert energy_correction(2, 0).coefficient == 0
        assert energy_correction(1, 1).coefficient == Fraction(1, 12)
        assert energy_correction(2, 2).coefficient == Fraction(1, 4)
        assert energy_correction(2, 1).unperturbed == Fraction(7, 2)
        with pytest.raises(UsageError):
            energy_correction(1, 2)

    def test_correction_from_eigenvalues(self):
        # shift = coefficient of the squared generator times its eigenvalue
        for l in range(3):
            assert energy_correction(2, l).coefficient == \
                Fraction(l * (l + 1), 24)


class TestAngularMomentum:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_eigencheck(self, l):
        assert l_squared_eigencheck(l)

    def test_harmonics_are_harmonic(self):
        from ncqm.operators import laplacian
        lap = laplacian(3)
        for l in range(3):
            for y in solid_harmonics(l):
                assert lap.apply(y).is_zero


class TestRotationCovariance:
    def test_full_report(self):
        report = rotation_covariance_check()
        assert report.generators_close
        assert report.coordinates_vector
        # holds at every computed grade, not only grade zero
        assert report.coordinate_ops_vector
        assert report.radius_invariant
        assert report.correction_invariant


class TestModel:
    """The fuzzy-sphere bivector and its densities; StarProduct redoes the
    Jacobi check and gauge_b the density check."""

    def test_model_validation(self, fuzzy):
        for mu_text in ("1", "x1^2+x2^2+x3^2"):
            mu = parse_polynomial(mu_text, 3)
            assert all(d.is_zero for d in measure_defect(mu, fuzzy))

    def test_invalid_measure_rejected(self, fuzzy):
        mu = parse_polynomial("1+x1", 3)
        assert any(not d.is_zero for d in measure_defect(mu, fuzzy))
        with pytest.raises(MeasureError):
            gauge_b(mu, StarProduct(fuzzy, 2))
