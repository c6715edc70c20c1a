"""Exact engine for quantum mechanics on coordinate-dependent
noncommutative spaces: Darboux coordinate construction, star products,
trace functionals, and the worked free-particle / oscillator checks.

All arithmetic is exact (Gaussian rationals); identities are verified per
grade of the deformation parameter with zero tolerance.
"""

from .exact_algebra import (
    GaussianFunction,
    GaussianIntegral,
    GaussianRational,
    ThetaPoly,
    gaussian_integrate,
    parse_polynomial,
)
from .operators import (
    DiffOperator,
    build_gamma1,
    build_phat,
    build_xhat,
    subalgebra_defect,
)
from .poisson import (
    GammaTower,
    NotPoissonError,
    PoissonBivector,
    assemble_darboux,
    build_gamma,
    canonical_bracket,
    fuzzy_sphere_bivector,
    general_brackets,
    jacobi_defect,
    verify_darboux,
)
from .qm_examples import (
    build_fuzzy_oscillator,
    energy_correction,
    free_particle_check,
    rotation_covariance_check,
)
from .star import (
    StarProduct,
    assoc_defect,
    cyclicity_defect,
    gauge_b,
    measure_defect,
    trace,
)

__all__ = [
    "GaussianRational",
    "ThetaPoly",
    "GaussianFunction",
    "GaussianIntegral",
    "gaussian_integrate",
    "parse_polynomial",
    "PoissonBivector",
    "NotPoissonError",
    "jacobi_defect",
    "canonical_bracket",
    "GammaTower",
    "build_gamma",
    "assemble_darboux",
    "verify_darboux",
    "general_brackets",
    "fuzzy_sphere_bivector",
    "DiffOperator",
    "build_xhat",
    "build_gamma1",
    "build_phat",
    "subalgebra_defect",
    "StarProduct",
    "assoc_defect",
    "measure_defect",
    "gauge_b",
    "trace",
    "cyclicity_defect",
    "build_fuzzy_oscillator",
    "energy_correction",
    "free_particle_check",
    "rotation_covariance_check",
]
