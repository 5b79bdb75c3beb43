"""Curl spectra, helicity functionals, and conformal eigenvalue optimality.

Exact and floating tools for the spectral theory of the curl operator on the
round 3-sphere (plus RP^3, the flat 3-torus, and a toroidal annulus family):
explicit eigenbases, an exact polynomial Galerkin eigensolver, the L^{3/2}
energy and helicity functionals with their high-order derivatives at the Hopf
field, and conformal-perturbation eigenvalue scans.
"""

from beltrami.annulus import (
    bound_constants,
    first_eigenvalue,
)
from beltrami.atlas import (
    eigen_decompose,
    eigenspace_solve,
    explicit_basis,
    helicity,
)
from beltrami.conformal import (
    ConformalFactor,
    assemble_pencil,
    mu1_normalized,
    optimality_scan,
)
from beltrami.exactpoly import (
    ExactScalar,
    Poly4,
    RATIONAL_BACKEND,
    Rat,
    SphereScalar,
    canonicalize,
    directional_derivative,
    integrate_monomial,
    integrate_poly,
)
from beltrami.frames import FrameField, curl, divergence, grad, hopf_frame
from beltrami.functionals import (
    HopfPerturbation,
    correction_field,
    dE_at_hopf,
    dF_at_hopf,
    identity_report,
    l32_energy,
    local_max_scan,
    second_variation_R,
)
from beltrami.torus import (
    abc_field,
    curl_spectrum_sq,
    first_variation,
    speed_is_constant,
    torus_pencil,
)

__all__ = [
    "ConformalFactor",
    "ExactScalar",
    "FrameField",
    "HopfPerturbation",
    "Poly4",
    "RATIONAL_BACKEND",
    "Rat",
    "SphereScalar",
    "abc_field",
    "assemble_pencil",
    "bound_constants",
    "canonicalize",
    "correction_field",
    "curl",
    "curl_spectrum_sq",
    "dE_at_hopf",
    "dF_at_hopf",
    "directional_derivative",
    "divergence",
    "eigen_decompose",
    "eigenspace_solve",
    "explicit_basis",
    "first_eigenvalue",
    "first_variation",
    "grad",
    "helicity",
    "hopf_frame",
    "identity_report",
    "integrate_monomial",
    "integrate_poly",
    "l32_energy",
    "local_max_scan",
    "mu1_normalized",
    "optimality_scan",
    "second_variation_R",
    "speed_is_constant",
    "torus_pencil",
]

__version__ = "0.1.0"
