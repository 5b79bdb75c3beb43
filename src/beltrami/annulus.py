"""Curl eigenvalues on a family of flat unimodular metrics on T^3.

The metric with parameter n is diagonal, g = diag(1/n, 1/n, n^2), in the
coordinates (x, y, z) = (phi1, phi2, t) of beltrami.torus, each of period
2 pi; n = 1 is the flat torus.  Its determinant is one, so every member of
the family has volume (2 pi)^3; yet the smallest positive curl eigenvalue
is 1/n, so the normalized eigenvalue of the family decreases without bound
as n grows.

The metric is constant, so the curl keeps the waves of each wavevector k,
and its nonzero eigenvalues on them are +-lambda with

    lambda^2 = n (k1^2 + k2^2) + k3^2 / n^2      (torus.curl_spectrum_sq).

Every coordinate has period 2 pi, so k is integral: the t-frequency k3 is
an integer, and a doubled t-frequency m = 2 k3 is always even.  Each term
of lambda^2 is a nonnegative multiple of some k_i^2, and k_i^2 >= 1 when
k_i != 0.  So a twisted mode, (k1, k2) != 0, has lambda^2 >= n, attained
at k = (1, 0, 0), and a pure t-mode has lambda^2 >= 1/n^2, attained at
k = (0, 0, 1); as n >= 1 the second is the smaller, and nothing needs
enumerating.
The first eigenfields are exact TorusFields, and the eigen equation is
checked by exact equality of rational Fourier series, with no tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .exactpoly import check_int, integer_numerators
from .torus import (VOLUME, TorusField, TorusScalar, curl_spectrum_sq,
                    metric_diagonal)


def metric_determinant(n: int) -> Fraction:
    """Exactly one for every parameter: the family is unimodular."""
    return math.prod(metric_diagonal(n))


def volume(n: int) -> float:
    """Total volume (2 pi)^3, independent of the parameter."""
    check_int(n, "n", 1)
    return VOLUME


def first_eigenvalue(n: int) -> Fraction:
    """The smallest positive eigenvalue 1/n: the exact square root of
    curl_spectrum_sq((0, 0, 1), n), checked by squaring it back."""
    square = curl_spectrum_sq((0, 0, 1), n)
    den, [num] = integer_numerators([{0: square}])
    p, q = math.isqrt(num[0]), math.isqrt(den)
    if p * p != num[0] or q * q != den:
        raise ArithmeticError(f"{square} is not the square of a rational")
    return Fraction(p, q)


# benchmark/layertrace.py times AnnulusField.eigen_residual under this
# name, so the torus field type keeps it here.
AnnulusField = TorusField


def first_eigenfields(n: int) -> Tuple[TorusField, TorusField]:
    """The explicit eigenfield pair attaining the eigenvalue 1/n.

    v1 = sin t d/dphi1 + cos t d/dphi2 and its quarter-period translate
    v2 = cos t d/dphi1 - sin t d/dphi2; at t = 0 the first field points
    along d/dphi2.
    """
    check_int(n, "n", 1)
    sin_t, cos_t = TorusScalar.sine((0, 0, 1)), TorusScalar.cosine((0, 0, 1))
    v1 = TorusField([sin_t, cos_t, TorusScalar()])
    v2 = TorusField([cos_t, -1 * sin_t, TorusScalar()])
    return v1, v2


def bound_constants() -> Dict[str, float]:
    """The reference constants for normalized first-eigenvalue bounds.

    'round_sphere' is the normalized value 2 (2 pi^2)^(1/3) of the round
    three-sphere, 'ball_volume_cbrt' the cube root (4 pi / 3)^(1/3) of the
    unit ball volume, and 'conformal_lower_bound' the threshold
    (16 / pi)^(1/3) below which no conformally deformed sphere can fall.
    """
    return {
        "round_sphere": 2.0 * (2.0 * math.pi ** 2) ** (1.0 / 3.0),
        "ball_volume_cbrt": (4.0 * math.pi / 3.0) ** (1.0 / 3.0),
        "conformal_lower_bound": (16.0 / math.pi) ** (1.0 / 3.0),
    }
