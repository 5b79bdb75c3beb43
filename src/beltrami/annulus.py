"""Curl eigenvalues on a family of flat unimodular metrics on T^3.

The metric with parameter n is diagonal, g = diag(1/n, 1/n, n^2), in the
coordinates (x, y, z) = (phi1, phi2, t) of beltrami.torus, each of period
2 pi; n = 1 is the flat torus.  Its determinant is one, so every member of
the family has volume (2 pi)^3; yet the smallest positive curl eigenvalue
is 1/n, so the normalized eigenvalue of the family decreases without bound
as n grows.  Separation of variables gives candidate eigenvalues

    lambda^2 = n (m1^2 + m2^2) + m^2 / (4 n^2)

indexed by the angular wavenumbers m1, m2 and the doubled t-frequency m
(m must be even when m1 = m2 = 0, since a pure t-mode needs an integer
frequency).  Any candidate with m1^2 + m2^2 > 0 already has lambda >= 1
for n >= 1, so the bottom of the positive spectrum within these families
is attained by the pure t-modes.  Their eigenfields are exact
TorusFields, and the eigen equation is checked by exact equality of
rational Fourier series, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .torus import (VOLUME, TorusField, TorusScalar, _check_parameter,
                    metric_diagonal)


def metric(n: int) -> List[List[Fraction]]:
    """The diagonal metric diag(1/n, 1/n, n^2) with exact entries."""
    return [[g if i == j else Fraction(0) for j in range(3)]
            for i, g in enumerate(metric_diagonal(n))]


def metric_determinant(n: int) -> Fraction:
    """Exactly one for every parameter: the family is unimodular."""
    g = metric(n)
    return g[0][0] * g[1][1] * g[2][2]


def volume(n: int) -> float:
    """Total volume (2 pi)^3, independent of the parameter."""
    _check_parameter(n)
    return VOLUME


@dataclass(frozen=True)
class AnnulusMode:
    """One separated candidate mode of the curl operator.

    m1 and m2 are the angular wavenumbers, m twice the t-frequency, and
    branch the sign of the eigenvalue.
    """

    n: int
    m1: int
    m2: int
    m: int
    branch: int = 1

    def __post_init__(self):
        _check_parameter(self.n)
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if self.m1 == 0 and self.m2 == 0 and self.m % 2:
            raise ValueError(
                "a pure t-mode has integer frequency: m must be even "
                "when m1 = m2 = 0")

    def eigenvalue_sq(self) -> Fraction:
        """Exact squared eigenvalue n (m1^2 + m2^2) + m^2 / (4 n^2)."""
        return (Fraction(self.n) * (self.m1 ** 2 + self.m2 ** 2)
                + Fraction(self.m ** 2, 4 * self.n ** 2))

    def eigenvalue(self) -> float:
        return self.branch * math.sqrt(float(self.eigenvalue_sq()))


def first_eigenvalue(n: int) -> Fraction:
    """The smallest positive eigenvalue 1/n, from the mode (0, 0, 2)."""
    return Fraction(1, _check_parameter(n))


def spectrum_candidates(n: int, cutoff: int = 3) -> List[dict]:
    """Positive candidate eigenvalues with all wavenumbers up to cutoff.

    Rows are sorted by eigenvalue and labeled 'confirmed' for the pure
    t-modes, whose eigenfields are written down explicitly
    (first_eigenfields), and 'candidate' for the twisted families, where
    attainment by an actual eigenfield is not settled here.  Within the
    enumerated range every twisted candidate has eigenvalue at least one.
    """
    n = _check_parameter(n)
    if isinstance(cutoff, bool) or not isinstance(cutoff, int) or cutoff < 1:
        raise ValueError(f"cutoff must be an int >= 1, got {cutoff!r}")
    rows = []
    for m1 in range(0, cutoff + 1):
        for m2 in range(0, cutoff + 1):
            for m in range(0, cutoff + 1):
                if m1 == 0 and m2 == 0 and m % 2:
                    continue
                mode = AnnulusMode(n, m1, m2, m)
                value = mode.eigenvalue()
                if value <= 0:
                    continue
                label = "confirmed" if m1 == 0 and m2 == 0 else "candidate"
                rows.append({
                    "mode": mode,
                    "eigenvalue_sq": mode.eigenvalue_sq(),
                    "eigenvalue": value,
                    "label": label,
                })
    rows.sort(key=lambda row: row["eigenvalue"])
    return rows


# benchmark/layertrace.py times AnnulusField.eigen_residual under this
# name, so the torus field type keeps it here.
AnnulusField = TorusField


def first_eigenfields(n: int) -> Tuple[TorusField, TorusField]:
    """The explicit eigenfield pair attaining the eigenvalue 1/n.

    v1 = sin t d/dphi1 + cos t d/dphi2 and its quarter-period translate
    v2 = cos t d/dphi1 - sin t d/dphi2; at t = 0 the first field points
    along d/dphi2.
    """
    _check_parameter(n)
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
