"""Curl eigenvalues on a family of flat unimodular metrics on T^3.

The metric with parameter n is diagonal, g = diag(1/n, 1/n, n^2), in
coordinates (phi1, phi2, t), each of period 2 pi.  Its determinant is one,
so every member of the family has volume (2 pi)^3; yet the smallest
positive curl eigenvalue is 1/n, so the normalized eigenvalue of the
family decreases without bound as n grows.  Separation of variables gives
candidate eigenvalues

    lambda^2 = n (m1^2 + m2^2) + m^2 / (4 n^2)

indexed by the angular wavenumbers m1, m2 and the doubled t-frequency m
(m must be even when m1 = m2 = 0, since a pure t-mode needs an integer
frequency).  Any candidate with m1^2 + m2^2 > 0 already has lambda >= 1
for n >= 1, so the bottom of the positive spectrum within these families
is attained by the pure t-modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

TORUS_VOLUME = (2.0 * math.pi) ** 3


def metric(n: int) -> List[List[Fraction]]:
    """The diagonal metric diag(1/n, 1/n, n^2) with exact entries."""
    n = _check_parameter(n)
    return [
        [Fraction(1, n), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1, n), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(n * n)],
    ]


def metric_determinant(n: int) -> Fraction:
    """Exactly one for every parameter: the family is unimodular."""
    g = metric(n)
    return g[0][0] * g[1][1] * g[2][2]


def volume(n: int) -> float:
    """Total volume (2 pi)^3, independent of the parameter."""
    _check_parameter(n)
    return TORUS_VOLUME


def _check_parameter(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"the metric parameter must be a positive "
                         f"integer, got {n!r}")
    return n


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


class TrigPoly:
    """A finite Fourier series on the torus with exact coefficients.

    terms maps (kind, k) to a nonzero Fraction c, for the term c cos(k.x)
    or c sin(k.x) by kind, with k an integer wave vector and x = (phi1,
    phi2, t).  Each k is stored with its first nonzero entry positive (cos
    is even, sin odd) and sin 0 is dropped, so two series are equal
    exactly when their terms are.
    """

    def __init__(self, terms=()):
        merged: Dict[Tuple[str, Tuple[int, ...]], Fraction] = {}
        for (kind, k), c in terms:
            if tuple(k) < (0, 0, 0):
                k, c = [-a for a in k], (-c if kind == "sin" else c)
            key = (kind, tuple(k))
            merged[key] = merged.get(key, 0) + Fraction(c)
        self.terms = {key: c for key, c in merged.items()
                      if c and (key[0] == "cos" or any(key[1]))}

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + -1 * other

    def __rmul__(self, scalar) -> "TrigPoly":
        return TrigPoly((key, scalar * c) for key, c in self.terms.items())

    def __eq__(self, other) -> bool:
        """Exact equality with another TrigPoly or a rational constant."""
        if not isinstance(other, TrigPoly):
            other = TrigPoly([(("cos", (0, 0, 0)), other)])
        return self.terms == other.terms

    def derivative(self, j: int) -> "TrigPoly":
        """d/dx_j: cos(k.x) -> -k_j sin(k.x), sin(k.x) -> k_j cos(k.x)."""
        return TrigPoly(
            (("sin", k), -k[j] * c) if kind == "cos" else
            (("cos", k), k[j] * c) for (kind, k), c in self.terms.items())


class AnnulusField:
    """A vector field on the torus family with exact Fourier components.

    components are contravariant (coefficients of the coordinate frame
    d/dphi1, d/dphi2, d/dt), each a TrigPoly in (phi1, phi2, t).
    """

    def __init__(self, components: Sequence[TrigPoly]):
        if len(components) != 3:
            raise ValueError("three components expected")
        self.components = tuple(components)

    def curl(self, n: int) -> "AnnulusField":
        """Curl in the metric diag(1/n, 1/n, n^2), computed exactly.

        With unit determinant the components are
        (curl X)^i = g^ii sum_jk eps_ijk g^jj g^kk d_j (g_kk X^k),
        summed here over the cyclic (i, j, k) with eps_ikj = -1.
        """
        g = [row[i] for i, row in enumerate(metric(n))]
        omega = [g[k] * self.components[k] for k in range(3)]
        out = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            out.append(1 / (g[i] * g[j] * g[k]) * (
                omega[k].derivative(j) - omega[j].derivative(k)))
        return AnnulusField(out)

    def eigen_residual(self, n: int, eigenvalue) -> Tuple[TrigPoly, ...]:
        """Components of curl X - eigenvalue X, for an int or Fraction."""
        return tuple(c - Fraction(eigenvalue) * x
                     for c, x in zip(self.curl(n).components, self.components))

    def component_means(self) -> Tuple[TrigPoly, ...]:
        """Average of each component over one period of t: its k3 = 0 modes."""
        return tuple(TrigPoly((key, c) for key, c in x.terms.items()
                              if key[1][2] == 0) for x in self.components)


def first_eigenfields(n: int) -> Tuple[AnnulusField, AnnulusField]:
    """The explicit eigenfield pair attaining the eigenvalue 1/n.

    v1 = sin t d/dphi1 + cos t d/dphi2 and its quarter-period translate
    v2 = cos t d/dphi1 - sin t d/dphi2; at t = 0 the first field points
    along d/dphi2.
    """
    _check_parameter(n)
    sin_t = TrigPoly([(("sin", (0, 0, 1)), 1)])
    cos_t = TrigPoly([(("cos", (0, 0, 1)), 1)])
    v1 = AnnulusField([sin_t, cos_t, TrigPoly()])
    v2 = AnnulusField([cos_t, -1 * sin_t, TrigPoly()])
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
