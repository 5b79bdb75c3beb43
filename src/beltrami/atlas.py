"""The catalogue of explicit curl eigenspaces of S^3 and exact spectral tools.

Explicit orthogonal bases are provided for the eigenvalues +-2 (the Hopf and
anti-Hopf frames), +-3, +-4, and +-5.  Basis fields are stored with all
denominators cleared so that every frame coefficient is a polynomial with
integer coefficients; the exact squared L^2 norm of each stored field is
recorded alongside.  The orthonormal field used in floating computations is
the stored field divided by the square root of that norm, which keeps
irrational normalizers (sqrt 3, sqrt 7, ...) out of the exact backend.

The entries 2 (the Hopf frame), 3 and 4 are closed forms in code.  The
entry 5 (exact Gram-Schmidt on polynomial seed fields) and the entries
-2..-5 (the positive ones pushed forward through the orientation-reversing
reflection x4 -> -x4, which conjugates curl to -curl and keeps the norms)
are read, with their exact norms and in their term order, from the
committed table beltrami.atlas_table on first use; no arithmetic re-derives
them.  tests/atlas_oracle.py re-derives the table, and its tests compare
the two; regenerate it with

    PYTHONPATH=src python tests/atlas_oracle.py > src/beltrami/atlas_table.py

On top of the catalogue sit exact spectral operations for arbitrary
polynomial frame fields: eigenspace projections, full eigendecompositions,
helicity, the inverse curl, and the inverse Laplacian on mean-free scalars.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, List, Optional, Sequence, Tuple

from beltrami.exactpoly import (
    ExactScalar,
    Poly4,
    Rat,
    SphereScalar,
    canonicalize,
    format_exact,
)
from beltrami.frames import FrameField, hopf_frame, laplace_beltrami
from beltrami import solver as _solver
from beltrami.solver import NotExactFieldError

SUPPORTED_EXPLICIT = (2, -2, 3, -3, 4, -4, 5, -5)


class UnsupportedEigenvalueError(ValueError):
    """Raised for eigenvalues with no explicit basis entry."""


class AtlasEntry:
    """One curl eigenspace: eigenvalue, basis fields, exact Gram data."""

    def __init__(self, eigenvalue: int, fields: Sequence[FrameField],
                 label: str, squared_norms: Optional[Sequence] = None):
        self.eigenvalue = eigenvalue
        self.fields = list(fields)
        self.label = label
        if squared_norms is None:
            squared_norms = [f.l2_inner(f) for f in self.fields]
        self.squared_norms = list(squared_norms)

    @property
    def dimension(self) -> int:
        return len(self.fields)

    def orthonormal_float_fields(self) -> List[FrameField]:
        """The basis rescaled to unit L^2 norm (float coefficients)."""
        return [f.scale(1.0 / float(n) ** 0.5)
                for f, n in zip(self.fields, self.squared_norms)]


# ---------------------------------------------------------------------------
# Explicit bases


def _x(i: int) -> SphereScalar:
    return SphereScalar.coordinate(i)


def _field(f1=None, f2=None, f3=None) -> FrameField:
    z = SphereScalar.zero()
    return FrameField(f1 or z, f2 or z, f3 or z)


def _poly_field(p1: Poly4, p2: Poly4, p3: Poly4) -> FrameField:
    return FrameField(canonicalize(p1), canonicalize(p2), canonicalize(p3))


def anti_hopf_frame() -> Tuple[FrameField, FrameField, FrameField]:
    """The anti-Hopf fields: an orthonormal basis of the eigenvalue -2 space.

    Cartesian forms (-x4, x3, -x2, x1), (-x3, -x4, x1, x2), (-x2, x1, x4, -x3).
    """
    b1 = FrameField.from_cartesian((-_x(4), _x(3), -_x(2), _x(1)))
    b2 = FrameField.from_cartesian((-_x(3), -_x(4), _x(1), _x(2)))
    b3 = FrameField.from_cartesian((-_x(2), _x(1), _x(4), -_x(3)))
    return b1, b2, b3


def _mu3_fields() -> List[FrameField]:
    """Denominator-cleared orthogonal basis of the eigenvalue 3 space.

    The first four have squared norm pi^2 (they are pi times a unit field),
    the last four have squared norm 3 pi^2.
    """
    x = _x
    return [
        _field(None, x(1), -x(2)),
        _field(None, x(2), x(1)),
        _field(None, x(3), -x(4)),
        _field(None, x(4), x(3)),
        _field(x(2).scale(-2), x(3), x(4)),
        _field(x(1).scale(2), -x(4), x(3)),
        _field(x(3).scale(2), x(2), -x(1)),
        _field(x(4).scale(2), x(1), x(2)),
    ]


def _mu4_fields() -> List[FrameField]:
    """Denominator-cleared orthogonal basis of the eigenvalue 4 space."""
    x1, x2, x3, x4 = (Poly4.variable(i) for i in range(1, 5))
    z = Poly4.zero()
    sq = lambda a, b: a * a - b * b  # noqa: E731 - local shorthand
    specs = [
        (z, sq(x1, x2), -2 * x1 * x2),
        (z, sq(x3, x4), -2 * x3 * x4),
        (z, 2 * x1 * x2, sq(x1, x2)),
        (z, 2 * x3 * x4, sq(x3, x4)),
        (z, x2 * x4 - x1 * x3, x1 * x4 + x2 * x3),
        (z, x1 * x4 + x2 * x3, x1 * x3 - x2 * x4),
        (x1 * x2 + x3 * x4, z, x2 * x3 - x1 * x4),
        (8 * x1 * x3, 2 * (x1 * x2 - x3 * x4),
         3 * sq(x3, x1) + sq(x4, x2)),
        (4 * (x1 * x4 - x2 * x3), sq(x1, x2) + sq(x3, x4),
         2 * (x1 * x2 + x3 * x4)),
        (14 * x2 * x4 + 2 * x1 * x3, 4 * (x1 * x2 - x3 * x4),
         sq(x1, x3) + 5 * sq(x2, x4)),
        (2 * sq(x1, x3), -(x1 * x4 + x2 * x3), 3 * x1 * x3 + x2 * x4),
        (7 * sq(x2, x4) + sq(x1, x3), -4 * (x1 * x4 + x2 * x3),
         -(2 * x1 * x3 + 10 * x2 * x4)),
        (x3 * x4 - x1 * x2, x1 * x3 + x2 * x4, z),
        (2 * (x1 * x4 + x2 * x3), sq(x1, x4) + sq(x2, x3), z),
        (sq(x2, x3) + sq(x4, x1), 2 * (x1 * x4 - x2 * x3), z),
    ]
    return [_poly_field(*s) for s in specs]


@functools.cache
def explicit_basis(eigenvalue: int) -> AtlasEntry:
    """The explicit atlas entry for an eigenvalue in {+-2, +-3, +-4, +-5}."""
    if eigenvalue not in SUPPORTED_EXPLICIT:
        raise UnsupportedEigenvalueError(
            f"no explicit basis for eigenvalue {eigenvalue}; use "
            "eigenspace_solve for other parts of the spectrum")
    if eigenvalue in (2, 3, 4):
        fields = {2: hopf_frame, 3: _mu3_fields, 4: _mu4_fields}[eigenvalue]()
        return AtlasEntry(eigenvalue, fields, "explicit")
    from beltrami.atlas_table import ENTRIES  # loaded on first use
    label, fields, norms = ENTRIES[eigenvalue]
    return AtlasEntry(
        eigenvalue,
        [FrameField(*(SphereScalar(_table_poly(even), _table_poly(odd))
                      for even, odd in field)) for field in fields],
        label, [ExactScalar({2: Rat(n, d)}) for n, d in norms])


def _table_poly(triples) -> Poly4:
    """A Poly4 from (exponent, numerator, denominator) triples of
    beltrami.atlas_table, in their order."""
    return Poly4({e: Rat(n, d) for e, n, d in triples})


def atlas_entries() -> List[AtlasEntry]:
    return [explicit_basis(mu) for mu in SUPPORTED_EXPLICIT]


# ---------------------------------------------------------------------------
# Solver-backed spectral operations


def eigenspace_solve(dmax: int, limit: int = _solver.DEFAULT_DMAX_LIMIT):
    """Exact solver over the polynomial trial space; see beltrami.solver."""
    return _solver.eigenspace_solve(dmax, limit)


def project_eigen(F: FrameField, eigenvalue: int,
                  limit: int = _solver.DEFAULT_DMAX_LIMIT) -> FrameField:
    """Exact L^2-orthogonal projection onto a curl eigenspace (or onto the
    gradient part for eigenvalue 0), read from the passes that decided the
    field's order (solver.field_dmax); an eigenvalue above that order's
    spectrum gives zero with no larger block built."""
    dmax = max(_solver.field_dmax(F, limit), abs(eigenvalue) - 2, 0)
    if dmax > limit:
        raise ValueError(f"projection onto {eigenvalue} needs dmax {dmax} > "
                         f"limit {limit}")
    return _solver.project_vector(F, eigenvalue, dmax)


class EigenDecomposition:
    """Exact decomposition of a field into curl eigencomponents.

    components maps each active eigenvalue (and 0 for the gradient part) to a
    FrameField; eigen_decompose checks that they sum back to the input.
    """

    def __init__(self, components: Dict[int, FrameField]):
        self.components = components

    def component(self, eigenvalue: int) -> FrameField:
        return self.components.get(eigenvalue, FrameField.zero())


def eigen_decompose(F: FrameField,
                    limit: int = _solver.DEFAULT_DMAX_LIMIT) -> EigenDecomposition:
    """The curl eigencomponents of F at its order solver.field_dmax, read
    from the checked passes, one per parity block, that decided the order.

    The sum-back check follows from sum_mu L_mu == 1 for the Lagrange
    polynomials L_mu; the spectral certificate is p(C) v == 0 (solver).
    """
    dmax = _solver.field_dmax(F, limit)
    spectrum = [0] + [s * m for m in range(2, dmax + 3) for s in (1, -1)]
    components: Dict[int, FrameField] = {}
    for mu in spectrum:
        piece = _solver.project_vector(F, mu, dmax)
        if not piece.is_zero():
            components[mu] = piece
    if sum(components.values(), FrameField.zero()) != F:
        raise _solver.SpectrumError("eigencomponents do not sum to the field")
    return EigenDecomposition(components)


def helicity(F: FrameField, limit: int = _solver.DEFAULT_DMAX_LIMIT) -> ExactScalar:
    """Exact helicity sum_mu |P_mu F|^2 / mu of an exact field, from one
    spectral pairing (solver.helicity_pairing) of the passes that decided
    its order (solver.field_dmax): no component is formed."""
    return _solver.helicity_pairing(F, _solver.field_dmax(F, limit))


def curl_inverse(F: FrameField,
                 limit: int = _solver.DEFAULT_DMAX_LIMIT) -> FrameField:
    """The exact vector potential: curl(curl_inverse(F)) = F.  Rejects a
    gradient part; with no mu = 0 part, F = sum_mu curl(P_mu F) / mu is
    divergence-free exactly."""
    components = eigen_decompose(F, limit).components
    if 0 in components:
        raise NotExactFieldError(
            "field has a nonzero divergence or gradient part; the inverse "
            "curl is defined for exact fields only")
    out = FrameField.zero()
    for mu, piece in components.items():
        out = out + piece.scale(Rat(1, mu))
    return out


def inverse_laplacian(s: SphereScalar) -> SphereScalar:
    """The mean-free phi with laplace_beltrami(phi) == s - mean(s).

    The Laplacian is k(k + 2) on the degree-k spherical harmonics, and a
    parity part of degree d is a sum of harmonics of degree k <= d of its
    parity.  On that part phi = sum_{lam != 0} P_lam s / lam, with the
    Lagrange projectors P_lam = prod_{nu != lam} (Delta - nu) / (lam - nu)
    of the solver, so phi is a polynomial in the Laplacian applied to s.
    Exact for rational s, float for float s.
    """
    out = SphereScalar.zero()
    for parity, part in ((0, SphereScalar(s.even_part, Poly4.zero())),
                         (1, SphereScalar(Poly4.zero(), s.odd_part))):
        spectrum = tuple(k * (k + 2)
                         for k in range(parity, part.degree() + 1, 2))
        numerators, _ = _solver._lagrange_numerators(spectrum)
        for k in range(len(spectrum)):
            if k:
                part = laplace_beltrami(part)
            c = sum(Rat(n[k], lam * d) for lam, (n, d) in numerators.items()
                    if lam)
            out = out + part.scale(c)
    return out


# ---------------------------------------------------------------------------
# Export


def atlas_export() -> str:
    """JSON dump of the explicit atlas for external cross-checking."""
    payload = []
    for entry in atlas_entries():
        fields = []
        for field, norm in zip(entry.fields, entry.squared_norms):
            fields.append({
                "coefficients": [
                    {"".join(map(str, e)): str(c)
                     for e, c in coeff.representative().terms.items()}
                    for coeff in field.f
                ],
                "squared_norm": format_exact(norm),
            })
        payload.append({
            "eigenvalue": entry.eigenvalue,
            "dimension": entry.dimension,
            "label": entry.label,
            "fields": fields,
        })
    return json.dumps(payload, indent=2)
