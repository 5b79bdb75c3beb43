"""Vector fields on S^3 in the orthonormal Hopf frame, with exact calculus.

The frame B1, B2, B3 consists of the restrictions to S^3 of the linear fields

    B1 = (-x2,  x1, -x4,  x3)
    B2 = (-x3,  x4,  x1, -x2)
    B3 = (-x4, -x3,  x2,  x1)

which are Killing fields spanning the tangent space at every point.  A
FrameField stores three SphereScalar coefficients f1, f2, f3 representing
f1 B1 + f2 B2 + f3 B3.  Because the frame is orthonormal, pointwise inner
products reduce to coefficient arithmetic, and curl, divergence, gradient,
and the Laplace-Beltrami operator close exactly on polynomial coefficients:

    curl(F)  = 2 F + (B2 f3 - B3 f2) B1 + (B3 f1 - B1 f3) B2
                   + (B1 f2 - B2 f1) B3
    div(F)   = B1 f1 + B2 f2 + B3 f3
    grad(s)  = (B1 s) B1 + (B2 s) B2 + (B3 s) B3
    Delta(s) = -(B1 B1 s + B2 B2 s + B3 B3 s)   (nonnegative spectrum)

The orientation is fixed so that curl(B1) = +2 B1.

With L_i = FRAME_GENERATORS[i - 1], every frame linear form (L_i x)_a is a
signed coordinate +-x_m (_FRAME_FORMS), so multiplying by it shifts one
exponent, and exactpoly's monomial normal form takes the product back to
normal form.  That gives the Cartesian components sum_i f_i (L_i x)_a, their
inverse from_cartesian, and, for a reduced monomial x^e,

    B_i x^e = sum_a e_a x^(e - delta_a) (L_i x)_a.

These images are kept, with their integer coefficients, in a memoized table
(derivative_table); frame_derivative scales the table entries by the
coefficients of its argument, which keeps both parity parts in normal form
for any coefficient type.  The solver's curl columns and the gradient
columns of the conformal trial bases read the integer table directly.
exactpoly.directional_derivative computes the same derivative through
general polynomial products and serves as the reference.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from beltrami.exactpoly import (
    Exponent,
    Poly4,
    Rat,
    SphereScalar,
    _monomial_normal_form,
    _mpq,
    canonicalize,
    evaluate_polys,
    integer_numerators,
    integrate_poly,
    integrate_products,
)

# Antisymmetric generators: row j of FRAME_GENERATORS[i] gives component j of
# the linear field x -> L_i x whose restriction is B_{i+1}.
FRAME_GENERATORS: Tuple[Tuple[Tuple[int, ...], ...], ...] = (
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
)

# The linear forms (L_i x)_a = sign * x_m as pairs (m, sign), 0-based m,
# indexed [frame i][component a].
_FRAME_FORMS = tuple(
    tuple(next((m, c) for m, c in enumerate(row) if c) for row in L)
    for L in FRAME_GENERATORS
)

# FRAME_GENERATORS as a float (3, 4, 4) array for pointwise evaluation.
_GENERATOR_ARRAY = np.array(FRAME_GENERATORS, dtype=float)


def _form_terms(e: Exponent, i: int, a: int) -> List[Tuple[Exponent, int]]:
    """x^e (L x)_a in normal form as int pairs, L = FRAME_GENERATORS[i]."""
    m, sign = _FRAME_FORMS[i][a]
    f = e[:m] + (e[m] + 1,) + e[m + 1:]
    return [(g, sign * k) for g, k in _monomial_normal_form(f)]


def _times_form(s: SphereScalar, i: int, a: int) -> SphereScalar:
    """s (L x)_a in normal form, where L = FRAME_GENERATORS[i]; the linear
    form swaps the parity parts.  As in exactpoly's normal form, the terms
    that the sphere relation rewrites (x4 times x4 x^e) are summed after
    the others, so float results equal those of Poly4 products bit for bit.
    """
    x4 = _FRAME_FORMS[i][a][0] == 3
    image = lambda e, form: _form_terms(e, *form)  # noqa: E731 - shorthand

    def times(p: Poly4) -> Poly4:
        if not x4:
            return _linear_image(p, image, (i, a))
        rewritten = {e: c for e, c in p.terms.items() if e[3]}
        kept = {e: c for e, c in p.terms.items() if e not in rewritten}
        return (_linear_image(Poly4(kept), image, (i, a))
                + _linear_image(Poly4(rewritten), image, (i, a)))

    return SphereScalar(times(s.odd_part), times(s.even_part))


@functools.cache
def derivative_table(e: Exponent, i: int) -> Tuple[Tuple[Exponent, int], ...]:
    """B_i x^e for a reduced exponent e as sorted (reduced exponent, int)
    pairs with nonzero ints; see the module docstring."""
    if not 1 <= i <= 3:
        raise ValueError(f"frame index must be 1..3, got {i}")
    if e[3] > 1:
        raise ValueError(f"exponent {e} is not reduced (x4-exponent > 1)")
    out: Dict[Exponent, int] = {}
    for j in range(4):
        if e[j]:
            lower = e[:j] + (e[j] - 1,) + e[j + 1:]
            for g, k in _form_terms(lower, i - 1, j):
                out[g] = out.get(g, 0) + e[j] * k
    return tuple(sorted((f, k) for f, k in out.items() if k))


def _linear_image(p: Poly4, image, arg) -> Poly4:
    """sum_e c_e image(e, arg) for p = sum_e c_e x^e, where image lists the
    terms of the image of x^e as (exponent, int) pairs."""
    out: Dict[Exponent, object] = {}
    for e, c in p.terms.items():
        for f, k in image(e, arg):
            out[f] = out.get(f, 0) + c * k
    return Poly4(out)


def _derive(p: Poly4, i: int) -> Poly4:
    return _linear_image(p, derivative_table, i)


def frame_derivative(s: SphereScalar, i: int) -> SphereScalar:
    """The derivative B_i(s) for i in 1..3, from the derivative table."""
    return SphereScalar(_derive(s.even_part, i), _derive(s.odd_part, i))


class FrameField:
    """A vector field f1 B1 + f2 B2 + f3 B3 on S^3."""

    __slots__ = ("f",)

    def __init__(self, f1: SphereScalar, f2: SphereScalar, f3: SphereScalar):
        self.f = (f1, f2, f3)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "FrameField":
        z = SphereScalar.zero()
        return FrameField(z, z, z)

    @staticmethod
    def from_cartesian(components: Sequence[SphereScalar]) -> "FrameField":
        """Rebuild a tangent field from its four Cartesian components.

        Valid whenever the components describe a field tangent to S^3; then
        f_i is the pointwise inner product with B_i.
        """
        return FrameField(*(
            sum((_times_form(components[a], i, a) for a in range(4)),
                SphereScalar.zero())
            for i in range(3)))

    # ---- linear structure ---------------------------------------------

    def __add__(self, other: "FrameField") -> "FrameField":
        return FrameField(*(a + b for a, b in zip(self.f, other.f)))

    def __sub__(self, other: "FrameField") -> "FrameField":
        return FrameField(*(a - b for a, b in zip(self.f, other.f)))

    def __neg__(self) -> "FrameField":
        return FrameField(*(-a for a in self.f))

    def scale(self, s) -> "FrameField":
        return FrameField(*(a.scale(s) for a in self.f))

    def __mul__(self, s):
        if isinstance(s, SphereScalar):
            return FrameField(*(a * s for a in self.f))
        return self.scale(s)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameField) and self.f == other.f

    def __hash__(self):
        raise TypeError("FrameField is unhashable")

    def __repr__(self) -> str:
        return f"FrameField{self.f!r}"

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.f)

    def coefficient_degree(self) -> int:
        return max(a.degree() for a in self.f)

    def to_float(self) -> "FrameField":
        return FrameField(*(a.to_float() for a in self.f))

    # ---- metric structure ----------------------------------------------

    def dot(self, other: "FrameField") -> SphereScalar:
        """Pointwise inner product (frame orthonormality)."""
        out = SphereScalar.zero()
        for a, b in zip(self.f, other.f):
            out = out + a * b
        return out

    def norm_sq(self) -> SphereScalar:
        return self.dot(self)

    def l2_inner(self, other: "FrameField"):
        """L^2 inner product; ExactScalar for exact fields, float otherwise.

        Exact fields are integrated from monomial moments without forming
        the pointwise product (exactpoly.integrate_products).
        """
        if self._has_float() or other._has_float():
            return integrate_poly(self.to_float().dot(other.to_float()))
        return integrate_products(zip(self.f, other.f))

    def _has_float(self) -> bool:
        return any(isinstance(c, float) for a in self.f
                   for part in (a.even_part, a.odd_part)
                   for c in part.terms.values())

    # ---- Cartesian probe ------------------------------------------------

    def cartesian_components(self) -> Tuple[SphereScalar, ...]:
        """The four Cartesian components as functions on S^3."""
        return tuple(sum((_times_form(self.f[i], i, a) for i in range(3)),
                         SphereScalar.zero())
                     for a in range(4))

    def coefficient_values(self, pts: np.ndarray) -> np.ndarray:
        """The frame coefficients f1, f2, f3 at (N, 4) points -> (N, 3).

        The points must lie on S^3: each coefficient is stored as a normal
        form modulo the sphere relation, which gives its value only there.
        Because the frame is orthonormal, |F|^2 and F . G are the row sums
        of f_i^2 and f_i g_i.  The three share one set of power tables.
        """
        return evaluate_polys([c.representative() for c in self.f], pts).T

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """The Cartesian components at (N, 4) points on S^3 -> (N, 4).

        Computed as f1(x) B1(x) + f2(x) B2(x) + f3(x) B3(x) with the linear
        frame B_i(x) = L_i x, which equals the evaluated
        cartesian_components() only on S^3.
        """
        pts = np.asarray(pts, dtype=float)
        frame = pts @ _GENERATOR_ARRAY.transpose(0, 2, 1)  # (3, N, 4)
        return np.einsum("ni,ina->na", self.coefficient_values(pts), frame)


def coefficient_tensor(fields: Sequence[FrameField]
                       ) -> Tuple[List[Exponent], np.ndarray]:
    """The frame coefficients of fields over their monomials, in sorted order
    (independent of the fields' term order): the exponents and the float
    array T of shape (3, len(fields), m), T[a, i, j] the coefficient of
    x^exponents[j] in the a-th frame coefficient of fields[i].  Float sums
    over T therefore do not depend on term order; evaluate_polys and float
    curl still sum in each field's term order."""
    comps = [[c.representative().terms for c in f.f] for f in fields]
    index = {e: j for j, e in enumerate(sorted(
        {e for trio in comps for terms in trio for e in terms}))}
    tensor = np.zeros((3, len(fields), len(index)))
    for i, trio in enumerate(comps):
        for a, terms in enumerate(trio):
            tensor[a, i, [index[e] for e in terms]] = [
                float(c) for c in terms.values()]
    return list(index), tensor


def hopf_frame() -> Tuple[FrameField, FrameField, FrameField]:
    """The orthonormal frame (B1, B2, B3) with constant coefficients."""
    one = SphereScalar.const(1)
    zero = SphereScalar.zero()
    return (FrameField(one, zero, zero),
            FrameField(zero, one, zero),
            FrameField(zero, zero, one))


def _numerators(F: FrameField):
    """(den, den * F) with den the lcm of the denominators and den * F on
    integer numerators when every coefficient is a backend rational;
    (None, F) otherwise."""
    parts = [p for f in F.f for p in (f.even_part, f.odd_part)]
    if not all(type(c) is _mpq for p in parts for c in p.terms.values()):
        return None, F
    den, numerators = integer_numerators(p.terms for p in parts)
    parts = [Poly4(terms) for terms in numerators]
    return den, FrameField(*(SphereScalar(*parts[k:k + 2]) for k in (0, 2, 4)))


def curl(F: FrameField) -> FrameField:
    """Curl in the round metric; exact on polynomial coefficients.

    Component a is 2 f_a + (B_b f_c - B_c f_b), summed in the term order of
    Poly4 addition, so float results are those of Poly4 arithmetic bit for
    bit.  Rationals are summed as integer numerators over one denominator.
    """
    den, F = _numerators(F)
    parts = [p for f in F.f for p in (f.even_part, f.odd_part)]

    def component(a: int, parity: int) -> Poly4:
        b, c = (a + 1) % 3, (a + 2) % 3
        d = _derive(parts[2 * c + parity], b + 1).terms
        for e, n in _derive(parts[2 * b + parity], c + 1).terms.items():
            d[e] = d.get(e, 0) - n
        out = {e: 2 * n for e, n in parts[2 * a + parity].terms.items()}
        for e, n in d.items():
            if n:
                out[e] = out.get(e, 0) + n
        return Poly4({e: Rat(n, den) for e, n in out.items()} if den else out)

    return FrameField(*(SphereScalar(component(a, 0), component(a, 1))
                        for a in range(3)))


def divergence(F: FrameField) -> SphereScalar:
    """Divergence; the frame fields are divergence free (Killing)."""
    out = SphereScalar.zero()
    for i in range(3):
        out = out + frame_derivative(F.f[i], i + 1)
    return out


def grad(s: SphereScalar) -> FrameField:
    """Intrinsic gradient expressed in the orthonormal frame."""
    return FrameField(frame_derivative(s, 1),
                      frame_derivative(s, 2),
                      frame_derivative(s, 3))


def laplace_beltrami(s: SphereScalar) -> SphereScalar:
    """Laplace-Beltrami operator with nonnegative spectrum."""
    out = SphereScalar.zero()
    for i in range(1, 4):
        out = out + frame_derivative(frame_derivative(s, i), i)
    return -out


def laplace_beltrami_homogeneous(s: SphereScalar) -> SphereScalar:
    """Independent evaluation through homogeneous representatives.

    Each homogeneous piece P of degree d of the canonical representative
    restricts to the same function, and on restrictions

        Delta_{S^3}(P|_{S^3}) = d (d + 2) P|_{S^3} - (Delta_{R^4} P)|_{S^3}.

    Used as a cross-check oracle for laplace_beltrami.
    """
    rep = s.representative()
    by_degree = {}
    for e, c in rep.terms.items():
        by_degree.setdefault(sum(e), {})[e] = c
    out = SphereScalar.zero()
    for d, terms in by_degree.items():
        p = Poly4(terms)
        flat = Poly4.zero()
        for i in range(1, 5):
            flat = flat + p.partial(i).partial(i)
        out = out + canonicalize(p).scale(d * (d + 2)) - canonicalize(flat)
    return out


def isometry_pushforward(F: FrameField, O: Sequence[Sequence[object]]) -> FrameField:
    """Pushforward of F by the isometry x -> O x of S^3, O a signed permutation.

    (O_* F)(x) = O F(O^T x).  If s = O[a][p] is the nonzero entry of row a,
    component a of O_* F is s times component p at O^T x, where
    (O^T x)_p = s x_a: a signed relabel of exponents, which needs the normal
    form again only if it moves x4.  An exact field is mapped on integer
    numerators over one denominator: the rational sums times that
    denominator, in the same term order.  Preserves pointwise and L^2 norms;
    an orientation-reversing O maps curl eigenfields of eigenvalue mu to -mu.
    Any other matrix raises ValueError.
    """
    rows = [[(p, Rat(c)) for p, c in enumerate(row) if Rat(c) != 0]
            for row in O]
    if ([len(r) for r in rows] != [1] * 4 or sorted(
            (p, abs(s)) for (p, s), in rows) != [(p, 1) for p in range(4)]):
        raise ValueError("matrix is not a signed permutation matrix")
    perm = [(p, int(s)) for (p, s), in rows]
    flipped = [p for p, s in perm if s < 0]

    def relabel(poly: Poly4, s: int) -> Poly4:
        return Poly4({tuple(e[p] for p, _ in perm):
                      c * s * (-1) ** sum(e[p] for p in flipped)
                      for e, c in poly.terms.items()})

    den, F = _numerators(F)
    comps = F.cartesian_components()
    out = FrameField.from_cartesian([
        canonicalize(relabel(comps[p].representative(), s)) if perm[3][0] != 3
        else SphereScalar(relabel(comps[p].even_part, s),
                          relabel(comps[p].odd_part, s)) for p, s in perm])
    return out if den is None else out.scale(Rat(1, den))


# The reflection (x1, x2, x3, x4) -> (x1, x2, x3, -x4): orientation reversing,
# exchanges the two curl eigenvalue signs.
REFLECTION = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
