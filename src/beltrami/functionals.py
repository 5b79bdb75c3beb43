"""Energy and Rayleigh functionals on S^3 and their derivatives at the Hopf field.

The central objects are

    E(X) = integral of |X|^{3/2}          (the L^{3/2} energy)
    H(X) = helicity
    F(X) = E(X)^{4/3} / H(X),  R(X) = 1 / F(X)

together with the derivatives of E and F at the Hopf field B1 up to order 6,
evaluated in closed form.  B1's frame coefficients are (1, 0, 0), so
|B1 + tW|^2 = 1 + 2 t (B1 . W) + t^2 |W|^2 (_hopf_line): f_perturbed and
local_max_scan take the energy along that line from those two grid columns,
and every derivative of E reduces to integrals of polynomials in them.
One truncated-series engine serves every expansion: the power recurrence
_series_power gives the Taylor coefficients of the density
(1 + 2t B1 . W + t^2 |W|^2)^{3/4} pointwise, on grid rows of W's frame
coefficients on the smallest product grid exact through their Cartesian
degree, so the only error left is rounding; the same recurrence on the
integrated coefficients, and one series division, give the derivatives of
F = E^{4/3} / H.

Every other float integral of a product of fields is a product of
frame-coefficient columns on the grid exact through the factors' summed
coefficient_degree(): B_i . X is column i of X's values and X . Y the row
sum of their product.

Values on a grid come from one kernel, HopfGrid.polynomial_slabs (sum
factorization over the product grid), applied to frame coefficients over
monomials: coefficient_tensor of the fields, and for a HopfPerturbation
its coefficients(), contracted from the cached tensor of the 26 fixed
basis fields.  Scattered points keep FrameField.coefficient_values.

Perturbation directions are organized by the HopfPerturbation type, a
coefficient vector over the orthonormal eigenbases of the low curl
eigenvalues plus explicit fields for the higher eigenspaces; its helicity and
norm are exact functions of the coefficients.

The module also provides the sixth-order combination 6 DF + 3 D^2F + D^3F +
D^4F/4 + D^5F/20 + D^6F/120 and its s-graded coefficients along
B1 + s W1 + s^2 W2 (the same series algebra in s), the cubic remainder and
correction fields that control it, a quadratic-form second variation of R,
and a randomized local maximality scan of R around B1.
"""

from __future__ import annotations

import functools
import math
import time
import types
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from beltrami.atlas import explicit_basis
from beltrami import atlas as _atlas
from beltrami.exactpoly import (Exponent, SphereScalar, check_finite_real,
                                check_int, is_finite_real, is_real)
from beltrami.frames import (FrameField, coefficient_tensor, curl, divergence,
                             grad, hopf_frame)
from beltrami.quadrature import (HopfGrid, default_grid, grid_for_degree,
                                 integrate_scalar)

MU1 = 2  # first positive curl eigenvalue on the round S^3


# ---------------------------------------------------------------------------
# Orthonormal bases (floating) used for perturbation coefficients


def _unit_fields(eigenvalue: int) -> List[FrameField]:
    return explicit_basis(eigenvalue).orthonormal_float_fields()


@functools.cache
def _basis(name) -> List[FrameField]:
    """The unit anti-Hopf fields, u, v, w (eigenvalues 3, 4, 5), or the
    unit fields of an explicit eigenvalue given as an int."""
    if name == "anti_hopf":
        # The anti-Hopf frame normalized to unit L^2 norm.
        scale = 1.0 / math.sqrt(2.0 * math.pi ** 2)
        return [f.scale(scale) for f in _atlas.anti_hopf_frame()]
    return _unit_fields({"u": 3, "v": 4, "w": 5}.get(name, name))


@functools.cache
def _basis_degree(name) -> int:
    return max(f.coefficient_degree() for f in _basis(name))


@functools.cache
def _basis_values(name, degree: int) -> np.ndarray:
    """The (N, 3, k) frame-coefficient values of the k fields _basis(name)
    on grid_for_degree(degree); values @ c are those of sum_k c_k X_k."""
    return np.ascontiguousarray(_field_values(_basis(name),
                                              grid_for_degree(degree)))


def _frame_matrix(fields: Sequence[FrameField]
                  ) -> Tuple[List[Exponent], np.ndarray]:
    """The frame coefficients of fields over their sorted monomials: the
    exponents and a (3 len(fields), m) matrix, rows in (field, slot) order."""
    exponents, tensor = coefficient_tensor(fields)
    return exponents, tensor.transpose(1, 0, 2).reshape(3 * len(fields),
                                                        len(exponents))


def _field_values(fields: Sequence[FrameField], grid: HopfGrid) -> np.ndarray:
    """The (N, 3, k) frame-coefficient values of k fields on grid.points."""
    values = grid.polynomial_values(*_frame_matrix(fields))
    return values.reshape(len(fields), 3, -1).transpose(2, 1, 0)


def _matrix_degree(exponents: Sequence[Exponent], matrix: np.ndarray) -> int:
    """The largest degree of a monomial with a nonzero coefficient, or 0."""
    return max((sum(e) for e, column in zip(exponents, matrix.T)
                if column.any()), default=0)


def _to_line_columns(values: np.ndarray) -> np.ndarray:
    """Overwrite row 1 of the (3, N) frame-coefficient values of W with
    |W|^2; row 0 stays B1 . W and row 2 is left free."""
    values[1] = np.einsum("an,an->n", values, values)
    return values


def _index_to_eigenvalue(index: int) -> int:
    """Curl eigenvalue of the spectral index: +-(|index| + 1) with its sign."""
    return index + 1 if index > 0 else index - 1


# Allowed keys of HopfPerturbation.extra and the matching curl eigenvalues.
EXTRA_INDICES = (-3, -2, 4, 5, 6)


def _fixed_fields() -> List[FrameField]:
    """The unit fields behind beta, a and b, in that order."""
    return _basis("anti_hopf") + _basis("u") + _basis("v")


@functools.cache
def _fixed_tensor() -> Tuple[List[Exponent], np.ndarray]:
    """coefficient_tensor of _fixed_fields(): exponents, (3, 26, m)."""
    return coefficient_tensor(_fixed_fields())


def _finite_coefficients(name: str, values) -> Tuple[float, ...]:
    values = tuple(values)
    for x in values:
        if not is_real(x):
            raise ValueError(
                f"{name} coefficients must be real numbers, got {x!r}")
        if not is_finite_real(x):
            raise ValueError(f"{name} coefficients must be finite, got {x!r}")
    return tuple(float(x) for x in values)


class HopfPerturbation:
    """A perturbation direction at B1, organized by curl eigenspaces.

    beta are coefficients over the unit anti-Hopf fields (eigenvalue -2),
    a over u_1..u_8 (eigenvalue 3; a_1..a_4 span Z_1, a_5..a_8 span Z_2),
    b over v_1..v_15 (eigenvalue 4), and extra maps a spectral index in
    {-3, -2, 4, 5, 6} (curl eigenvalues -4, -3, 5, 6, 7) to an explicit
    eigenfield of that eigenvalue.  A coefficient that is not finite
    raises ValueError.  A built direction is read-only (AttributeError on
    assignment; extra is a read-only mapping): what is built from the parts
    (the coefficient matrix, line columns per grid, E and F series at B1)
    is kept on first use (_memo).
    """

    def __init__(self, beta: Sequence[float] = (0.0, 0.0, 0.0),
                 a: Sequence[float] = (0.0,) * 8,
                 b: Sequence[float] = (0.0,) * 15,
                 extra: Optional[Dict[int, FrameField]] = None):
        self.beta = _finite_coefficients("beta", beta)
        self.a = _finite_coefficients("a", a)
        self.b = _finite_coefficients("b", b)
        self.extra = types.MappingProxyType(dict(extra or {}))
        if len(self.beta) != 3 or len(self.a) != 8 or len(self.b) != 15:
            raise ValueError("expected 3 beta, 8 a, and 15 b coefficients")
        for index, field in self.extra.items():
            if index not in EXTRA_INDICES:
                raise ValueError(f"unsupported extra spectral index {index}")
            mu = _index_to_eigenvalue(index)
            residual = curl(field) - field.scale(mu)
            if _max_coefficient(residual) > 1e-10:
                raise ValueError(
                    f"extra field for index {index} is not a curl eigenfield "
                    f"of eigenvalue {mu}")
        self._parts: Dict[object, object] = {}

    def __setattr__(self, name, value):
        if "_parts" in self.__dict__:
            raise AttributeError(f"cannot assign {name!r}: a built "
                                 "HopfPerturbation is read-only")
        object.__setattr__(self, name, value)

    # ---- assembly ------------------------------------------------------

    def _memo(self, key, build):
        if key not in self._parts:
            self._parts[key] = build()
        return self._parts[key]

    def field(self) -> FrameField:
        """W as one float FrameField, assembled on the first call."""
        extra = list(self.extra.values())
        return self._memo("field", lambda: _combine(
            self.beta + self.a + self.b + (1.0,) * len(extra),
            _fixed_fields() + extra))

    def coefficients(self) -> Tuple[List[Exponent], np.ndarray]:
        """W's frame coefficients over its monomials: the exponents and a
        (3, m) matrix, from the cached coefficient tensor of the fixed
        fields (with the extra fields, a tensor of all of them)."""
        def build():
            weights = np.array(self.beta + self.a + self.b
                               + (1.0,) * len(self.extra))
            exponents, tensor = (coefficient_tensor(
                _fixed_fields() + list(self.extra.values()))
                if self.extra else _fixed_tensor())
            return exponents, np.tensordot(weights, tensor, (0, 1))
        return self._memo("coefficients", build)

    def line_columns(self, grid: HopfGrid) -> Tuple[np.ndarray, np.ndarray]:
        """B1 . W and |W|^2 on grid.points (for _hopf_line), kept per grid."""
        return self._line_arrays(grid)[:2]

    def _line_arrays(self, grid: HopfGrid):
        """line_columns and the two work rows of f_perturbed's _hopf_line:
        the free row of W's values on grid and one more."""
        def build():
            w1, w_sq, free = _to_line_columns(grid.polynomial_values(
                *self.coefficients()))
            return w1, w_sq, (free, np.empty(grid.size))
        return self._memo(("line", grid.radial_order, grid.angular_order),
                          build)

    # ---- exact quadratic data -----------------------------------------

    def extra_norms(self) -> Dict[int, float]:
        """Squared L^2 norms of the extra fields, kept after the first call."""
        return self._memo("extra_norms", lambda: {
            i: float(f.to_float().l2_inner(f.to_float()))
            for i, f in self.extra.items()})

    def norm_sq(self) -> float:
        return (sum(c * c for c in self.beta) + sum(c * c for c in self.a)
                + sum(c * c for c in self.b) + sum(self.extra_norms().values()))

    def helicity(self) -> float:
        return (sum(c * c for c in self.beta) / -2.0
                + sum(c * c for c in self.a) / 3.0
                + sum(c * c for c in self.b) / 4.0
                + sum(n / _index_to_eigenvalue(i)
                      for i, n in self.extra_norms().items()))


def _combine(coeffs: Sequence[float], fields: Sequence[FrameField]) -> FrameField:
    out = FrameField.zero()
    for c, e in zip(coeffs, fields):
        if c:
            out = out + e.scale(float(c))
    return out


def _max_scalar_coefficient(s: SphereScalar) -> float:
    return max((abs(float(c)) for c in s.representative().terms.values()),
               default=0.0)


def _max_coefficient(field: FrameField) -> float:
    return max(_max_scalar_coefficient(coeff) for coeff in field.f)


def _b1_float() -> FrameField:
    return hopf_frame()[0].to_float()


# ---------------------------------------------------------------------------
# The basic functionals


class ZeroHelicityError(ValueError):
    """The helicity vanishes, so F and R are undefined."""


def l32_energy(F, grid: HopfGrid | None = None,
               out: Optional[np.ndarray] = None) -> float:
    """The L^{3/2} energy of a FrameField F, or of its (N,) |F|^2 on grid.

    An (N,) out, which may be F itself, takes the weighted density, so the
    call allocates no (N,) array; the pairwise sum is integrate_scalar's.
    """
    grid = grid or default_grid()
    if isinstance(F, FrameField):
        F = np.sum(_field_values([F], grid)[..., 0] ** 2, axis=1)
    if np.shape(F) != (grid.size,):
        raise ValueError(f"l32_energy takes a FrameField or the squared speed "
                         f"on grid, shape ({grid.size},); got {np.shape(F)}")
    density = np.power(F, 0.75, out=out)
    if out is None:
        return integrate_scalar(density, grid)
    return float(np.sum(np.multiply(grid.weights, density, out=density)))


def _hopf_line(w1: np.ndarray, w_sq: np.ndarray, t: float,
               out=None) -> np.ndarray:
    """|B1 + tW|^2 = 1 + 2t w1 + t^2 w_sq from the grid columns w1 = B1 . W
    and w_sq = |W|^2.  out is two (N,) work rows, the line and scratch;
    without it they are allocated.  Returns the line."""
    line, scratch = np.empty((2, len(w1))) if out is None else out
    np.multiply(2.0 * t, w1, out=line)
    np.add(1.0, line, out=line)
    np.multiply(t * t, w_sq, out=scratch)
    return np.add(line, scratch, out=line)


def big_F(F, grid: HopfGrid | None = None,
          helicity_value: Optional[float] = None,
          out: Optional[np.ndarray] = None) -> float:
    """F(X) = E(X)^{4/3} / H(X); scale invariant.

    The helicity is computed exactly for exact fields; floating fields and
    squared speeds (as taken by l32_energy) must supply helicity_value.
    out is l32_energy's.
    """
    if helicity_value is None:
        helicity_value = float(_atlas.helicity(F))
    if helicity_value == 0.0:
        raise ZeroHelicityError("helicity vanishes; F is undefined")
    return l32_energy(F, grid, out) ** (4.0 / 3.0) / helicity_value


def f_perturbed(W: HopfPerturbation, t: float,
                grid: HopfGrid | None = None) -> float:
    """F(B1 + t W) with the helicity taken from the coefficient structure.

    big_F(_hopf_line(*W.line_columns(grid), t), grid, h), computed in W's
    work rows for the grid, so a call allocates no (N,) array.  t must be a
    finite real and not a bool; otherwise ValueError.
    """
    t = float(check_finite_real(t, "t"))
    grid = grid or default_grid()
    w1, w_sq, work = W._line_arrays(grid)
    line = _hopf_line(w1, w_sq, t, out=work)
    return big_F(line, grid, math.pi ** 2 + t * t * W.helicity(), out=line)


# ---------------------------------------------------------------------------
# Closed-form derivatives at the Hopf field


SERIES_ORDER = 6


def _curve_series(matrices: Sequence[Tuple[List[Exponent], np.ndarray]]
                  ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The Taylor coefficients of s -> E(B1 + sum_j s^j W_j) through
    SERIES_ORDER, and the integrals of B1 . W_j, for the fields W_1, W_2,
    ... given by their frame coefficients (exponents, (3, m) matrix).

    With V_j the values of W_j on the grid,

        |B1 + sum_j s^j V_j|^2 - 1
            = sum_k s^k (2 B1 . V_k + sum_{i + j = k} V_i . V_j),

    and the s^k coefficient of its 3/4 power (module docstring) has
    Cartesian degree k d for coefficients of degree at most d, so the grid
    of degree SERIES_ORDER * d integrates every coefficient exactly.  The
    sums stay math.fsum: cancellation limits the sixth-order constants
    from them.  The helicity of B1 + X is pi^2 + int B1 . X + H(X), as
    (B1, X) = 2 (curl^{-1} B1, X), so the integrals are the coefficients
    of its part linear in the W_j.
    """
    grid = grid_for_degree(SERIES_ORDER * max(
        _matrix_degree(*matrix) for matrix in matrices))
    values = [grid.polynomial_values(*matrix) for matrix in matrices]
    dot = functools.partial(np.einsum, "an,an->n")
    line = []
    for k in range(1, 2 * len(values) + 1):
        terms = [2.0 * values[k - 1][0]] if k <= len(values) else []
        for i in range(max(1, k - len(values)), k // 2 + 1):
            vi, vj = values[i - 1], values[k - i - 1]
            terms.append(dot(vi, vj) if 2 * i == k else 2.0 * dot(vi, vj))
        line.append(functools.reduce(np.add, terms))
    padding = [0.0] * (SERIES_ORDER - len(line))
    density = _series_power([1.0, *line, *padding], 0.75)
    return (tuple(math.fsum(grid.weights * c) for c in density),
            tuple(math.fsum(grid.weights * v[0]) for v in values))


def _series_at_hopf(W) -> Tuple[Tuple[float, ...], Tuple[float]]:
    """_curve_series of the line B1 + tW; a HopfPerturbation keeps it."""
    if isinstance(W, HopfPerturbation):
        return W._memo("series", lambda: _curve_series([W.coefficients()]))
    return _curve_series([_frame_matrix([W])])


def dE_at_hopf(k: int, W) -> float:
    """D^k E(B1)(W, ..., W) for an int k in 2..6, exact up to rounding."""
    check_int(k, "derivative order", 2, SERIES_ORDER)
    return math.factorial(k) * _series_at_hopf(W)[0][k]


def _series_power(a: Sequence, alpha: float) -> list:
    """The series a^alpha, as many terms as a, for a[0] > 0.

    J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7):
    k a_0 f_k = sum over j = 1..k of ((alpha + 1) j - k) a_j f_{k-j}.
    Coefficients are floats or (N,) grid rows, taken pointwise; a float
    coefficient equal to 0.0 is skipped.
    """
    terms = [j for j in range(1, len(a))
             if not (isinstance(a[j], float) and a[j] == 0.0)]
    out = [a[0] ** alpha]
    for k in range(1, len(a)):
        acc = 0.0
        for j in terms:
            if j > k:
                break
            acc = acc + ((alpha + 1) * j - k) * a[j] * out[k - j]
        out.append(acc / (k * a[0]))
    return out


def _series_div(a: List[float], b: List[float]) -> List[float]:
    n = len(a)
    out = [0.0] * n
    for i in range(n):
        acc = a[i]
        for j in range(1, i + 1):
            acc -= b[j] * out[i - j]
        out[i] = acc / b[0]
    return out


def _f_series(e: Sequence[float], helicity: Sequence[float]) -> List[float]:
    """Taylor coefficients of F = E^{4/3} / H from those of E and of
    H - pi^2 (from the first power of the expansion variable on)."""
    h = [math.pi ** 2, *helicity, *[0.0] * (len(e) - 1 - len(helicity))]
    return _series_div(_series_power(e, 4.0 / 3.0), h)


def _taylor_record(W: HopfPerturbation) -> Sequence[float]:
    """The Taylor coefficients of t -> F(B1 + tW) through SERIES_ORDER:
    _f_series of _series_at_hopf(W) and H(W), kept beside W's E series, so
    its D^k F and taylor6_combination compose the F series once.  W must
    be a HopfPerturbation (TypeError naming its type otherwise)."""
    if not isinstance(W, HopfPerturbation):
        raise TypeError("the direction must be a HopfPerturbation, got "
                        f"{type(W).__name__}")

    def build():
        e, (h1,) = _series_at_hopf(W)
        return tuple(_f_series(e, (h1, W.helicity())))
    return W._memo("f_series", build)


def dF_at_hopf(k: int, W: HopfPerturbation) -> float:
    """D^k F(B1)(W, ..., W) for an int k in 1..6 by series composition of
    E^{4/3}/H (_taylor_record)."""
    check_int(k, "derivative order", 1, SERIES_ORDER)
    return math.factorial(k) * _taylor_record(W)[k]


def taylor6_combination(W: HopfPerturbation) -> float:
    """6 DF + 3 D^2F + D^3F + D^4F/4 + D^5F/20 + D^6F/120 at B1.

    With D^k F = k! c_k every weight collapses to 6, so the combination is
    6 times the sum of the Taylor coefficients c_1 .. c_6 of
    t -> F(B1 + tW) (_taylor_record).
    """
    return 6.0 * math.fsum(_taylor_record(W)[1:])


def second_variation_R(Y1: FrameField, W) -> float:
    """Second variation of R at a first eigenfield Y1 in direction W.

    Evaluates (2 mu1 H(W) - 2 |W|^2 + int (Y1 . W)^2 / |Y1|^2) divided by
    mu1 E(Y1)^{4/3}.  Y1 must lie in the first eigenspace span{B1, B2, B3}
    (constant coefficients y) and W must be L^2-orthogonal to it.
    """
    if not curl(Y1) == Y1.scale(MU1):
        raise ValueError("base point is not a first curl eigenfield")
    y = np.array([float(c.representative().terms.get((0, 0, 0, 0), 0))
                  for c in Y1.f])
    speed2 = float(y @ y)
    if isinstance(W, HopfPerturbation):
        (exponents, matrix), h, norm_sq = (W.coefficients(), W.helicity(),
                                           W.norm_sq())
    else:
        (exponents, matrix), h, norm_sq = (
            _frame_matrix([W]), float(_atlas.helicity(W)),
            float(W.l2_inner(W)))
    grid = grid_for_degree(2 * _matrix_degree(exponents, matrix))
    values = grid.polynomial_values(exponents, matrix)
    # The integral of W . B_i is that of row i of W's values.
    if np.max(np.abs(values @ grid.weights)) > 1e-10:
        raise ValueError("direction is not orthogonal to the first "
                         "eigenspace")
    cross = integrate_scalar((y @ values) ** 2, grid) / speed2
    numerator = 2 * MU1 * h - 2 * norm_sq + cross
    energy = speed2 ** 0.75 * 2 * math.pi ** 2
    return numerator / (MU1 * energy ** (4.0 / 3.0))


# ---------------------------------------------------------------------------
# Remainder and correction fields


class SpanError(ValueError):
    """An input field lies outside the required eigenspace span."""


def _check_span(field: FrameField, name: str, indices: Sequence[int],
                what: str) -> None:
    """Raise SpanError unless field is in the span of _basis(name)[indices]."""
    degree = 2 * max(field.coefficient_degree(), _basis_degree(name))
    grid = grid_for_degree(degree)
    basis = _basis_values(name, degree)[..., list(indices)]
    values = _field_values([field], grid)[..., 0]
    residual = values - basis @ (
        grid.weights @ np.sum(basis * values[..., None], axis=1))
    norm = integrate_scalar(np.sum(values ** 2, axis=1), grid)
    lost = integrate_scalar(np.sum(residual ** 2, axis=1), grid)
    if lost > 1e-18 * (norm + 1.0):
        raise SpanError(f"{what} lies outside its required span")


def remainder_field(P23: FrameField, Z2: FrameField) -> FrameField:
    """The cubic remainder field of the sixth-order expansion.

    R = (-6 P23 . Z2 + 15 (P23 . B1)(B1 . Z2) - (45/4)(B1 . Z2)^3
         + (15/2)|Z2|^2 (B1 . Z2)) B1
        + (-6 (B1 . P23) - 3 |Z2|^2 + (15/2)(B1 . Z2)^2) Z2
        - 6 (B1 . Z2) P23,

    with P23 restricted to span{v10, v12, v15} and Z2 to span{u5, u8}.
    """
    _check_span(P23, "v", (9, 11, 14), "P23")
    _check_span(Z2, "u", (4, 7), "Z2")
    P23, Z2 = P23.to_float(), Z2.to_float()
    b1 = _b1_float()
    pz = P23.dot(Z2)
    pb = b1.dot(P23)
    zb = b1.dot(Z2)
    z_sq = Z2.norm_sq()
    coeff_b1 = (pz.scale(-6.0) + (pb * zb).scale(15.0)
                + (zb * zb * zb).scale(-45.0 / 4.0)
                + (z_sq * zb).scale(15.0 / 2.0))
    coeff_z2 = pb.scale(-6.0) - z_sq.scale(3.0) + (zb * zb).scale(15.0 / 2.0)
    return b1 * coeff_b1 + Z2 * coeff_z2 + P23 * zb.scale(-6.0)


def degenerate_coefficients(a5: float, a8: float) -> Tuple[float, float, float]:
    """(b10, b12, b15) on the degenerate locus of the fourth-order expansion."""
    b15 = (a5 * a5 + a8 * a8) / (2 * math.sqrt(3.0) * math.pi)
    b12 = math.sqrt(7.0) * (a5 * a5 - a8 * a8) / (6 * math.pi)
    b10 = -math.sqrt(7.0) * a5 * a8 / (3 * math.pi)
    return b10, b12, b15


def correction_field(a5: float, a8: float) -> Tuple[FrameField, float]:
    """The divergence-free projection C of the remainder field, with |C|^2.

    The coefficients b10, b12, b15 are set to their degenerate-locus values,
    R is assembled from span{v10, v12, v15} and span{u5, u8}, and its
    Hodge projection C = R + grad(inverse_laplacian(divergence(R))) has
    divergence(C) = 0.  The squared norm satisfies
    |C|^2 = 151/(90 pi^4) (a5^2 + a8^2)^3.
    """
    b10, b12, b15 = degenerate_coefficients(a5, a8)
    v = _basis("v")
    u = _basis("u")
    P23 = v[9].scale(b10) + v[11].scale(b12) + v[14].scale(b15)
    Z2 = u[4].scale(a5) + u[7].scale(a8)
    R = remainder_field(P23, Z2)
    C = R + grad(_atlas.inverse_laplacian(divergence(R)))
    if _max_scalar_coefficient(divergence(C)) > 1e-10:
        raise RuntimeError("correction field failed to be divergence free")
    grid = grid_for_degree(2 * max(C.coefficient_degree(), 0))
    return C, integrate_scalar(
        np.sum(_field_values([C], grid)[..., 0] ** 2, axis=1), grid)


# ---------------------------------------------------------------------------
# Local maximality scan of R at the Hopf field


R_AT_HOPF = math.pi ** 2 / (2 * math.pi ** 2) ** (4.0 / 3.0)
# Samples per pass over the grid; a pass's memory grows with the group, not
# with the number of samples.  A pair is the smallest group that rounds as
# larger ones do: a one-sample group sends the coefficient contraction
# through numpy's vector path in tensordot, which rounds differently, while
# groups of 2, 3 and 20 give the same rows.  So a final short group is
# padded with copies of its last sample, whose rows are dropped.
_SCAN_GROUP = 2


def _scan_basis() -> Tuple[np.ndarray, List[Exponent], np.ndarray]:
    """The curl eigenvalues of local_max_scan's unit basis fields (B1..B3
    and the explicit eigenspaces -2..-5, 3..5), and their coefficient
    tensor: monomials and (3, fields, m) array.  Frame coefficients
    suffice: the frame is orthonormal, so pointwise norms are those of the
    coefficient rows."""
    bases: List[Tuple[int, FrameField]] = [(2, f.scale(
        1.0 / math.sqrt(2.0 * math.pi ** 2))) for f in hopf_frame()]
    for mu, name in ((-2, "anti_hopf"), (3, "u"), (4, "v"), (5, "w"),
                     (-3, -3), (-4, -4), (-5, -5)):
        bases += [(mu, f) for f in _basis(name)]
    exponents, tensor = coefficient_tensor([f for _, f in bases])
    return np.array([mu for mu, _ in bases], dtype=float), exponents, tensor


def local_max_scan(radius: float = 0.05, samples: int = 50,
                   seed: int = 0, grid: HopfGrid | None = None) -> dict:
    """Randomized check that R(B1 + W) <= R(B1) near B1.

    Samples perturbations W over all explicit eigenspaces with sup norm at
    most radius, and reports any sample where R increases beyond 1e-9 or
    where equality holds although W has a non-E1 part.  The basis is kept
    as frame coefficients over its monomials (degree <= 5, _scan_basis,
    built on each scan); each pair of samples (_SCAN_GROUP) is one pass of
    grid.polynomial_slabs over its coefficients, of which B1 . W and
    |W|^2 are kept.  An odd count's final sample is paired with a copy of
    itself, so a sample's row depends only on the seed and its index, not
    on the number of samples.  A pair holds two (N,) columns per sample,
    in which its Hopf line is then built, and one slab of six polynomials
    with its products, about 4 MiB on the default grid (traced peak),
    whatever the number of samples.
    """
    try:
        check_int(samples, "samples", 1)
        valid = is_finite_real(radius) and 0 < radius <= 0.1
    except ValueError:
        valid = False
    if not valid:
        raise ValueError("local_max_scan needs 0 < radius <= 0.1 and an int "
                         f"samples >= 1, got {radius!r} and {samples!r}")
    grid = grid or default_grid()
    rng = np.random.default_rng(seed)
    mus, exponents, tensor = _scan_basis()
    e1 = np.zeros(len(mus))
    e1[0] = math.sqrt(2.0 * math.pi ** 2)
    w1, w_sq = np.empty((2, _SCAN_GROUP, grid.size))
    results = []
    violations = []
    for first in range(0, samples, _SCAN_GROUP):
        count = min(_SCAN_GROUP, samples - first)
        coeffs = rng.standard_normal((count, len(mus)))
        # Every fifth sample stays inside E1, probing exact equality.
        coeffs[(4 - first) % 5::5, 3:] = 0.0
        group = coeffs[np.minimum(np.arange(_SCAN_GROUP), count - 1)]
        mixed = np.tensordot(group, tensor, (1, 1)).reshape(
            3 * _SCAN_GROUP, -1)
        for block, values in grid.polynomial_slabs(exponents, mixed):
            values = values.reshape(_SCAN_GROUP, 3, -1)
            w1[:, block] = values[:, 0]
            np.einsum("sab,sab->sb", values, values, out=w_sq[:, block])
            del values  # before the next slab's product
        for index, sup in enumerate(np.sqrt(np.max(w_sq[:count], axis=1))):
            scale = radius / sup if sup > 0 else 0.0
            sample = coeffs[index] * scale
            columns = (w1[index], w_sq[index])
            energy = l32_energy(_hopf_line(*columns, scale, out=columns),
                                grid)
            h = float(np.sum((sample + e1) ** 2 / mus))
            delta = h / energy ** (4.0 / 3.0) - R_AT_HOPF
            non_e1 = float(np.linalg.norm(sample[3:]))
            ok = delta <= 1e-9 and (delta < -1e-9 or non_e1 < 1e-8)
            row = {"sample": first + index, "delta": delta,
                   "non_e1_norm": non_e1, "pass": bool(ok)}
            results.append(row)
            if not ok:
                violations.append({**row, "coefficients": sample.tolist()})
    return {"radius": radius, "samples": samples, "seed": seed,
            "violations": violations, "pass": not violations,
            "results": results}


# ---------------------------------------------------------------------------
# s-graded coefficients (used to verify the sixth-order expansion): the
# series of F along B1 + s W1 + s^2 W2, composed in s by the t-series engine


def perturbation_scaled(W1: HopfPerturbation, W2: HopfPerturbation,
                        s: float) -> HopfPerturbation:
    """The perturbation s W1 + s^2 W2 (componentwise; extra parts scaled)."""
    extra: Dict[int, FrameField] = {}
    for index, field in W1.extra.items():
        extra[index] = field.scale(float(s))
    for index, field in W2.extra.items():
        scaled = field.scale(float(s * s))
        extra[index] = extra[index] + scaled if index in extra else scaled
    return HopfPerturbation(
        beta=[s * x + s * s * y for x, y in zip(W1.beta, W2.beta)],
        a=[s * x + s * s * y for x, y in zip(W1.a, W2.a)],
        b=[s * x + s * s * y for x, y in zip(W1.b, W2.b)],
        extra=extra)


def graded_coefficient(W1: HopfPerturbation, W2: HopfPerturbation,
                       degree: int = 6) -> float:
    """Coefficient of s^degree in s -> taylor6_combination(s W1 + s^2 W2),
    for an int degree in 1..6.

    The t^k term of the combination is homogeneous of degree k in W, so it
    starts at s^k and no term past t^6 reaches s^6: the coefficient is
    6 [s^degree] F(B1 + s W1 + s^2 W2), composed in s by _f_series from
    the energy series of _curve_series.  The helicity is
    pi^2 + s int B1 . W1 + s^2 (int B1 . W2 + H(W1)) + s^3 h12 + s^4 H(W2),
    the cross term h12 by polarization.
    """
    check_int(degree, "degree", 1, SERIES_ORDER)
    e, (b1_w1, b1_w2) = _curve_series([W.coefficients() for W in (W1, W2)])
    h1, h2 = W1.helicity(), W2.helicity()
    h12 = perturbation_scaled(W1, W2, 1.0).helicity() - h1 - h2
    return 6.0 * _f_series(e, (b1_w1, b1_w2 + h1, h12, h2))[degree]


# The sixth derivative of (1 + u)^{3/4} forces the (B1 . W)^6 coefficient
# in D^6 E(B1) to be -1989 * (15/64) / 6!.  The reference derivation used
# -1755 at that spot, which shifts three downstream constants; both values
# are kept so the identity report can flag the difference explicitly.
#
#   leading coefficient of D^6 F(B1)(Z2, ..., Z2):   -145/18, reported 685/36
#   (a5^2 + a8^2)^3 term of the sixth-order bracket: -406,    reported 959
#   degenerate-locus leading constant:               17/144,  reported 11/32
D6_Z2_COEFFICIENT = -145.0 / 18.0
REPORTED_D6_Z2_COEFFICIENT = 685.0 / 36.0
SIXTH_ORDER_LEADING = -406.0
REPORTED_SIXTH_ORDER_LEADING = 959.0
DEGENERATE_LEADING = 17.0 / 144.0
REPORTED_DEGENERATE_LEADING = 11.0 / 32.0


def sixth_order_bracket(a5: float, a8: float, b10: float, b12: float,
                        b15: float, leading: float = SIXTH_ORDER_LEADING) -> float:
    """The explicit sixth-order polynomial of the expansion at B1.

    For W = s (a5 u5 + a8 u8) + s^2 (b10 v10 + b12 v12 + b15 v15) the s^6
    coefficient of the sixth-order Taylor combination equals the Hopf
    prefactor times this value.  The leading (a5^2 + a8^2)^3 coefficient
    defaults to the series-derived value; pass REPORTED_SIXTH_ORDER_LEADING
    to evaluate the reference version instead.
    """
    pi = math.pi
    s3, s7, s21 = math.sqrt(3.0), math.sqrt(7.0), math.sqrt(21.0)
    sum_sq = a5 * a5 + a8 * a8
    diff_sq = a5 * a5 - a8 * a8
    bracket = (2304 * pi ** 2 * s21 * b15 * b10 * (-a5 * a8)
               - 3888 * pi ** 3 * s3 * b10 ** 2 * b15
               + 1152 * pi ** 2 * s21 * b15 * b12 * diff_sq
               - 3888 * pi ** 3 * s3 * b15 * b12 ** 2
               + 4500 * pi ** 2 * sum_sq * (b12 ** 2 + b10 ** 2)
               + 2268 * pi ** 2 * b15 ** 2 * sum_sq
               - 84 * pi * s3 * b15 * sum_sq ** 2
               - 168 * pi * s7 * b12 * diff_sq * sum_sq
               + 336 * pi * s7 * b10 * a5 * a8 * sum_sq
               + leading * sum_sq ** 3)
    return hopf_prefactor() * bracket / (6048 * pi ** 4)


def hopf_prefactor() -> float:
    """E(B1)^{1/3} / H(B1) = (2 pi^2)^{1/3} / pi^2."""
    return (2 * math.pi ** 2) ** (1.0 / 3.0) / math.pi ** 2


# ---------------------------------------------------------------------------
# Closed forms of the coefficient identities behind the fourth-order bound


def b1_component_norm_sq(b: Sequence[float]) -> float:
    """|B1 . W3|^2 for W3 = sum b_i v_i as a quadratic form in b."""
    b = [0.0] + [float(x) for x in b]
    s3 = math.sqrt(3.0)
    return (b[7] ** 2 / 2 + (b[13] ** 2 + b[14] ** 2 + b[15] ** 2) / 2
            + 2.0 / 3.0 * b[9] ** 2
            + 4.0 / 7.0 * b[8] ** 2 + 2.0 / (7 * s3) * b[8] * b[10]
            + 25.0 / 42.0 * b[10] ** 2
            + 4.0 / 7.0 * b[11] ** 2 + 2.0 / (7 * s3) * b[11] * b[12]
            + 25.0 / 42.0 * b[12] ** 2)


def anti_hopf_w3_cross(beta: Sequence[float], b: Sequence[float]) -> float:
    """int (B1 . W_{-1})(B1 . W3) as a bilinear form in (beta, b)."""
    b = [0.0] + [float(x) for x in b]
    beta = [0.0] + [float(x) for x in beta]
    return (math.sqrt(2.0 / 21.0) * b[8] * beta[1]
            + 4 * beta[1] * b[10] / (3 * math.sqrt(14.0))
            - math.sqrt(2.0) / 3 * beta[2] * b[9]
            + math.sqrt(2.0 / 21.0) * b[11] * beta[3]
            + 4 * beta[3] * b[12] / (3 * math.sqrt(14.0)))


def anti_hopf_z2_cubic(beta: Sequence[float], a5: float, a8: float) -> float:
    """int (B1 . Z2)((B2 . Z2)(B2 . W_{-1}) + (B3 . Z2)(B3 . W_{-1}))."""
    beta = [0.0] + [float(x) for x in beta]
    return (2 * math.sqrt(2.0) / (3 * math.pi)
            * (beta[1] / 3 * a5 * a8 + beta[3] / 6 * (a8 * a8 - a5 * a5)))


def w3_z2_cubic_b1(b: Sequence[float], a5: float, a8: float) -> float:
    """(1/2) int (B1 . W3)((B1 . Z2)^2 - 2 |Z2|^2)."""
    b = [0.0] + [float(x) for x in b]
    s3, s7, s21 = math.sqrt(3.0), math.sqrt(7.0), math.sqrt(21.0)
    return -1.0 / (3 * math.pi) * (
        2 * b[8] * a5 * a8 / s21 - b[10] / s7 * a5 * a8
        + b[11] / s21 * (a8 * a8 - a5 * a5)
        + b[12] / (2 * s7) * (a5 * a5 - a8 * a8)
        + b[15] / (2 * s3) * (a5 * a5 + a8 * a8))


def w3_z2_cubic_b2(b: Sequence[float], a5: float, a8: float) -> float:
    """int (B1 . Z2)(B2 . Z2)(B2 . W3)."""
    b = [0.0] + [float(x) for x in b]
    s3, s6, s7, s21 = (math.sqrt(3.0), math.sqrt(6.0), math.sqrt(7.0),
                       math.sqrt(21.0))
    return 2.0 / (3 * math.pi) * (
        -b[3] * a5 * a8 / (2 * s6) + b[4] * a5 * a8 / (2 * s6)
        + b[6] * (a8 * a8 - a5 * a5) / (4 * s3)
        - b[8] * a5 * a8 / (2 * s21) - b[10] * a5 * a8 / (3 * s7)
        + b[11] * (a5 * a5 - a8 * a8) / (4 * s21)
        + b[12] * (a5 * a5 - a8 * a8) / (6 * s7)
        + b[15] * (a5 * a5 + a8 * a8) / (4 * s3))


def w3_z2_cubic_b3(b: Sequence[float], a5: float, a8: float) -> float:
    """int (B1 . Z2)(B3 . Z2)(B3 . W3)."""
    b = [0.0] + [float(x) for x in b]
    s3, s6, s7, s21 = (math.sqrt(3.0), math.sqrt(6.0), math.sqrt(7.0),
                       math.sqrt(21.0))
    return 2.0 / (3 * math.pi) * (
        (b[3] - b[4]) * a5 * a8 / (2 * s6)
        + b[6] * (a5 * a5 - a8 * a8) / (4 * s3)
        + b[8] * a5 * a8 / (2 * s21) - 5 * b[10] * a5 * a8 / (6 * s7)
        + b[11] * (a8 * a8 - a5 * a5) / (4 * s21)
        + 5 * b[12] * (a5 * a5 - a8 * a8) / (12 * s7))


def e4_b1_component_form(x: float, y: float, z: float, w: float) -> float:
    """Summand of |B1 . W4|^2 over the four coefficient quadruples of E_4.

    The sharp bound |B1 . W4|^2 <= (3/5) |W4|^2 is the maximum of this
    quadratic form on the unit sphere.
    """
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    return (8.0 / 15.0 * (x * x + w * w) + x * (-s2 / 15 * y + s6 / 15 * z)
            + 7.0 / 15.0 * (y * y + z * z) - s2 / 15 * z * w - s6 / 15 * y * w)


E4_COMPONENT_QUADRUPLES = ((9, 22, 19, 12), (10, 23, 21, 15),
                           (11, 17, 18, 14), (13, 20, 24, 16))


def fourth_order_terms(W: HopfPerturbation) -> float:
    """The quadratically controlled collection of the fourth-order bound.

    Evaluates, without the Hopf prefactor, the bracket

        (3/5) |W0_hat|^2 + 2 |Z1|^2 + 11 |W_{-1}|^2 + 3 |W3|^2
        - 3 |B1 . W3|^2 - 6 int (B1 . W_{-1})(B1 . W3)
        + (15/2) int (B1 . W3)(B1 . Z2)^2 - 6 int (W3 . Z2)(B1 . Z2)
        - 3 int (B1 . W3) |Z2|^2 + (13/(36 pi^2)) |Z2|^4
        - 6 int (B1 . Z2)((B2 . W_{-1})(B2 . Z2) + (B3 . W_{-1})(B3 . Z2))

    where W0_hat collects the explicit higher eigenspace parts.
    """
    du, dv, dm = (_basis_degree(n) for n in ("u", "v", "anti_hopf"))
    degree = max(2 * dv, dm + dv, 2 * du + max(dv, dm))
    grid = grid_for_degree(degree)
    z2 = _basis_values("u", degree)[..., 4:] @ W.a[4:]
    w3 = _basis_values("v", degree) @ W.b
    w_minus1 = _basis_values("anti_hopf", degree) @ W.beta
    zb, wb = z2[:, 0], w3[:, 0]
    z_sq = np.sum(z2 * z2, axis=1)
    density = (-3 * wb * wb - 6 * w_minus1[:, 0] * wb + 7.5 * wb * zb * zb
               - 6 * np.sum(w3 * z2, axis=1) * zb - 3 * wb * z_sq
               - 6 * zb * np.sum(w_minus1[:, 1:] * z2[:, 1:], axis=1))
    return (0.6 * sum(W.extra_norms().values())
            + 2 * sum(c * c for c in W.a[:4])
            + 11 * sum(c * c for c in W.beta) + 3 * sum(c * c for c in W.b)
            + integrate_scalar(density, grid)
            + 13.0 / (36 * math.pi ** 2) * integrate_scalar(z_sq, grid) ** 2)


# ---------------------------------------------------------------------------
# Identity report


#: Every identity of identity_report in report order, with the trailing
#: _report_row arguments: anchor, exact coefficient ("" if none), tol, note.
IDENTITIES = {
    "hopf-helicity": ("helicity of the Hopf field", "1 * pi^2"),
    "z2-helicity": ("helicity of Z2 equals |Z2|^2 / 3", "1/3"),
    "z2-b1-square": ("int (B1.Z2)^2 = (2/3) |Z2|^2", "2/3"),
    "z2-quartic": ("int |Z2|^4 = (2/(3 pi^2)) |Z2|^4", "2/3 * pi^-2"),
    "z2-mixed-quartic": ("int |Z2|^2 (B1.Z2)^2 = (14/(27 pi^2)) |Z2|^4",
                         "14/27 * pi^-2"),
    "z2-b1-quartic": ("int (B1.Z2)^4 = (4/(9 pi^2)) |Z2|^4", "4/9 * pi^-2"),
    "negative-eigenfield-b1-square": (
        "int (B1.W)^2 = |W|^2 / 3 on the -3 eigenspace", "1/3"),
    "w3-b1-component-norm": ("|B1.W3|^2 as a quadratic form in b",),
    "anti-hopf-w3-cross": ("int (B1.W_{-1})(B1.W3) as a bilinear form",),
    "anti-hopf-z2-cubic": ("mixed cubic of Z2 with the anti-Hopf part",),
    "w3-z2-cubic-b1": (
        "(1/2) int (B1.W3)((B1.Z2)^2 - 2|Z2|^2) closed form",),
    "w3-z2-cubic-b2": ("int (B1.Z2)(B2.Z2)(B2.W3) closed form",),
    "w3-z2-cubic-b3": ("int (B1.Z2)(B3.Z2)(B3.W3) closed form",),
    "anti-hopf-w3-quadratic-identity": (
        "2|W_E|^2 - 4H(W_E) - int (B1.W_E)^2 rewritten in coefficients",),
    "e4-b1-component-sum": (
        "|B1.W4|^2 as a sum of the quadratic form over coefficient "
        "quadruples",),
    "e4-component-sharp-constant": (
        "largest eigenvalue of the E4 component quadratic form", "3/5"),
    "correction-field-norm": (
        "squared norm of the correction field equals "
        "(151/(90 pi^4)) |Z2|^6", "151/90 * pi^-4", 1e-8),
    "d6f-z2-leading": (
        "leading coefficient of D^6 F at B1 along Z2", "", 1e-12),
    "d6f-z2-leading-reference": (
        "reference value of the D^6 F leading coefficient", "", 1e-8,
        "discrepancy: the reference constant descends from a (B1.W)^6 "
        "coefficient of -1755 in D^6 E where the series forces -1989"),
    "degenerate-sixth-order-leading": (
        "leading constant of the sixth-order combination on the degenerate "
        "locus", "", 1e-12),
    "degenerate-sixth-order-leading-reference": (
        "reference value of the degenerate-locus leading constant", "", 1e-7,
        "discrepancy: inherits the (B1.W)^6 slip in D^6 E"),
}

#: The identities whose note records a discrepancy: they fail by design.
KNOWN_DISCREPANCIES = frozenset(
    name for name, entry in IDENTITIES.items()
    if entry[3:] and entry[3].startswith("discrepancy"))


def _report_row(identity: str, expected: float, computed: float,
                wall_time: float, anchor: str, exact: str = "",
                tol: float = 1e-10, note: str = "") -> dict:
    abs_err = abs(computed - expected)
    rel_err = abs_err / max(abs(expected), 1e-300)
    ok = abs_err <= tol or rel_err <= tol
    return {"identity": identity, "anchor": anchor, "expected_exact": exact,
            "expected": expected, "computed": computed, "abs_error": abs_err,
            "rel_error": rel_err, "pass": bool(ok), "note": note,
            "wall_time": wall_time}


def identity_report(seed: int = 0, draws: int = 20) -> List[dict]:
    """Closed-form identities checked against integral evaluations.

    One row per entry of IDENTITIES, in its order.  Each randomized identity
    is reported once with the worst error over the draws.  The two
    sixth-order rows compare the series-derived constants against the
    reference values; the reference rows are expected to fail and are
    KNOWN_DISCREPANCIES.  A row's wall_time sums the time since the previous
    recorded value over its draws, so set-up lands in the first row using it.
    """
    check_int(draws, "draws", 1)
    last = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst: Dict[str, Tuple[float, float]] = {}
    times: Dict[str, float] = {}

    def record(identity: str, expected: float, computed: float) -> None:
        nonlocal last
        now = time.perf_counter()
        times[identity] = times.get(identity, 0.0) + (now - last)
        last = now
        prev = worst.get(identity)
        if prev is None or abs(computed - expected) > abs(prev[1] - prev[0]):
            worst[identity] = (expected, computed)

    record("hopf-helicity", math.pi ** 2,
           float(_atlas.helicity(hopf_frame()[0])))

    # The integrands: squares of the W_{-2}, W_{-1}, W3 and W4 parts, and
    # (B1 . Z2) Z2 times two more Z2 factors, W3 or W_{-1}.
    du, dv, dm, dw, d3 = (_basis_degree(n)
                          for n in ("u", "v", "anti_hopf", "w", -3))
    degree = max(2 * dw, 2 * d3, 2 * max(dv, dm), 2 * du + max(2 * du, dv, dm))
    grid = grid_for_degree(degree)
    u58 = _basis_values("u", degree)[..., [4, 7]]
    v, anti_hopf, w, minus3 = (_basis_values(n, degree)
                               for n in ("v", "anti_hopf", "w", -3))
    for _ in range(draws):
        a5, a8 = rng.standard_normal(2)
        beta = rng.standard_normal(3)
        b = rng.standard_normal(15)
        z2 = u58 @ (a5, a8)
        n2 = a5 * a5 + a8 * a8
        zb = z2[:, 0]
        z_sq = np.sum(z2 * z2, axis=1)
        # Z2 is a curl eigenfield of eigenvalue 3, so its helicity is the
        # integral of |Z2|^2 / 3; the check exercises the orthonormality of
        # u5 and u8 under the exact integral.
        record("z2-helicity", n2 / 3, integrate_scalar(z_sq, grid) / 3)
        record("z2-b1-square", 2.0 / 3.0 * n2, integrate_scalar(zb * zb, grid))
        record("z2-quartic", 2.0 / (3 * math.pi ** 2) * n2 ** 2,
               integrate_scalar(z_sq * z_sq, grid))
        record("z2-mixed-quartic", 14.0 / (27 * math.pi ** 2) * n2 ** 2,
               integrate_scalar(z_sq * zb * zb, grid))
        record("z2-b1-quartic", 4.0 / (9 * math.pi ** 2) * n2 ** 2,
               integrate_scalar(zb ** 4, grid))
        w_minus2 = minus3 @ rng.standard_normal(minus3.shape[-1])
        record("negative-eigenfield-b1-square",
               integrate_scalar(np.sum(w_minus2 ** 2, axis=1), grid) / 3,
               integrate_scalar(w_minus2[:, 0] ** 2, grid))
        W = HopfPerturbation(beta=beta, b=b)
        w3, wm1 = v @ b, anti_hopf @ beta
        record("w3-b1-component-norm", b1_component_norm_sq(b),
               integrate_scalar(w3[:, 0] ** 2, grid))
        record("anti-hopf-w3-cross", anti_hopf_w3_cross(beta, b),
               integrate_scalar(wm1[:, 0] * w3[:, 0], grid))
        record("anti-hopf-z2-cubic", anti_hopf_z2_cubic(beta, a5, a8),
               integrate_scalar(zb * np.sum(z2[:, 1:] * wm1[:, 1:], axis=1),
                                grid))
        record("w3-z2-cubic-b1", w3_z2_cubic_b1(b, a5, a8),
               0.5 * integrate_scalar(w3[:, 0] * (zb * zb - 2.0 * z_sq), grid))
        record("w3-z2-cubic-b2", w3_z2_cubic_b2(b, a5, a8),
               integrate_scalar(zb * z2[:, 1] * w3[:, 1], grid))
        record("w3-z2-cubic-b3", w3_z2_cubic_b3(b, a5, a8),
               integrate_scalar(zb * z2[:, 2] * w3[:, 2], grid))
        lhs = (2 * (sum(x * x for x in beta) + sum(x * x for x in b))
               - 4 * W.helicity()
               - integrate_scalar((wm1[:, 0] + w3[:, 0]) ** 2, grid))
        rhs = (11.0 / 3.0 * sum(x * x for x in beta) + sum(x * x for x in b)
               - b1_component_norm_sq(b) - 2 * anti_hopf_w3_cross(beta, b))
        record("anti-hopf-w3-quadratic-identity", lhs, rhs)
        c = rng.standard_normal(24)
        closed = sum(e4_b1_component_form(*(c[i - 1] for i in quad))
                     for quad in E4_COMPONENT_QUADRUPLES)
        record("e4-b1-component-sum", closed,
               integrate_scalar((w @ c)[:, 0] ** 2, grid))

    # Sharp constant of the E_4 component bound: largest eigenvalue of the
    # quadratic form on each coefficient quadruple, by polarization.
    form, unit = e4_b1_component_form, np.eye(4)
    record("e4-component-sharp-constant", 0.6, float(np.linalg.eigvalsh(
        [[0.5 * (form(*(e_i + e_j)) - form(*e_i) - form(*e_j))
          for e_j in unit] for e_i in unit])[-1]))

    # Norm of the degenerate-locus correction field, checked for a few
    # coefficient pairs (each build verifies divergence-freeness too).
    for _ in range(min(draws, 5)):
        a5, a8 = rng.standard_normal(2)
        record("correction-field-norm",
               151.0 / (90 * math.pi ** 4) * (a5 * a5 + a8 * a8) ** 3,
               correction_field(a5, a8)[1])

    # Sixth-order constants: derived versus reference values.
    W1 = HopfPerturbation(a=[0, 0, 0, 0, 1.0, 0, 0, 0])
    d6 = dF_at_hopf(6, W1)
    record("d6f-z2-leading",
           hopf_prefactor() * D6_Z2_COEFFICIENT / math.pi ** 4, d6)
    record("d6f-z2-leading-reference",
           hopf_prefactor() * REPORTED_D6_Z2_COEFFICIENT / math.pi ** 4, d6)
    b10, b12, b15 = degenerate_coefficients(1.0, 0.0)
    bvec = [0.0] * 15
    bvec[9], bvec[11], bvec[14] = b10, b12, b15
    W2 = HopfPerturbation(b=bvec)
    c6 = graded_coefficient(W1, W2, 6)
    record("degenerate-sixth-order-leading",
           hopf_prefactor() * DEGENERATE_LEADING / math.pi ** 4, c6)
    record("degenerate-sixth-order-leading-reference",
           hopf_prefactor() * REPORTED_DEGENERATE_LEADING / math.pi ** 4, c6)
    return [_report_row(name, *worst[name], times[name], *entry)
            for name, entry in IDENTITIES.items()]
