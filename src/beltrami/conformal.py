"""First curl eigenvalue under conformal deformation of the round metric.

A conformal metric g = (1 + t q)^2 g0 on S^3 (or on RP^3, for antipodally
invariant q) turns the Beltrami equation curl_g X = mu X, written on the
g0-dual one-form omega, into

    *0 d omega = mu (1 + t q) omega,

so the eigenvalues solve the symmetric generalized pencil A c = mu B(t) c
over a trial space of one-forms, with

    A_ij = <curl e_i, e_j>,    B_ij(t) = integral (1 + t q) <e_i, e_j>.

The trial space spans the exact curl eigenfields up to a frame-coefficient
degree cap together with gradient fields.  Distinct curl eigenspaces, and
gradients against divergence-free fields, are L^2-orthogonal exactly, so
the basis is made orthonormal with one Cholesky factor per eigenspace and
one for the gradients.  In that basis B(0) = I and A = diag(mu), with
exact zeros on the gradients, whatever the rounding of the Gram matrix.
Each gradient gives one exact zero eigenvalue, and the other eigenvalues
are the reciprocals of the symmetric problem U^T diag(mu)^-1 U, where
U U^T is the Schur complement of the gradient block of B(t), read off one
Cholesky factor of B(t) (see pencil.eigvalsh_diagonal).  No tolerance
decides which eigenvalues are zero.

Matrix entries are contracted from exact monomial moments of the sphere
(see exactpoly.integrate_monomial) with floating-point accumulation, which
keeps assembly fast while anchoring every moment to its exact rational
value.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .atlas import eigenspace_solve
from .exactpoly import (
    ExactScalar,
    Poly4,
    Rat,
    SphereScalar,
    _moment_sum,
    _monomial_moment_float,
    canonicalize,
)
from .frames import FrameField, coefficient_tensor, grad
from .pencil import checked_diagonal, eigvalsh_diagonal, inverse_cholesky
from .quadrature import HopfGrid, default_grid, integrate_scalar
from .solver import DEFAULT_DMAX_LIMIT, _reduced_monomials

MANIFOLDS = ("s3", "rp3")

#: The lower bound (16 / pi)^(1/3) that every normalized first eigenvalue
#: in a conformal scan must clear.
SCAN_LOWER_BOUND = (16.0 / math.pi) ** (1.0 / 3.0)


class ParityError(ValueError):
    """A conformal factor that does not descend to RP^3."""


class ConformalFactor:
    """The factor (1 + t q)^2 scaling the round metric.

    q is a polynomial scalar on the sphere and t a real amplitude.  The
    square root 1 + t q must be positive: monomials are bounded by one on
    the sphere, so 1 - |t| sum |c_e| > 0 certifies it exactly, and a factor
    without the certificate must be positive on a dense quadrature grid.
    t must be a finite real and not a bool; otherwise ValueError is raised.
    The factor is float when t or a coefficient of q is a float, and exact
    otherwise; 1 + t q is built in that kind, and only when asked for.
    """

    def __init__(self, q: SphereScalar, t: float):
        if not isinstance(q, SphereScalar):
            raise TypeError("q must be a SphereScalar")
        if (isinstance(t, bool) or not isinstance(t, numbers.Real)
                or not math.isfinite(t)):
            raise ValueError(f"t must be a finite real number, got {t!r}")
        self.q = q
        self.t = t
        self.terms = _factor_terms(q)
        self._float = isinstance(t, float) or any(
            isinstance(c, float) for _, c in self.terms)
        i1, i2, i3, size = _factor_moments(self.terms)
        if abs(Rat(t)) * size >= 1:
            low = float(np.min(self.sqrt_values(default_grid().points)))
            if low <= 0.0:
                raise ValueError(
                    f"1 + t q reaches {low:.3e} on the sphere; the conformal "
                    "factor must stay positive")
        # The volume is the integral of (1 + t q)^3, expanded in powers of t.
        base = ExactScalar({2: Rat(2)})
        if self._float:
            base, i1, i2, i3 = 2 * math.pi ** 2, float(i1), float(i2), float(i3)
        self._volume = base + i1 * (3 * t) + i2 * (3 * t * t) + i3 * t ** 3

    def sqrt_weight(self) -> SphereScalar:
        """The polynomial 1 + t q (the square root of the metric factor)."""
        if self._float:
            return SphereScalar.const(1.0) + self.q.scale(float(self.t))
        return SphereScalar.const(1) + self.q.scale(self.t)

    def sqrt_values(self, pts: np.ndarray) -> np.ndarray:
        return self.sqrt_weight().evaluate(pts)

    def is_trivial(self) -> bool:
        return self.t == 0 or self.q.is_zero()

    def volume(self):
        """The volume of (S^3, (1 + t q)^2 g0): integral of (1 + t q)^3.

        Read at construction as 2 pi^2 + 3 t I1 + 3 t^2 I2 + t^3 I3 from
        the exact integrals I_k of q^k, which are computed once per q; an
        ExactScalar for an exact factor, a float otherwise.
        """
        return self._volume


def _factor_terms(q: SphereScalar) -> tuple:
    """The terms of q's representative as sorted (e, c_e) pairs."""
    return tuple(sorted(q.representative().terms.items()))


@functools.lru_cache(maxsize=1)
def _factor_moments(terms: tuple) -> tuple:
    """The integrals of q, q^2, q^3 over S^3 as ExactScalars and the exact
    sum of |c_e| for q = sum c_e x^e, given by its _factor_terms; a scan
    keeps q fixed across its amplitudes.

    Every coefficient is taken exactly, a float at its binary value, so the
    moments depend on the values of the coefficients and not on their kind.
    The coefficients are cleared to integers n_e = den c_e with one lcm, so
    the powers are integer products and the integral of q^k is one
    exactpoly moment sum, divided by den^k.
    """
    exact = [(e, Rat(c)) for e, c in terms]
    den = math.lcm(*(int(c.denominator) for _, c in exact))
    n = Poly4({e: int(c.numerator) * (den // int(c.denominator))
               for e, c in exact})
    n2 = n * n

    def integral(power: Poly4, k: int) -> ExactScalar:
        return ExactScalar({2: _moment_sum(power.terms.items()) / den ** k})

    return (integral(n, 1), integral(n2, 2), integral(n2 * n, 3),
            sum(abs(c) for _, c in exact))


class _BasisData:
    """Assembled orthonormal trial basis for one (manifold, dmax) pair.

    The fields are the exact curl eigenfields with frame-coefficient degree
    up to dmax followed by gradients of scalar monomials up to degree
    dmax + 1.  On RP^3 only the fields and scalars that descend through the
    antipodal map are kept.  The pencil's columns are the combinations
    whitening @ fields: the inverse Cholesky factor of the float Gram block
    of each eigenspace and of the gradients, so the round Gram matrix is I
    and the curl matrix a is diag(mus), both exactly in rationals.  P holds
    the whitened columns' coefficients.
    """

    def __init__(self, manifold: str, dmax: int):
        self.manifold = manifold
        self.dmax = dmax
        result = eigenspace_solve(dmax)
        fields: List[FrameField] = []
        mus: List[int] = []
        for mu in sorted(result.eigenspaces):
            if manifold == "rp3" and mu % 2:
                continue
            for f in result.eigenspaces[mu].fields():
                fields.append(f)
                mus.append(mu)
        gradients = [grad(canonicalize(Poly4.monomial(e)))
                     for p in ((0, 1) if manifold == "s3" else (0,))
                     for e in _reduced_monomials(dmax + 1, p) if any(e)]
        self.gradient_count = len(gradients)
        fields.extend(gradients)
        mus.extend([0] * len(gradients))
        self.fields = fields
        self.column_eigenvalues = tuple(mus)
        self.mus = np.array(mus, dtype=float)
        self.eigen_count = len(fields) - self.gradient_count
        self.a = np.diag(self.mus)

        # Coefficients over the reduced monomials, one matrix per frame leg.
        self.exponents, P = coefficient_tensor(fields)
        # Moments are kept per unique pair sum e_i + e_j, indexed by entry.
        exps = np.array(self.exponents)
        codes = exps @ (2 * int(exps.max()) + 1) ** np.arange(4)
        _, first, index = np.unique(codes[:, None] + codes,
                                    return_index=True, return_inverse=True)
        self._sum_index = index.reshape(len(exps), -1)
        self._sums = exps[first // len(exps)] + exps[first % len(exps)]
        self._shift_moments = {}
        self._last_perturbation = (None, None)
        gram = self._contract(P, self._table((0, 0, 0, 0)))
        self.whitening = np.zeros_like(gram)
        # The mus are sorted with the gradients' zeros last, so each block
        # of equal mus is one eigenspace or the gradients.
        starts = np.flatnonzero(np.diff(self.mus, prepend=np.nan,
                                        append=np.nan))
        for lo, hi in zip(starts[:-1], starts[1:]):
            self.whitening[lo:hi, lo:hi] = inverse_cholesky(gram[lo:hi, lo:hi])
        self.P = self.whitening @ P

    def _moments(self, shift: Tuple[int, ...]) -> np.ndarray:
        if shift not in self._shift_moments:
            self._shift_moments[shift] = np.array([_monomial_moment_float(
                tuple(e)) for e in (self._sums + shift).tolist()])
        return self._shift_moments[shift]

    def _table(self, shift: Tuple[int, ...]) -> np.ndarray:
        return self._moments(shift)[self._sum_index]

    def _contract(self, P: np.ndarray, table: np.ndarray) -> np.ndarray:
        out = np.zeros((P.shape[1], P.shape[1]))
        for c in range(3):
            out += P[c] @ table @ P[c].T
        return 0.5 * (out + out.T)

    def perturbation(self, q: SphereScalar,
                     terms: tuple | None = None) -> np.ndarray:
        """The matrix of integral q <e_i, e_j> over the whitened columns,
        with one contraction per frame leg; terms, if given, must be
        _factor_terms(q).  The matrix of the latest q is kept."""
        terms = terms or _factor_terms(q)
        if self._last_perturbation[0] != terms:
            moments = sum(float(c) * self._moments(e) for e, c in terms)
            self._last_perturbation = (
                terms, self._contract(self.P, moments[self._sum_index]))
        return self._last_perturbation[1]


@functools.lru_cache(maxsize=None, typed=True)
def _basis_data(manifold: str, dmax: int) -> _BasisData:
    if manifold not in MANIFOLDS:
        raise ValueError(f"manifold must be one of {MANIFOLDS}, "
                         f"got {manifold!r}")
    if isinstance(dmax, bool) or not isinstance(dmax, int) or dmax < 0:
        raise ValueError(f"dmax must be a nonnegative int, got {dmax!r}")
    return _BasisData(manifold, dmax)


@dataclass
class GalerkinPencil:
    """The symmetric pencil (A, B) for one manifold, factor, and degree cap.

    a holds the curl pairings, diag(column_eigenvalues) in the orthonormal
    basis, b the weighted mass matrix, and column_eigenvalues the exact
    curl eigenvalue of each basis column (zero for gradients).  volume is
    the total volume of the deformed manifold.
    """

    manifold: str
    dmax: int
    a: np.ndarray
    b: np.ndarray
    column_eigenvalues: Tuple[int, ...]
    gradient_count: int
    volume: float

    def eigenvalues(self) -> np.ndarray:
        """All generalized eigenvalues, ascending.

        a must be diagonal, zero exactly on the last gradient_count columns
        (the gradients, which curl annihilates) and nonzero on the others
        (the eigenfields); any other a raises RuntimeError.  The gradients
        contribute gradient_count exact zeros, and the other eigenvalues
        come from one Cholesky factor of b (pencil.eigvalsh_diagonal), or,
        when b = I exactly, are the diagonal of a, with no eigensolve.
        """
        b = self.b
        if np.all(b.diagonal() == 1.0) and np.count_nonzero(b) == len(b):
            return np.sort(checked_diagonal(self.a, self.gradient_count))
        return eigvalsh_diagonal(self.a, self.b, self.gradient_count)

    def mu1(self) -> float:
        """Smallest positive eigenvalue; the gradient zeros are exact."""
        spectrum = self.eigenvalues()
        positive = spectrum[spectrum > 0]
        if positive.size == 0:
            raise RuntimeError("the pencil has no positive eigenvalue")
        return float(positive[0])

    def mu1_normalized(self) -> float:
        """The scale-invariant product mu1 * volume^(1/3)."""
        return self.mu1() * self.volume ** (1.0 / 3.0)


def assemble_pencil(manifold: str, cf: ConformalFactor,
                    dmax: int = 3) -> GalerkinPencil:
    """Build the generalized eigenpencil for curl on the deformed manifold.

    On RP^3 the factor must be antipodally invariant (its square root an
    even polynomial); an odd part raises ParityError.  The basis keeps only
    fields that descend through the antipodal map, and the volume is half
    the spherical one.
    """
    data = _basis_data(manifold, dmax)
    if manifold == "rp3" and not cf.q.odd_part.is_zero():
        raise ParityError(
            "the conformal factor has an antipodally odd part and does not "
            "descend to RP^3")
    if cf.is_trivial():
        b = np.eye(data.a.shape[0])
    else:
        b = float(cf.t) * data.perturbation(cf.q, cf.terms)
        b.flat[::b.shape[0] + 1] += 1.0
    volume = float(cf.volume()) * (0.5 if manifold == "rp3" else 1.0)
    return GalerkinPencil(
        manifold=manifold,
        dmax=dmax,
        a=data.a,
        b=b,
        column_eigenvalues=data.column_eigenvalues,
        gradient_count=data.gradient_count,
        volume=volume,
    )


def mu1_normalized(manifold: str, cf: ConformalFactor,
                   dmax: int = 3) -> float:
    """Normalized first positive curl eigenvalue of the deformed manifold."""
    return assemble_pencil(manifold, cf, dmax).mu1_normalized()


DEFAULT_AMPLITUDES = (-0.05, -0.02, -0.01, 0.0, 0.01, 0.02, 0.05)


def optimality_scan(qs: Sequence[Tuple[str, SphereScalar]],
                    manifold: str = "s3",
                    amplitudes: Sequence[float] = DEFAULT_AMPLITUDES,
                    dmax: int = 3) -> List[dict]:
    """Scan normalized first eigenvalues over conformal perturbations.

    qs is a sequence of (label, scalar) pairs.  For each factor and each
    amplitude t the normalized eigenvalue is computed at degree caps dmax
    and dmax + 1; a row passes when the refinement moves it by less than
    1e-4, it clears the (16/pi)^(1/3) lower bound, and it is no smaller
    than the t = 0 value of its own factor minus 1e-6 (so the undeformed
    metric is the grid minimum).  dmax must be an int (not a bool) and the
    amplitudes finite and distinct; otherwise ValueError is raised.  The
    trial bases at dmax and dmax + 1 are built before the first row, so
    each row's wall_time is the time, in seconds, to build and solve the
    two pencils of its amplitude only; the t = 0 pencils are round (b = I),
    so that row's time covers no eigensolve (GalerkinPencil.eigenvalues).
    """
    if (isinstance(dmax, bool) or not isinstance(dmax, int)
            or not 0 <= dmax < DEFAULT_DMAX_LIMIT):
        raise ValueError(
            f"dmax must be an integer between 0 and {DEFAULT_DMAX_LIMIT - 1} "
            f"for a scan, which refines at dmax + 1; got {dmax!r}")
    if not all(math.isfinite(t) for t in amplitudes):
        raise ValueError(f"amplitudes must be finite, got {amplitudes!r}")
    if len(set(amplitudes)) != len(amplitudes):
        raise ValueError(f"amplitudes must be distinct, got {amplitudes!r}")
    if 0.0 not in amplitudes:
        raise ValueError("the amplitude grid must contain t = 0")
    if any(abs(t) > 0.05 for t in amplitudes):
        raise ValueError("amplitudes beyond 0.05 leave the perturbative "
                         "regime of the scan")
    _basis_data(manifold, dmax)
    _basis_data(manifold, dmax + 1)
    rows: List[dict] = []
    for label, q in qs:
        values = {}
        for t in amplitudes:
            start = time.perf_counter()
            cf = ConformalFactor(q, t)
            coarse = mu1_normalized(manifold, cf, dmax)
            fine_pencil = assemble_pencil(manifold, cf, dmax + 1)
            mu1 = fine_pencil.mu1()
            values[t] = (coarse, mu1 * fine_pencil.volume ** (1.0 / 3.0),
                         mu1, time.perf_counter() - start)
        base = values[0.0][1]
        for t in amplitudes:
            coarse, fine, mu1, wall_time = values[t]
            delta = abs(fine - coarse)
            passes = (delta < 1e-4
                      and fine >= SCAN_LOWER_BOUND - 1e-9
                      and fine >= base - 1e-6)
            rows.append({
                "manifold": manifold,
                "q": label,
                "t": t,
                "dmax": dmax,
                "mu1": mu1,
                "mu1_normalized": fine,
                "refinement_delta": delta,
                "pass": passes,
                "wall_time": wall_time,
            })
    return rows


class PushforwardField:
    """A divergence-free field transported to the deformed metric.

    The transport divides the field by (1 + t q)^3 so that both the
    helicity and the L^(3/2) norm, taken in the deformed metric, agree with
    the round-metric values of the original field.  At t = 0 the transport
    is the identity.
    """

    def __init__(self, base: FrameField, cf: ConformalFactor,
                 dmax: int = 3):
        self.base = base
        self.factor = cf
        self.dmax = dmax

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Cartesian components (N, 4) of the transported field."""
        values = self.base.evaluate(pts)
        if self.factor.is_trivial():
            return values
        return values / self.factor.sqrt_values(pts)[:, None] ** 3

    def l32_energy(self, grid: HopfGrid | None = None) -> float:
        """Integral of the deformed-metric speed to the power 3/2.

        The deformed speed is (1 + t q) times the frame speed and the
        deformed volume element carries (1 + t q)^3, evaluated pointwise
        without using the algebraic cancellation against the transport.
        """
        def density(pts):
            w = self.factor.sqrt_values(pts)
            return (np.sum(self.evaluate(pts) ** 2, axis=1) * w ** 2) ** 0.75 * w ** 3

        return integrate_scalar(density, grid or default_grid())

    def helicity(self) -> float:
        """Helicity in the deformed metric via a Galerkin curl inversion.

        Solves curl_g W = V weakly over the eigenfield block of the trial
        basis and returns the pairing of W with V.  The weak equations
        pair one-forms against the flux two-form of V, whose density in the
        deformed volume element (1 + t q)^3 cancels the transport's
        division by (1 + t q)^3.  So the right-hand side rhs is the round
        L^2 pairing of each whitened basis column with the base field,
        exact for an exact base, and the value, sum_k rhs_k^2 / mu_k in the
        orthonormal basis, is the round-metric helicity of the base on the
        trial space, whatever the factor.
        """
        data = _basis_data("s3", self.dmax)
        ne = data.eigen_count
        rhs = data.whitening[:ne, :ne] @ np.array(
            [float(f.l2_inner(self.base)) for f in data.fields[:ne]])
        return float(rhs @ (rhs / data.mus[:ne]))


class MinimizerMetric:
    """The conformal metric kappa |u| g0 built from a nonvanishing field.

    kappa = (Vol / E(u))^(2/3) normalizes the total volume back to the
    round value 2 pi^2, and the transported field u / (kappa |u|)^(3/2) has
    constant speed 1 / kappa in the new metric.
    """

    def __init__(self, u: FrameField, grid: HopfGrid | None = None):
        grid = grid or default_grid()
        self._grid = grid
        self.base = u
        values = u.evaluate(grid.points)
        speed_sq = np.sum(values ** 2, axis=1)
        top = float(np.max(speed_sq))
        if top == 0.0 or float(np.min(speed_sq)) <= 1e-12 * top:
            raise ValueError("the field vanishes somewhere on the sphere; "
                             "its speed cannot serve as a metric weight")
        energy = integrate_scalar(lambda pts: speed_sq ** 0.75, grid)
        self.kappa = (2.0 * math.pi ** 2 / energy) ** (2.0 / 3.0)

    def weight_values(self, pts: np.ndarray) -> np.ndarray:
        """The conformal weight kappa |u| at unit points."""
        return self.kappa * np.sqrt(
            np.sum(self.base.evaluate(pts) ** 2, axis=1))

    def volume(self, grid: HopfGrid | None = None) -> float:
        """Total volume of the weighted metric: integral of weight^(3/2)."""
        return integrate_scalar(lambda pts: self.weight_values(pts) ** 1.5,
                                grid or self._grid)

    def transported_values(self, pts: np.ndarray) -> np.ndarray:
        """Cartesian components (N, 4) of u / weight^(3/2)."""
        return self.base.evaluate(pts) / \
            self.weight_values(pts)[:, None] ** 1.5

    def transported_speed(self, pts: np.ndarray) -> np.ndarray:
        """Speed of the transported field in the weighted metric.

        Constant and equal to 1 / kappa by construction; computed pointwise
        so the construction can be checked numerically.
        """
        w = self.weight_values(pts)
        return np.sqrt(w * np.sum(self.transported_values(pts) ** 2,
                                  axis=1))
