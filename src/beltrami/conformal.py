"""First curl eigenvalue under conformal deformation of the round metric.

A conformal metric g = (1 + t q)^2 g0 on S^3 (or on RP^3, for antipodally
invariant q) turns the Beltrami equation curl_g X = mu X, written on the
g0-dual one-form omega, into

    *0 d omega = mu (1 + t q) omega,

so the eigenvalues solve the symmetric generalized pencil A c = mu B(t) c
over a trial space of one-forms, with

    A_ij = <curl e_i, e_j>,    B_ij(t) = integral (1 + t q) <e_i, e_j>.

The trial space spans the exact curl eigenfields up to a frame-coefficient
degree cap together with gradient fields, whose coefficients are read from
integers: the solver's primitive eigenbasis rows, each entry divided once
by its row's pivot, and the frame-derivative table of the monomials; no
rational field is formed.  Distinct curl eigenspaces, and gradients
against divergence-free fields, are L^2-orthogonal exactly, so the basis
is made orthonormal with one Cholesky factor per eigenspace and one for
the gradients.  In that basis B(0) = I and A = diag(mu), with exact zeros
on the gradients, whatever the rounding of the Gram matrix.
Each gradient gives one exact zero eigenvalue, and the other eigenvalues
are the reciprocals of the symmetric problem U^T diag(mu)^-1 U, where
U U^T is the Schur complement of the gradient block of B(t), read off one
Cholesky factor of B(t) (see pencil.eigvalsh_diagonal).  No tolerance
decides which eigenvalues are zero.

Matrix entries are contracted from exact monomial moments of the sphere
(see exactpoly.integrate_monomial) with floating-point accumulation, which
keeps assembly fast while anchoring every moment to its exact rational
value.  Cost: per (manifold, dmax) one basis and its curl diagonals; per
factor q the matrix P of q kept with its coarse block, and the exact
integrals of q, q^2, q^3; per t, b = I + t P, an O(n) check, one eigensolve.
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
    Exponent,
    Poly4,
    Rat,
    SphereScalar,
    _moment_sum,
    _monomial_moment_float,
    canonicalize,
    check_finite_real,
    check_int,
    exponent_sums,
    integer_numerators,
)
from .frames import FrameField, derivative_table, grad
from .pencil import (check_mass, checked_diagonal, eigvalsh_diagonal,
                     inverse_cholesky)
from .quadrature import default_grid
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
    A rational t (an int, a Fraction, a numpy integer) is kept exact and any
    other real is taken as float(t).  The factor is float when t or a
    coefficient of q is a float, and exact otherwise; 1 + t q is built in
    that kind, and only when asked for.
    """

    def __init__(self, q: SphereScalar, t: float):
        _check_factor(q)
        check_finite_real(t, "t")
        if not isinstance(t, numbers.Rational):
            t = float(t)
        self.q = q
        self.t = t
        self.terms = _factor_terms(q)
        self._float = isinstance(t, float) or any(
            isinstance(c, float) for _, c in self.terms)
        i1, i2, i3, size = _factor_moments(self.terms)
        if abs(Rat(t)) * size >= 1:
            low = float(np.min(
                self.sqrt_weight().evaluate(default_grid().points)))
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

    def is_trivial(self) -> bool:
        return self.t == 0 or self.q.is_zero()

    def volume(self):
        """The volume of (S^3, (1 + t q)^2 g0): integral of (1 + t q)^3.

        Read at construction as 2 pi^2 + 3 t I1 + 3 t^2 I2 + t^3 I3 from
        the exact integrals I_k of q^k, which are computed once per q; an
        ExactScalar for an exact factor, a float otherwise.
        """
        return self._volume


def _check_factor(q: SphereScalar, manifold: str = "s3") -> None:
    """TypeError unless q is a SphereScalar; on RP^3, ParityError if it is
    antipodally odd in part, so that 1 + t q does not descend."""
    if not isinstance(q, SphereScalar):
        raise TypeError("q must be a SphereScalar")
    if manifold == "rp3" and not q.odd_part.is_zero():
        raise ParityError(
            "the conformal factor has an antipodally odd part and does not "
            "descend to RP^3")


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
    the powers are products of integer exponent dicts and the integral of
    q^k is one exactpoly moment sum, divided by den^k.
    """
    exact = {e: Rat(c) for e, c in terms}
    den, powers = integer_numerators([exact])
    for _ in range(2):
        power: dict = {}
        for e, c in powers[-1].items():
            for f, d in powers[0].items():
                s = (e[0] + f[0], e[1] + f[1], e[2] + f[2], e[3] + f[3])
                power[s] = power.get(s, 0) + c * d
        powers.append(power)
    return (*(ExactScalar({2: _moment_sum(p.items()) / den ** k})
              for k, p in enumerate(powers, 1)),
            sum(abs(c) for c in exact.values()))


class _BasisData:
    """Assembled orthonormal trial basis for one (manifold, dmax) pair.

    The columns are the exact curl eigenfields with frame-coefficient
    degree up to dmax followed by gradients of scalar monomials up to degree
    dmax + 1.  On RP^3 only the fields and scalars that descend through the
    antipodal map are kept.  Their coefficients are read from integers: each
    eigenfield from the solver's primitive row (SolverEigenspace.integer_rows)
    with one correctly rounded int / pivot per entry, each gradient from
    frames.derivative_table; the tensor stands over the sorted monomials
    that occur, as frames.coefficient_tensor(fields) lays it out.  The
    pencil's columns are whitening @ columns: the inverse Cholesky factor of
    the float Gram block of each eigenspace and of the gradients, so the
    round Gram matrix is I and the curl matrix is diag(mus), both exactly in
    rationals.  P holds the whitened columns' coefficients; levels[i] is the
    least dmax holding column i.  columns holds, for all columns and for
    those of level < dmax (coarse), the dmax, read-only curl diagonal and
    column eigenvalues of their pencils.
    """

    def __init__(self, manifold: str, dmax: int):
        self.manifold = manifold
        self.dmax = dmax
        result = eigenspace_solve(dmax)
        spaces = [result.eigenspaces[mu] for mu in sorted(result.eigenspaces)
                  if manifold == "s3" or mu % 2 == 0]
        monomials = _gradient_monomials(manifold, dmax)
        eigen = [space.eigenvalue for space in spaces
                 for _ in range(space.dimension)]
        self.levels = np.array([abs(mu) - 2 for mu in eigen]
                               + [sum(e) - 1 for e in monomials])
        self.gradient_count = len(monomials)
        self.eigen_count = len(eigen)
        mus = eigen + [0] * len(monomials)
        self.column_eigenvalues = tuple(mus)
        self.mus = np.array(mus, dtype=float)
        self.coarse = self.levels < dmax
        self.columns = ((dmax, self.mus, self.column_eigenvalues),
                        (dmax - 1, self.mus[self.coarse],
                         tuple(np.compress(self.coarse, mus).tolist())))
        for _, diagonal, _ in self.columns:
            diagonal.flags.writeable = False

        # Coefficients over the reduced monomials, one matrix per frame leg.
        self.exponents, P = _integer_tensor(spaces, monomials, dmax)
        # Moments are kept per unique pair sum e_i + e_j, indexed by entry.
        self._sums, self._sum_index = exponent_sums(self.exponents)
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

    @functools.cached_property
    def fields(self) -> List[FrameField]:
        """The unwhitened columns as exact FrameFields, built on first use:
        coefficient_tensor(fields) is (exponents, the tensor P whitens)."""
        result = eigenspace_solve(self.dmax)
        fields = [f for mu in sorted(set(
            self.column_eigenvalues[:self.eigen_count]))
            for f in result.eigenspaces[mu].fields()]
        return fields + [grad(canonicalize(Poly4.monomial(e)))
                         for e in _gradient_monomials(self.manifold,
                                                      self.dmax)]

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

    def perturbation(self, q: SphereScalar, terms: tuple | None = None,
                     coarse: bool = False) -> np.ndarray:
        """The matrix of integral q <e_i, e_j> over the whitened columns
        (or its coarse block), with one contraction per frame leg; terms, if
        given, must be _factor_terms(q).  The latest q's matrix is kept."""
        terms = terms or _factor_terms(q)
        if self._last_perturbation[0] != terms:
            moments = sum(float(c) * self._moments(e) for e, c in terms)
            p = self._contract(self.P, moments[self._sum_index])
            self._last_perturbation = (
                terms, (p, p[np.ix_(self.coarse, self.coarse)]))
        return self._last_perturbation[1][coarse]

    def pencil(self, cf: ConformalFactor, coarse=False) -> GalerkinPencil:
        """The pencil of cf on every column, or on the coarse ones."""
        dmax, mus, eigenvalues = self.columns[coarse]
        if cf.is_trivial():
            b = np.eye(len(mus))
        else:
            b = float(cf.t) * self.perturbation(cf.q, cf.terms, coarse)
            b.flat[::b.shape[0] + 1] += 1.0
        volume = float(cf.volume()) * (0.5 if self.manifold == "rp3" else 1.0)
        return GalerkinPencil(self.manifold, dmax, mus, b, eigenvalues,
                              eigenvalues.count(0), volume,
                              identity_mass=cf.is_trivial())


def _gradient_monomials(manifold: str, dmax: int) -> List[Exponent]:
    """The nonconstant reduced monomials of degree <= dmax + 1 whose
    gradients are trial columns; on RP^3 the even ones only."""
    return [e for p in ((0, 1) if manifold == "s3" else (0,))
            for e in _reduced_monomials(dmax + 1, p) if any(e)]


def _integer_tensor(spaces, monomials: List[Exponent], dmax: int
                    ) -> Tuple[List[Exponent], np.ndarray]:
    """(exponents, T) for the columns of the solver eigenspaces spaces, in
    order, then the gradients of the monomials: T[a, i, j] the coefficient
    of x^exponents[j] in frame slot a of column i, the exponents sorted and
    each occurring in some column.  The value of an eigenfield entry n of a
    row with pivot r is n / r, correctly rounded; a gradient's are the ints
    of frames.derivative_table.  Every coefficient has degree <= dmax + 2.
    """
    candidates = sorted(_reduced_monomials(dmax + 2, 0)
                        + _reduced_monomials(dmax + 2, 1))
    index = {e: j for j, e in enumerate(candidates)}
    count = sum(space.dimension for space in spaces) + len(monomials)
    tensor = np.zeros((3, count, len(candidates)))

    def fill(column: int, entries, values) -> None:
        tensor[[a for a, _ in entries], column,
               [index[e] for _, e in entries]] = values

    column = 0
    for space in spaces:
        for pivot, entries in space.integer_rows():
            fill(column, list(entries), [n / pivot for n in entries.values()])
            column += 1
    for e in monomials:
        images = [((a, f), k) for a in range(3)
                  for f, k in derivative_table(e, a + 1)]
        fill(column, [key for key, _ in images], [k for _, k in images])
        column += 1
    used = np.flatnonzero(tensor.any(axis=(0, 1)))
    return ([candidates[j] for j in used],
            np.ascontiguousarray(tensor[:, :, used]))


@functools.lru_cache(maxsize=None, typed=True)
def _basis_data(manifold: str, dmax: int) -> _BasisData:
    if manifold not in MANIFOLDS:
        raise ValueError(f"manifold must be one of {MANIFOLDS}, "
                         f"got {manifold!r}")
    return _BasisData(manifold, check_int(dmax, "dmax", 0))


@dataclass
class GalerkinPencil:
    """The symmetric pencil (A, B) for one manifold, factor, and degree cap.

    a is the diagonal of the curl pairings, diag(a) in the orthonormal
    basis, b the weighted mass matrix, column_eigenvalues the exact curl
    eigenvalue of each basis column (zero for gradients), and volume the
    total volume of the deformed manifold.  identity_mass says that b is I
    exactly, as _BasisData.pencil builds it for a trivial factor, so that
    eigenvalues() need not scan b.
    """

    manifold: str
    dmax: int
    a: np.ndarray
    b: np.ndarray
    column_eigenvalues: Tuple[int, ...]
    gradient_count: int
    volume: float
    identity_mass: bool = False

    def principal_block(self, keep: np.ndarray, dmax: int) -> GalerkinPencil:
        """The pencil on the columns a boolean mask keeps, gradients last."""
        i = np.flatnonzero(keep)
        mus = tuple(self.column_eigenvalues[k] for k in i)
        return GalerkinPencil(self.manifold, dmax, self.a[i],
                              self.b[i][:, i], mus, mus.count(0), self.volume,
                              self.identity_mass)

    def eigenvalues(self) -> np.ndarray:
        """All generalized eigenvalues, ascending.

        a must be a vector, zero exactly on its last gradient_count entries
        (the gradients) and nonzero on the others (the eigenfields); any
        other a raises RuntimeError, and a b that is not len(a) x len(a)
        ValueError, on every call.  The gradients give gradient_count exact
        zeros; the others come from one Cholesky factor of b
        (pencil.eigvalsh_diagonal), or, if b = I exactly, are a sorted.
        A pencil marked identity_mass takes the second path with no scan
        of b; any other is scanned for b = I.
        """
        b = self.b
        check_mass(self.a, b)
        if self.identity_mass or (np.all(b.diagonal() == 1.0)
                                  and np.count_nonzero(b) == len(b)):
            return np.sort(checked_diagonal(self.a, self.gradient_count))
        return eigvalsh_diagonal(self.a, b, self.gradient_count)

    def first_eigenvalues(self) -> Tuple[float, float]:
        """(mu1^-, mu1): largest negative (-inf if none), smallest positive."""
        spectrum = self.eigenvalues()
        positive = spectrum[spectrum > 0]
        if positive.size == 0:
            raise RuntimeError("the pencil has no positive eigenvalue")
        return (float(spectrum[spectrum < 0].max(initial=-math.inf)),
                float(positive[0]))

    def mu1(self) -> float:
        """Smallest positive eigenvalue; the gradient zeros are exact."""
        return self.first_eigenvalues()[1]

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
    _check_factor(cf.q, manifold)
    return _basis_data(manifold, dmax).pencil(cf)


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
    amplitude t the normalized eigenvalue is computed at degree cap
    dmax + 1, and at dmax from the pencil on the columns of level <= dmax,
    the principal block of the first (RuntimeError unless no kept whitened
    column uses a dropped field); a row passes when the refinement moves it
    by less than 1e-4, it clears the (16/pi)^(1/3) lower bound, and it is
    no smaller than the t = 0 value of its own factor minus 1e-6 (so the
    undeformed metric is the grid minimum).  dmax must be an int (not a
    bool) below DEFAULT_DMAX_LIMIT, as the scan refines at dmax + 1, and
    the amplitudes distinct and finite reals (not bools);
    otherwise ValueError is raised before any basis is built.  Rows also
    give, not deciding the pass, the largest negative eigenvalue
    mu1_negative and min(mu1, |mu1_negative|)^2 Vol^(2/3).  Cost per
    factor: one P; per t != 0: two b = I + t P and two eigensolves.
    """
    try:
        check_int(dmax, "dmax", 0, DEFAULT_DMAX_LIMIT - 1)
    except ValueError as error:
        raise ValueError(f"{error}; a scan refines at dmax + 1") from None
    for t in amplitudes:
        check_finite_real(t, "t")
    if len(set(amplitudes)) != len(amplitudes):
        raise ValueError(f"amplitudes must be distinct, got {amplitudes!r}")
    if 0.0 not in amplitudes:
        raise ValueError("the amplitude grid must contain t = 0")
    if any(abs(t) > 0.05 for t in amplitudes):
        raise ValueError("amplitudes beyond 0.05 leave the perturbative "
                         "regime of the scan")
    qs = list(qs)
    for _, q in qs:
        _check_factor(q, manifold)
    data = _basis_data(manifold, dmax + 1)
    if np.any(data.whitening[data.coarse][:, ~data.coarse]):
        raise RuntimeError("a kept whitened column uses a dropped field")
    rows: List[dict] = []
    for label, q in qs:
        values = {}
        for t in amplitudes:
            start = time.perf_counter()
            cf = ConformalFactor(q, t)
            fine_pencil = assemble_pencil(manifold, cf, dmax + 1)
            coarse = data.pencil(cf, coarse=True).mu1_normalized()
            negative, mu1 = fine_pencil.first_eigenvalues()
            values[t] = (coarse, mu1 * fine_pencil.volume ** (1.0 / 3.0),
                         mu1, negative, time.perf_counter() - start)
        base = values[0.0][1]
        for t in amplitudes:
            coarse, fine, mu1, negative, wall_time = values[t]
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
                "mu1_negative": negative,
                "mu1_normalized": fine,
                "hodge_normalized": (min(mu1, -negative) * fine / mu1) ** 2,
                "refinement_delta": delta,
                "pass": passes,
                "wall_time": wall_time,
            })
    return rows
