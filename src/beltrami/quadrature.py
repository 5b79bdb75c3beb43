"""Deterministic quadrature over S^3 in Hopf coordinates.

The sphere is parametrized by

    x = (cos(eta) cos(xi1), cos(eta) sin(xi1), sin(eta) cos(xi2), sin(eta) sin(xi2))

with volume element sin(eta) cos(eta) d eta d xi1 d xi2.  Substituting
u = sin(eta)^2 turns the radial weight into du / 2 on [0, 1], so a Gauss rule
in u combined with uniform grids in the two angles integrates any polynomial
integrand exactly: a monomial of Cartesian degree d is a polynomial of degree
at most d/2 + 1 in u times trigonometric polynomials of degree at most d in
each angle.  A radial order r is exact through u-degree 2r - 1 and an angular
order n through trigonometric degree n - 1.

Node sums are numpy's pairwise sums: deterministic, independent of BLAS
threads, and far cheaper than math.fsum on the default grid.

Polynomials are evaluated on the grid by sum factorization, the standard
kernel of tensor-product spectral grids.  At the point of radial node r and
angles xi1_i, xi2_j a monomial factors as

    x^e = cos(eta_r)^(e1 + e2) sin(eta_r)^(e3 + e4)
          * cos(xi1_i)^e1 sin(xi1_i)^e2 * cos(xi2_j)^e3 sin(xi2_j)^e4,

so for coefficients C[k, e] the values at node r are

    V[k, r, i, j] = sum_q (sum_p A1[p, i] C[k, p, q] rad[r, p, q]) A2[q, j]

with p = (e1, e2), q = (e3, e4), A1 and A2 the angular factors and rad the
radial one.  HopfGrid.polynomial_slabs takes the two sums as one product
over the xi1 factors and one over the xi2 factors per slab of radial nodes,
in the points' (radial, xi1, xi2) order, and never builds the (m, N) matrix
of monomial values.  A slab holds as many radial nodes as fit
_SLAB_DOUBLES values for the K polynomials, at least one: three
polynomials take the default grid in one slab, six in two.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from beltrami.exactpoly import check_int

DEFAULT_RADIAL_ORDER = 24
DEFAULT_ANGULAR_ORDER = 48
# Values held by one slab of polynomial_slabs, 1.31 MiB: the smallest
# multiple of 8192 that keeps three polynomials on the default grid's 55,296
# points (one direction's line columns) in one slab, so they are returned
# without a copy.  The local maximality scan's pair of samples, six
# polynomials, streams in two slabs.
_SLAB_DOUBLES = 21 * 8192


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x^k for k = 0..top as the rows of a (top + 1, len(x)) array, each
    row the one before it times x."""
    table = np.ones((top + 1, len(x)))
    np.multiply.accumulate(np.broadcast_to(x, (top, len(x))), axis=0,
                           out=table[1:])
    return table


class HopfGrid:
    """An immutable product quadrature grid on S^3.

    weights is the (N,) array of positive weights summing to the volume
    2 pi^2, and points the matching (N, 4) array of Cartesian samples in
    (radial, xi1, xi2) order.  Both are read-only.  points is built on first
    use: integrals of densities given by their grid values and
    polynomial_slabs never need it.
    """

    __slots__ = ("radial_order", "angular_order", "weights", "_eta", "_xi",
                 "_points")

    def __init__(self, radial_order: int = DEFAULT_RADIAL_ORDER,
                 angular_order: int = DEFAULT_ANGULAR_ORDER):
        check_int(radial_order, "radial_order", 1)
        check_int(angular_order, "angular_order", 1)
        self.radial_order = radial_order
        self.angular_order = angular_order
        # Gauss-Legendre on [-1, 1] mapped to u in [0, 1].
        nodes, wu = np.polynomial.legendre.leggauss(radial_order)
        u = 0.5 * (nodes + 1.0)
        wu = 0.5 * wu
        xi = 2.0 * math.pi * np.arange(angular_order) / angular_order
        w_angle = 2.0 * math.pi / angular_order
        self.weights = np.repeat(0.5 * wu * w_angle ** 2, angular_order ** 2)
        self.weights.setflags(write=False)
        self._eta = (np.sqrt(1.0 - u), np.sqrt(u))
        self._xi = (np.cos(xi), np.sin(xi))
        self._points = None

    @property
    def points(self) -> np.ndarray:
        """The (N, 4) Cartesian samples, built on the first call."""
        if self._points is None:
            (cos_eta, sin_eta), (cos_xi, sin_xi) = self._eta, self._xi
            n = self.angular_order
            pts = np.empty((self.radial_order, n, n, 4))
            pts[..., 0] = cos_eta[:, None, None] * cos_xi[None, :, None]
            pts[..., 1] = cos_eta[:, None, None] * sin_xi[None, :, None]
            pts[..., 2] = sin_eta[:, None, None] * cos_xi[None, None, :]
            pts[..., 3] = sin_eta[:, None, None] * sin_xi[None, None, :]
            self._points = pts.reshape(-1, 4)
            self._points.setflags(write=False)
        return self._points

    @property
    def size(self) -> int:
        return self.radial_order * self.angular_order ** 2

    def exact_cartesian_degree(self) -> int:
        """Largest Cartesian polynomial degree integrated exactly.

        A degree-d monomial contributes an integer u-power of at most d/2
        after the vanishing odd angular modes are discarded, so radial order
        r covers d <= 2 (2r - 1) and angular order n covers d <= n - 1.
        """
        return min(2 * (2 * self.radial_order - 1), self.angular_order - 1)

    def polynomial_slabs(self, exponents: Sequence[Sequence[int]],
                         coefficients: np.ndarray
                         ) -> Iterator[Tuple[slice, np.ndarray]]:
        """Values of K polynomials on the grid, one slab of radial nodes at
        a time, by sum factorization (module docstring).

        Polynomial k is sum_j coefficients[k, j] x^exponents[j], for m
        exponent 4-tuples (repeats add up) and a (K, m) coefficient array.
        Yields (block, values): a slice of the points and the (K, n) values
        there, a fresh array per slab; the slabs cover the points in order.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim != 2 or coefficients.shape[1] != len(exponents):
            raise ValueError(f"expected a (K, {len(exponents)}) coefficient "
                             f"array, got shape {coefficients.shape}")
        count, n = coefficients.shape[0], self.angular_order
        if not len(exponents):
            exponents, coefficients = [(0, 0, 0, 0)], np.zeros((count, 1))
        # The distinct pairs p = (e1, e2) and q = (e3, e4).
        first: dict = {}
        second: dict = {}
        p = [first.setdefault(tuple(e[:2]), len(first)) for e in exponents]
        q = [second.setdefault(tuple(e[2:]), len(second)) for e in exponents]
        (e1, e2), (e3, e4) = (np.array(list(pairs), dtype=np.intp).T
                              for pairs in (first, second))
        if min(e1.min(), e2.min(), e3.min(), e4.min()) < 0:
            raise ValueError("exponents must be non-negative")
        # Coefficients as (p, k, q), the layout of the xi1 product.
        dense = np.zeros((len(first), count, len(second)))
        np.add.at(dense, (p, slice(None), q), coefficients.T)
        top = max(e1.max(), e2.max(), e3.max(), e4.max())
        cos_xi, sin_xi = (_powers(x, top) for x in self._xi)
        xi1 = cos_xi[e1] * sin_xi[e2]                           # (P, n)
        xi2 = cos_xi[e3] * sin_xi[e4]                           # (Q, n)
        cos_eta, sin_eta = (_powers(x, 2 * top) for x in self._eta)
        # rad[p, r, q] = cos(eta_r)^(e1 + e2) sin(eta_r)^(e3 + e4).
        rad = cos_eta[e1 + e2][:, :, None] * sin_eta[e3 + e4].T
        nodes = max(1, _SLAB_DOUBLES // max(count * n * n, 1))
        for r0 in range(0, self.radial_order, nodes):
            r1 = min(r0 + nodes, self.radial_order)
            scaled = dense[:, :, None, :] * rad[:, None, r0:r1, :]
            inner = (xi1.T @ scaled.reshape(len(first), -1)).reshape(
                n, count, r1 - r0, len(second))
            yield slice(r0 * n * n, r1 * n * n), (
                inner.transpose(1, 2, 0, 3).reshape(-1, len(second)) @ xi2
            ).reshape(count, (r1 - r0) * n * n)

    def polynomial_values(self, exponents: Sequence[Sequence[int]],
                          coefficients: np.ndarray) -> np.ndarray:
        """The (K, N) values of polynomial_slabs at all the points: the
        slab itself when one slab covers the grid."""
        slabs = [values for _, values in
                 self.polynomial_slabs(exponents, coefficients)]
        return slabs[0] if len(slabs) == 1 else np.concatenate(slabs, axis=1)


def _evaluate(f, grid: HopfGrid) -> np.ndarray:
    if not isinstance(f, np.ndarray):
        f = f(grid.points) if callable(f) else f.evaluate(grid.points)
    values = np.asarray(f, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError(f"integrand values have shape {values.shape}, "
                         f"expected ({grid.size},)")
    return values


def integrate_scalar(f, grid: HopfGrid | None = None) -> float:
    """Integral over S^3 of a density: its (N,) values on grid, a pointwise
    evaluator, or an object with .evaluate.

    Deterministic: the pairwise sum of weight * value over the grid.
    """
    grid = grid or default_grid()
    values = _evaluate(f, grid)
    return float(np.sum(grid.weights * values))


def convergence_probe(f, orders: Sequence[Tuple[int, int]]) -> List[dict]:
    """Integrate f across increasing orders and report successive differences.

    Each row carries the orders, the value, the difference to the previous
    row, and a 'converged' flag (difference below 1e-12).  The first row has
    no difference and is never flagged converged.
    """
    table: List[dict] = []
    previous = None
    for radial, angular in orders:
        value = integrate_scalar(f, HopfGrid(radial, angular))
        diff = None if previous is None else abs(value - previous)
        table.append({
            "radial_order": radial,
            "angular_order": angular,
            "value": value,
            "difference": diff,
            "converged": diff is not None and diff < 1e-12,
        })
        previous = value
    return table


def default_grid() -> HopfGrid:
    return shared_grid(DEFAULT_RADIAL_ORDER, DEFAULT_ANGULAR_ORDER)


@functools.lru_cache(maxsize=8, typed=True)
def shared_grid(radial_order: int, angular_order: int) -> HopfGrid:
    """The cached grid of the given orders: equal orders share one object.

    Typed, so that True never finds the grid cached for 1 (HopfGrid
    rejects bool orders).
    """
    return HopfGrid(radial_order, angular_order)


def grid_for_degree(degree: int) -> HopfGrid:
    """The smallest grid exact for polynomials of Cartesian degree <= `degree`.

    The radial order must cover u-degree degree/2 + 1 and the angular order
    must exceed the trigonometric degree.  The grid can be far smaller than
    the default one: degree 12 gives HopfGrid(4, 13), 676 points.  For a
    polynomial integrand the only error left is rounding.  Grids of equal
    orders are one cached object (shared_grid).  degree must be an int >= 0
    (not a bool).
    """
    check_int(degree, "degree", 0)
    return shared_grid((degree // 2 + 1) // 2 + 1, degree + 1)
