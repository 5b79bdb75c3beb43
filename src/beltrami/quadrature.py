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
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

DEFAULT_RADIAL_ORDER = 24
DEFAULT_ANGULAR_ORDER = 48


class HopfGrid:
    """An immutable product quadrature grid on S^3.

    points is an (N, 4) array of Cartesian samples and weights the matching
    (N,) array of positive weights summing to the volume 2 pi^2.
    """

    __slots__ = ("radial_order", "angular_order", "points", "weights")

    def __init__(self, radial_order: int = DEFAULT_RADIAL_ORDER,
                 angular_order: int = DEFAULT_ANGULAR_ORDER):
        if radial_order < 1 or angular_order < 1:
            raise ValueError("quadrature orders must be positive")
        self.radial_order = radial_order
        self.angular_order = angular_order
        # Gauss-Legendre on [-1, 1] mapped to u in [0, 1].
        nodes, wu = np.polynomial.legendre.leggauss(radial_order)
        u = 0.5 * (nodes + 1.0)
        wu = 0.5 * wu
        xi = 2.0 * math.pi * np.arange(angular_order) / angular_order
        w_angle = 2.0 * math.pi / angular_order
        cos_eta = np.sqrt(1.0 - u)
        sin_eta = np.sqrt(u)
        cos_xi, sin_xi = np.cos(xi), np.sin(xi)
        # Build the product grid: index order (radial, xi1, xi2).
        pts = np.empty((radial_order, angular_order, angular_order, 4))
        pts[..., 0] = cos_eta[:, None, None] * cos_xi[None, :, None]
        pts[..., 1] = cos_eta[:, None, None] * sin_xi[None, :, None]
        pts[..., 2] = sin_eta[:, None, None] * cos_xi[None, None, :]
        pts[..., 3] = sin_eta[:, None, None] * sin_xi[None, None, :]
        wts = 0.5 * wu[:, None, None] * w_angle ** 2
        wts = np.broadcast_to(wts, pts.shape[:3])
        self.points = pts.reshape(-1, 4)
        self.weights = wts.reshape(-1).copy()
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def exact_cartesian_degree(self) -> int:
        """Largest Cartesian polynomial degree integrated exactly.

        A degree-d monomial contributes an integer u-power of at most d/2
        after the vanishing odd angular modes are discarded, so radial order
        r covers d <= 2 (2r - 1) and angular order n covers d <= n - 1.
        """
        return min(2 * (2 * self.radial_order - 1), self.angular_order - 1)


def _evaluate(f, grid: HopfGrid) -> np.ndarray:
    values = f(grid.points) if callable(f) else f.evaluate(grid.points)
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError("integrand evaluator returned a wrong shape")
    return values


def integrate_scalar(f, grid: HopfGrid | None = None) -> float:
    """Integral over S^3 of a pointwise evaluator (or object with .evaluate).

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


@functools.lru_cache(maxsize=8)
def shared_grid(radial_order: int, angular_order: int) -> HopfGrid:
    """The cached grid of the given orders: equal orders share one object."""
    return HopfGrid(radial_order, angular_order)


def grid_for_degree(degree: int) -> HopfGrid:
    """The smallest grid exact for polynomials of Cartesian degree <= `degree`.

    The radial order must cover u-degree degree/2 + 1 and the angular order
    must exceed the trigonometric degree.  The grid can be far smaller than
    the default one: degree 12 gives HopfGrid(4, 13), 676 points.  For a
    polynomial integrand the only error left is rounding.  Grids of equal
    orders are one cached object (shared_grid).
    """
    return shared_grid((degree // 2 + 1) // 2 + 1, degree + 1)
