"""Tests for the Hopf-coordinate product quadrature."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from beltrami.exactpoly import Poly4, evaluate_polys, integrate_monomial
from beltrami.frames import hopf_frame
from beltrami.atlas import explicit_basis
from beltrami.quadrature import (
    HopfGrid,
    convergence_probe,
    default_grid,
    grid_for_degree,
    integrate_scalar,
    shared_grid,
)


class TestHopfGrid:
    def test_points_on_sphere(self):
        grid = HopfGrid(4, 8)
        radii = np.linalg.norm(grid.points, axis=1)
        np.testing.assert_allclose(radii, 1.0, rtol=1e-14)

    def test_immutable(self):
        grid = HopfGrid(4, 8)
        with pytest.raises(ValueError):
            grid.points[0, 0] = 2.0

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            HopfGrid(0, 8)


class TestOrderValidation:
    @pytest.mark.parametrize("orders,name", [
        ((True, 8), "radial_order"), ((2.5, 8), "radial_order"),
        ((0, 8), "radial_order"), ((-1, 8), "radial_order"),
        ((8, False), "angular_order"), ((8, 2.5), "angular_order"),
        ((8, 0), "angular_order")])
    def test_hopf_grid_rejects(self, orders, name):
        value = orders[0] if name == "radial_order" else orders[1]
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an int >= 1, got {value!r}")):
            HopfGrid(*orders)

    @pytest.mark.parametrize("degree", [True, False, -1, 2.5, "3"])
    def test_grid_for_degree_rejects(self, degree):
        with pytest.raises(ValueError, match=re.escape(
                f"degree must be an int >= 0, got {degree!r}")):
            grid_for_degree(degree)

    def test_shared_grid_does_not_take_a_bool_for_one(self):
        assert shared_grid(1, 8).radial_order == 1
        with pytest.raises(ValueError, match="radial_order"):
            shared_grid(True, 8)


def random_polynomials(rng, count: int, degree: int, reduced: bool,
                       terms: int = 40):
    """Distinct exponents of total degree <= degree (x4-exponent <= 1 when
    reduced) and a (count, m) array of standard normal coefficients."""
    every = [e for e in np.ndindex(*(degree + 1,) * 4)
             if sum(e) <= degree and (e[3] <= 1 or not reduced)]
    chosen = rng.choice(len(every), min(terms, len(every)), replace=False)
    exponents = [tuple(int(k) for k in every[i]) for i in sorted(chosen)]
    return exponents, rng.standard_normal((count, len(exponents)))


def reference_values(grid: HopfGrid, exponents, coefficients) -> np.ndarray:
    return evaluate_polys([Poly4(dict(zip(exponents, row)))
                           for row in coefficients], grid.points)


def assert_matches_reference(grid: HopfGrid, exponents, coefficients):
    values = grid.polynomial_values(exponents, coefficients)
    assert values.shape == (len(coefficients), grid.size)
    scale = max(float(np.max(np.abs(coefficients), initial=0.0)), 1.0)
    error = np.max(np.abs(values - reference_values(grid, exponents,
                                                    coefficients)))
    assert error <= 1e-13 * scale


class TestPolynomialSlabs:
    """Values by sum factorization against monomial evaluation."""

    @pytest.mark.parametrize("count", [1, 60])
    @pytest.mark.parametrize("reduced", [True, False])
    def test_default_grid(self, count, reduced):
        rng = np.random.default_rng(11 + count + reduced)
        assert_matches_reference(default_grid(), *random_polynomials(
            rng, count, 5, reduced))

    @pytest.mark.parametrize("degree", range(21))
    def test_grid_for_degree(self, degree):
        # Angular orders degree + 1, odd and even, and radial orders 1..6.
        grid = grid_for_degree(degree)
        rng = np.random.default_rng(degree)
        for reduced in (True, False):
            assert_matches_reference(grid, *random_polynomials(
                rng, 3, degree, reduced))

    def test_radial_order_not_a_multiple_of_the_slab(self):
        # 60 polynomials on 40 x 40 angles take 5 radial nodes per slab.
        grid = HopfGrid(7, 40)
        exponents, coefficients = random_polynomials(
            np.random.default_rng(5), 60, 6, False)
        blocks = [block for block, _ in grid.polynomial_slabs(exponents,
                                                              coefficients)]
        assert blocks == [slice(0, 8000), slice(8000, 11200)]
        assert_matches_reference(grid, exponents, coefficients)

    def test_one_slab_for_few_polynomials(self):
        slabs = list(default_grid().polynomial_slabs(
            [(1, 0, 0, 0)], np.ones((3, 1))))
        assert [block for block, _ in slabs] == [slice(0, 55296)]

    @pytest.mark.parametrize("count", [1, 60])
    def test_zero_and_constant_coefficients(self, count):
        grid = shared_grid(8, 16)
        exponents, _ = random_polynomials(np.random.default_rng(3), count,
                                          4, True)
        zero = grid.polynomial_values(exponents,
                                      np.zeros((count, len(exponents))))
        assert not zero.any()
        constants = np.linspace(-2.0, 3.0, count)[:, None]
        values = grid.polynomial_values([(0, 0, 0, 0)], constants)
        assert np.array_equal(values, np.broadcast_to(constants, values.shape))
        assert not grid.polynomial_values([], np.zeros((count, 0))).any()

    def test_repeated_exponents_add_up(self):
        grid = shared_grid(4, 8)
        twice = grid.polynomial_values([(1, 2, 0, 1), (1, 2, 0, 1)],
                                       [[0.25, 0.5]])
        once = grid.polynomial_values([(1, 2, 0, 1)], [[0.75]])
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-15)

    def test_rejects_mismatched_coefficients(self):
        with pytest.raises(ValueError, match="coefficient array"):
            default_grid().polynomial_values([(1, 0, 0, 0)], np.ones((2, 3)))


class TestSharedGrid:
    def test_grid_shape(self):
        grid = shared_grid(8, 16)
        assert grid.size == 8 * 16 * 16
        assert grid.exact_cartesian_degree() == 15

    def test_equal_orders_share_one_grid(self):
        assert shared_grid(24, 48) is default_grid()
        assert shared_grid(8, 16) is shared_grid(8, 16)
        assert grid_for_degree(12) is grid_for_degree(12)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            shared_grid(0, 8)


class TestPolynomialExactness:
    def test_constant(self):
        assert integrate_scalar(lambda pts: np.ones(pts.shape[0])) == \
            pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_spec_monomial(self):
        f = Poly4.variable(1) ** 2 * Poly4.variable(2) ** 2
        assert integrate_scalar(f) == pytest.approx(math.pi ** 2 / 12,
                                                    rel=1e-13)

    def test_all_monomials_up_to_degree_twelve(self):
        grid = default_grid()
        assert grid.exact_cartesian_degree() >= 12
        rng = random.Random(103)
        for _ in range(60):
            e = [rng.randrange(4) for _ in range(4)]
            while sum(e) > 12:
                e[rng.randrange(4)] = max(0, e[rng.randrange(4)] - 1)
            exact = float(integrate_monomial(tuple(e)))
            value = integrate_scalar(Poly4.monomial(tuple(e)), grid)
            if exact == 0.0:
                assert abs(value) < 1e-14
            else:
                assert value == pytest.approx(exact, rel=1e-13)

    def test_odd_integrands_vanish(self):
        grid = default_grid()
        for i in range(1, 5):
            value = integrate_scalar(Poly4.variable(i) ** 3, grid)
            assert abs(value) < 1e-14

    def test_grid_for_degree(self):
        grid = grid_for_degree(60)
        assert grid.exact_cartesian_degree() >= 60
        e = (30, 20, 10, 0)
        assert integrate_scalar(Poly4.monomial(e), grid) == \
            pytest.approx(float(integrate_monomial(e)), rel=1e-12)


    @pytest.mark.parametrize("degree", [*range(17), 60])
    def test_grid_for_degree_integrates_every_monomial(self, degree):
        grid = grid_for_degree(degree)
        assert grid.exact_cartesian_degree() >= degree
        sums = monomial_sums(grid, degree)
        assert len(sums) == math.comb(degree + 3, 3)
        for e, value in sums.items():
            assert abs(value - float(integrate_monomial(e))) <= 1e-12, e

    def test_grid_for_degree_is_smallest_for_the_series(self):
        grid = grid_for_degree(12)
        assert (grid.radial_order, grid.angular_order) == (4, 13)
        assert grid.size == 676


def monomial_sums(grid: HopfGrid, degree: int) -> dict:
    """Grid sums of every monomial of the given degree, keyed by exponent.

    Row a of the left factor is w x1^a x2^(s - a) and column c of the right
    factor is x3^c x4^(degree - s - c), so one matrix product per s = a + b
    gives all monomials with that split.
    """
    tables = []
    for x in np.ascontiguousarray(grid.points.T):
        table = np.empty((degree + 1, grid.size))
        table[0] = 1.0
        for k in range(1, degree + 1):
            table[k] = table[k - 1] * x
        tables.append(table)
    x1, x2, x3, x4 = tables
    sums = {}
    for s in range(degree + 1):
        rest = degree - s
        left = grid.weights * x1[:s + 1] * x2[s::-1]
        block = left @ (x3[:rest + 1] * x4[rest::-1]).T
        for a in range(s + 1):
            for c in range(rest + 1):
                sums[(a, s - a, c, rest - c)] = float(block[a, c])
    return sums


class TestNonPolynomial:
    def test_closed_form_fractional_power(self):
        # Radial reduction: the integrand depends only on eta, and
        # 4 pi^2 * integral_0^{pi/2} cos(eta)^{5/2} sin(eta) cos(eta) d eta
        # evaluates to 8 pi^2 / 7.
        def f(pts):
            return (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 0.75

        # The integrand is (1 - u)^{3/4} in the radial variable, with an
        # algebraic endpoint singularity, so convergence is algebraic: the
        # default grid lands within a few 1e-6 relative.
        assert integrate_scalar(f) == pytest.approx(8 * math.pi ** 2 / 7,
                                                    rel=1e-5)
        refined = integrate_scalar(f, HopfGrid(96, 96))
        assert refined == pytest.approx(8 * math.pi ** 2 / 7, rel=1e-7)


class TestConvergenceProbe:
    def test_polynomial_immediately_flat(self):
        f = Poly4.variable(1) ** 4
        table = convergence_probe(f, [(8, 16), (12, 24), (24, 48)])
        assert table[0]["difference"] is None
        assert all(row["difference"] < 1e-13 for row in table[1:])
        assert all(row["converged"] for row in table[1:])

    def test_smoothed_energy_integrand_converges(self):
        B1, _, _ = hopf_frame()
        u5 = explicit_basis(3).orthonormal_float_fields()[4]
        field = B1.to_float() + u5.scale(0.05)

        def f(pts):
            return np.sum(field.evaluate(pts) ** 2, axis=1) ** 0.75

        table = convergence_probe(f, [(8, 16), (16, 32), (24, 48)])
        diffs = [row["difference"] for row in table[1:]]
        # The squared speed is bounded away from zero, so the integrand is
        # smooth and the probe is flat at machine precision right away.
        assert all(d < 1e-12 for d in diffs)
        assert table[-1]["converged"]

    def test_jump_flagged_as_nonconverging(self):
        def jump(pts):
            return (pts[:, 0] > 0.2).astype(float)

        table = convergence_probe(jump, [(8, 16), (16, 32), (24, 48)])
        assert not table[-1]["converged"]
