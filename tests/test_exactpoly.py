"""Tests for exact polynomial arithmetic and sphere integration."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beltrami.exactpoly import (
    ExactScalar,
    Poly4,
    Rat,
    SphereScalar,
    canonicalize,
    directional_derivative,
    evaluate_polys,
    format_exact,
    integrate_monomial,
    integrate_poly,
    monomial_rows,
    parse_exact,
    power_tables,
)
from conftest import rand_poly, rand_sphere_scalar, sphere_points

# Generator of the rotation whose linear field is (-x2, x1, -x4, x3).
L1 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def exact(p, q=1, pi_power=0):
    return ExactScalar({pi_power: Rat(p, q)})


class TestIntegrateMonomial:
    def test_volume(self):
        assert integrate_monomial((0, 0, 0, 0)) == exact(2, 1, 2)

    def test_odd_exponent_vanishes(self):
        assert integrate_monomial((1, 0, 0, 0)).is_zero()
        assert integrate_monomial((2, 3, 0, 1)).is_zero()

    def test_quadratic_by_symmetry(self):
        # The four x_i^2 integrals agree by symmetry and sum to the volume.
        vals = [integrate_monomial(tuple(2 * (i == j) for j in range(4)))
                for i in range(4)]
        assert all(v == exact(1, 2, 2) for v in vals)

    def test_mixed_quartic(self):
        assert integrate_monomial((2, 2, 0, 0)) == exact(1, 12, 2)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            integrate_monomial((1, 2, 3))
        with pytest.raises(ValueError):
            integrate_monomial((-2, 0, 0, 0))


def test_monomial_moments_match_monte_carlo():
    """Seeded Monte-Carlo oracle for every even-exponent moment of degree <= 12.

    The sample mean over uniform points of S^3, scaled by the volume 2 pi^2,
    must agree with the closed-form value within four standard errors.
    """
    n_total = 10_000_000
    chunk = 2_500_000
    tuples = [b for b in product(range(7), repeat=4) if sum(b) <= 6]
    sums = {b: 0.0 for b in tuples}
    sq_sums = {b: 0.0 for b in tuples}
    gen = np.random.default_rng(20260826)
    for _ in range(n_total // chunk):
        pts = gen.standard_normal((chunk, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # Tables of even powers x_i^(2j); shared prefix products keep the
        # pass over 210 monomials affordable.
        pows = [[np.ones(chunk)] for _ in range(4)]
        sq = [pts[:, i] ** 2 for i in range(4)]
        for i in range(4):
            for _ in range(6):
                pows[i].append(pows[i][-1] * sq[i])
        for b1 in range(7):
            p1 = pows[0][b1]
            for b2 in range(7 - b1):
                p12 = p1 * pows[1][b2] if b2 else p1
                for b3 in range(7 - b1 - b2):
                    p123 = p12 * pows[2][b3] if b3 else p12
                    for b4 in range(7 - b1 - b2 - b3):
                        vals = p123 * pows[3][b4] if b4 else p123
                        key = (b1, b2, b3, b4)
                        sums[key] += float(vals.sum())
                        sq_sums[key] += float((vals * vals).sum())
    volume = 2.0 * math.pi ** 2
    for b in tuples:
        mean = sums[b] / n_total
        var = max(sq_sums[b] / n_total - mean ** 2, 0.0)
        stderr = volume * math.sqrt(var / n_total)
        estimate = volume * mean
        closed_form = float(integrate_monomial(tuple(2 * bi for bi in b)))
        assert abs(estimate - closed_form) <= 4.0 * stderr + 1e-12, b


class TestIntegratePoly:
    def test_constant(self):
        assert integrate_poly(Poly4.const(1)) == exact(2, 1, 2)

    def test_sum_of_squares_is_volume(self):
        p = sum((Poly4.variable(i) ** 2 for i in range(2, 5)),
                Poly4.variable(1) ** 2)
        assert integrate_poly(p) == exact(2, 1, 2)

    def test_hopf_cross_square(self):
        x1, x2, x3, x4 = (Poly4.variable(i) for i in range(1, 5))
        p = x1 * x3 + x2 * x4
        assert integrate_poly(p * p) == exact(1, 6, 2)

    def test_linear(self):
        rng = random.Random(7)
        p = rand_poly(rng, 5)
        q = rand_poly(rng, 5)
        lhs = integrate_poly(p + q)
        assert lhs == integrate_poly(p) + integrate_poly(q)

    def test_product_symmetry_and_reduction_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rand_poly(rng, 3)
            q = rand_poly(rng, 3)
            assert integrate_poly(p * q) == integrate_poly(q * p)
            r = rand_poly(rng, 6)
            assert integrate_poly(canonicalize(r)) == integrate_poly(r)

    def test_float_coefficients_give_float(self):
        p = Poly4.monomial((2, 2, 0, 0), 1.0)
        val = integrate_poly(p)
        assert isinstance(val, float)
        assert val == pytest.approx(math.pi ** 2 / 12, rel=1e-15)


def integrate_per_monomial(p: Poly4) -> ExactScalar:
    """Reference: the exact integral as one ExactScalar per term."""
    out = ExactScalar()
    for e, c in p.terms.items():
        out = out + integrate_monomial(e).scale(c)
    return out


class TestExactIntegral:
    @pytest.mark.parametrize("seed", range(6))
    def test_moment_sum_matches_the_per_monomial_loop(self, seed):
        rng = random.Random(300 + seed)
        rational = rand_poly(rng, 8, 12)
        integer = Poly4({e: Rat(rng.randint(-9, 9)) for e in rational.terms})
        unreduced = rand_poly(rng, 4, 8) * Poly4.monomial((0, 0, 0, 4))
        for p in (rational, integer, unreduced, Poly4()):
            assert integrate_poly(p) == integrate_per_monomial(p)
            assert all(type(c) is type(Rat(1))
                       for c in integrate_poly(p).terms.values())
        assert integrate_poly(Poly4()) == ExactScalar.zero()


class TestOneKind:
    """Every operation keeps the kind of its operands; only to_float() and
    a float scale convert."""

    def operands(self):
        rng = random.Random(41)
        return rand_poly(rng, 3), rand_poly(rng, 3)

    def results(self, p, q, s):
        return (p + q, p - q, -p, p * q, p ** 3, p.scale(s), p * s,
                p.partial(1))

    def test_exact_stays_exact(self):
        p, q = self.operands()
        for r in self.results(p, q, Rat(3, 7)) + (p.scale(3),):
            assert r.terms
            assert all(type(c) is type(Rat(1)) for c in r.terms.values())

    def test_float_stays_float(self):
        p, q = (r.to_float() for r in self.operands())
        for r in self.results(p, q, 0.375) + (p.scale(3),):
            assert r.terms
            assert all(type(c) is float for c in r.terms.values())

    def test_float_scale_converts_every_coefficient(self):
        p, _ = self.operands()
        for s in (0.375, np.float64(0.375)):
            scaled = p.scale(s)
            assert all(type(c) is float for c in scaled.terms.values())
            assert scaled.terms == {e: float(c) * 0.375
                                    for e, c in p.terms.items()}


class TestCanonicalize:
    def test_sphere_relation_is_zero(self):
        p = sum((Poly4.variable(i) ** 2 for i in range(2, 5)),
                Poly4.variable(1) ** 2) - Poly4.const(1)
        assert canonicalize(p).is_zero()

    def test_single_rewrite(self):
        expected = Poly4.const(1) - sum(
            (Poly4.variable(i) ** 2 for i in (2, 3)), Poly4.variable(1) ** 2)
        got = canonicalize(Poly4.variable(4) ** 2)
        assert got.even_part == expected
        assert got.odd_part.is_zero()

    def test_odd_example_matches_pointwise(self):
        x1, x4 = Poly4.variable(1), Poly4.variable(4)
        p = x1 + x4 * x4 * x1
        s = canonicalize(p)
        x2, x3 = Poly4.variable(2), Poly4.variable(3)
        expected = 2 * x1 - x1 ** 3 - x1 * x2 ** 2 - x1 * x3 ** 2
        assert s.even_part.is_zero()
        assert s.odd_part == expected
        pts = sphere_points(3, 20)
        np.testing.assert_allclose(s.evaluate(pts), p.evaluate(pts), atol=1e-12)

    def test_idempotent_and_homomorphism(self):
        rng = random.Random(13)
        for _ in range(50):
            p = rand_poly(rng, 5)
            q = rand_poly(rng, 5)
            sp, sq = canonicalize(p), canonicalize(q)
            assert canonicalize(sp.representative()) == sp
            assert canonicalize(p + q) == sp + sq
            assert canonicalize(p * q) == sp * sq

    def test_normal_form_decides_equality_on_sphere(self):
        rng = random.Random(17)
        for _ in range(20):
            p = rand_poly(rng, 4)
            relation = sum((Poly4.variable(i) ** 2 for i in range(2, 5)),
                           Poly4.variable(1) ** 2) - Poly4.const(1)
            masked = p + rand_poly(rng, 2) * relation
            assert canonicalize(masked) == canonicalize(p)


class TestDirectionalDerivative:
    def test_coordinate(self):
        assert directional_derivative(SphereScalar.coordinate(1), L1) == \
            -SphereScalar.coordinate(2)

    def test_constant(self):
        assert directional_derivative(SphereScalar.const(3), L1).is_zero()

    def test_rotation_invariant(self):
        p = canonicalize(Poly4.variable(1) ** 2 + Poly4.variable(2) ** 2)
        assert directional_derivative(p, L1).is_zero()

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            directional_derivative(SphereScalar.coordinate(1),
                                   ((1, 0, 0, 0),) * 4)

    def test_leibniz_rule(self):
        rng = random.Random(19)
        for _ in range(50):
            p = rand_sphere_scalar(rng, 3)
            q = rand_sphere_scalar(rng, 3)
            lhs = directional_derivative(p * q, L1)
            rhs = directional_derivative(p, L1) * q + \
                p * directional_derivative(q, L1)
            assert lhs == rhs

    def test_derivative_integrates_to_zero(self):
        # The flow is volume preserving, so derivatives have zero mean.
        rng = random.Random(23)
        for _ in range(20):
            p = rand_sphere_scalar(rng, 4)
            assert integrate_poly(directional_derivative(p, L1)).is_zero()


class TestExactScalar:
    def test_ring_operations(self):
        a = exact(3, 4, 2)
        b = exact(-1, 2, 0)
        assert a + b - a == b
        assert a * b == exact(-3, 8, 2)
        assert (a * b).scale(0).is_zero()

    def test_division(self):
        a = exact(3, 4, 2)
        assert a / exact(1, 2, 2) == exact(3, 2)
        assert (a / exact(3, 4, 2)).as_rational() == 1
        with pytest.raises(ZeroDivisionError):
            a / (exact(1) + exact(1, 1, 2))

    def test_float_value(self):
        val = exact(2, 1, 2) + exact(-1, 3, 0)
        assert float(val) == pytest.approx(2 * math.pi ** 2 - 1 / 3, rel=1e-15)

    def test_format_round_trip(self):
        val = exact(151, 90, -4) + exact(-7, 1, 0) + exact(2, 1, 2)
        s = format_exact(val)
        assert s == "2 * pi^2 + -7 + 151/90 * pi^-4"
        assert parse_exact(s) == val
        assert parse_exact("0").is_zero()


def naive_evaluate(p: Poly4, pts: np.ndarray) -> np.ndarray:
    """Per-monomial reference: sum of c * prod_i x_i ** e_i."""
    out = np.zeros(pts.shape[0])
    for e, c in p.terms.items():
        term = np.full(pts.shape[0], float(c))
        for i in range(4):
            if e[i]:
                term *= pts[:, i] ** e[i]
        out += term
    return out


class TestEvaluate:
    def test_matches_naive_formula_on_sphere(self):
        rng = random.Random(211)
        pts = sphere_points(17, 9000)  # more than one evaluation block
        polys = [rand_poly(rng, 8, 10) for _ in range(20)]
        polys += [
            Poly4.zero(),
            Poly4.const(Rat(7, 3)),
            Poly4.const(-2.5) + Poly4.monomial((0, 3, 0, 5), 0.25),
            Poly4({(0, 0, 0, 0): Fraction(1, 3), (2, 0, 1, 0): Fraction(-5, 7),
                   (0, 0, 0, 6): Fraction(9, 2)}),
        ]
        for p in polys:
            expected = naive_evaluate(p, pts)
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(p.evaluate(pts), expected, rtol=1e-13,
                                       atol=1e-14 * scale)
        assert not np.any(Poly4.zero().evaluate(pts))
        np.testing.assert_array_equal(Poly4.const(Rat(7, 3)).evaluate(pts),
                                      np.full(9000, 7 / 3))

    def test_polynomials_evaluated_together(self):
        # Each polynomial is contracted with its own rows in its own term
        # order, so its values do not depend on its companions.
        rng = random.Random(229)
        pts = sphere_points(19, 9000)  # more than one block of points
        polys = [rand_poly(rng, 7, 12) for _ in range(6)]
        polys += [
            Poly4.zero(),
            Poly4.const(Rat(-4, 9)),
            rand_poly(rng, 5, 8).to_float(),
            Poly4({(0, 0, 0, 0): Fraction(1, 3), (1, 4, 0, 2): Fraction(-5, 7),
                   (0, 0, 0, 6): Fraction(9, 2)}),
        ]
        together = evaluate_polys(polys, pts)
        assert together.shape == (len(polys), 9000)
        for p, values in zip(polys, together):
            expected = naive_evaluate(p, pts)
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(values, expected, rtol=1e-13,
                                       atol=1e-13 * scale)
            np.testing.assert_array_equal(values, p.evaluate(pts))
        np.testing.assert_array_equal(evaluate_polys(polys[::-1], pts),
                                      together[::-1])
        assert not np.any(together[6])
        np.testing.assert_array_equal(together[7], np.full(9000, -4 / 9))
        assert evaluate_polys([], pts).shape == (0, 9000)

    def test_monomial_rows(self):
        pts = sphere_points(23, 500)
        exponents = [(0, 0, 0, 0), (3, 0, 1, 0), (0, 5, 0, 1), (1, 1, 1, 1),
                     (0, 0, 0, 6)]
        rows = monomial_rows(exponents, power_tables(pts, exponents))
        assert rows.shape == (5, 500)
        for row, e in zip(rows, exponents):
            np.testing.assert_allclose(row, np.prod(pts ** np.array(e), axis=1),
                                       rtol=1e-14, atol=1e-16)
            # Larger tables of the other exponents leave the row unchanged.
            alone = monomial_rows([e], power_tables(pts, [e]))
            np.testing.assert_array_equal(row, alone[0])
