"""Tests for exact polynomial arithmetic and sphere integration."""

from __future__ import annotations

import ast
import math
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import beltrami
from beltrami.exactpoly import (
    ExactScalar,
    Poly4,
    Rat,
    SphereScalar,
    canonicalize,
    check_int,
    directional_derivative,
    evaluate_polys,
    format_exact,
    integrate_monomial,
    integrate_poly,
    is_finite_real,
    monomial_rows,
    parse_exact,
    power_tables,
    _even_moment,
    _moment_sum,
    _monomial_moment_float,
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

    def test_float_moment_is_the_rounded_exact_moment(self):
        # One int / int division times pi^2: the float of the ExactScalar
        # bit for bit, zeros included.
        for e in product(range(12), repeat=4):
            assert _monomial_moment_float(e) == float(integrate_monomial(e))

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
    block = 20_000  # divides chunk
    tuples = [b for b in product(range(7), repeat=4) if sum(b) <= 6]
    # x1^(2 b1) x2^(2 b2) x3^(2 b3) x4^(2 b4) is the product of a row of the
    # (b1, b2) table and one of the (b3, b4) table, so over a block of
    # points the sums of every such product, and of its square, are two
    # matrix products.
    pairs = [(i, j) for i in range(7) for j in range(7 - i)]
    first, second = np.array(pairs).T
    index = {pair: k for k, pair in enumerate(pairs)}
    sums = np.zeros((len(pairs), len(pairs)))
    sq_sums = np.zeros_like(sums)
    powers = np.ones((4, 7, block))
    gen = np.random.default_rng(20260826)
    for _ in range(n_total // chunk):
        pts = gen.standard_normal((chunk, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for lo in range(0, chunk, block):
            # Tables of even powers x_i^(2j), j = 0..6: (4, 7, block).
            sq = pts[lo:lo + block].T ** 2
            for j in range(1, 7):
                np.multiply(powers[:, j - 1], sq, out=powers[:, j])
            left = powers[0, first] * powers[1, second]
            right = powers[2, first] * powers[3, second]
            sums += left @ right.T
            sq_sums += (left * left) @ (right * right).T
    volume = 2.0 * math.pi ** 2
    for b in tuples:
        at = index[b[:2]], index[b[2:]]
        mean = sums[at] / n_total
        var = max(sq_sums[at] / n_total - mean ** 2, 0.0)
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


def closed_form_moment(e) -> Fraction:
    """The pi^2 coefficient of the integral of x^e over S^3 for all-even e,
    2 prod_i [(2 b_i)! / (4^b_i b_i!)] / (s + 1)! with a_i = 2 b_i."""
    b = [a // 2 for a in e]
    value = Fraction(2, math.factorial(sum(b) + 1))
    for bi in b:
        value *= Fraction(math.factorial(2 * bi), 4 ** bi * math.factorial(bi))
    return value


class TestMomentSum:
    def test_matches_the_closed_form(self):
        for e in product(range(0, 9, 2), repeat=4):
            assert _even_moment(e) == closed_form_moment(e)
            assert _moment_sum([(e, 1)]) == closed_form_moment(e)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_rational_sum(self, seed):
        # Reference: one rational moment per term, summed in rationals.
        rng = random.Random(700 + seed)
        for _ in range(20):
            terms = [(tuple(rng.randint(0, 8) for _ in range(4)),
                      rng.randint(-10 ** 6, 10 ** 6))
                     for _ in range(rng.randint(0, 30))]
            reference = sum((n * closed_form_moment(e) for e, n in terms
                             if not any(a & 1 for a in e)), Fraction(0))
            total = _moment_sum(terms)
            assert total == reference
            assert type(total) is type(Rat(1))


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

    def test_representative_is_the_sum_of_the_parts(self):
        rng = random.Random(19)
        scalars = [rand_sphere_scalar(rng, 5, 8) for _ in range(30)]
        scalars += [s.to_float() for s in scalars] + [SphereScalar.zero()]
        assert any(s.even_part.terms and s.odd_part.terms for s in scalars)
        for s in scalars:
            expected = list((s.even_part + s.odd_part).terms.items())
            got = list(s.representative().terms.items())
            assert got == expected
            assert [type(c) for _, c in got] == [type(c) for _, c in expected]

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

    def test_float_scalar_computes_in_one_kind(self, monkeypatch):
        real = Poly4.__mul__

        def one_kind(self, other):
            if isinstance(other, Poly4):
                kinds = {isinstance(c, float) for c in
                         (*self.terms.values(), *other.terms.values())}
                assert len(kinds) <= 1, "exact times float polynomial"
            return real(self, other)

        monkeypatch.setattr(Poly4, "__mul__", one_kind)
        p = rand_sphere_scalar(random.Random(29), 4).to_float()
        derivative = directional_derivative(p, L1)
        assert not derivative.is_zero()
        assert all(isinstance(c, float)
                   for c in derivative.representative().terms.values())


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


# ---------------------------------------------------------------------------
# The one rule for real-valued inputs


def _entry_points():
    """Each entry point that takes a real number, as a function of it."""
    from beltrami.conformal import ConformalFactor, optimality_scan
    from beltrami.functionals import (HopfPerturbation, f_perturbed,
                                      local_max_scan)
    from beltrami.torus import TorusScalar, torus_pencil

    q = canonicalize(Poly4.variable(1) * Poly4.variable(1))
    return {
        "torus-amplitude": lambda v: TorusScalar.cosine((1, 0, 0), v),
        "torus-coefficient": TorusScalar.const,
        "torus-pencil-t": lambda v: torus_pencil(TorusScalar.zero(), v),
        "conformal-factor-t": lambda v: ConformalFactor(q, v),
        "scan-amplitude": lambda v: optimality_scan(
            [("q", q)], "s3", amplitudes=(0.0, v), dmax=1),
        "perturbation-t": lambda v: f_perturbed(HopfPerturbation(), v),
        "perturbation-coefficient": lambda v: HopfPerturbation(
            beta=[v, 0.0, 0.0]),
        "local-max-radius": lambda v: local_max_scan(radius=v),
    }


class TestFiniteReal:
    def test_the_rule(self):
        # A huge rational is finite without overflowing a float conversion.
        for value in (2, Fraction(10 ** 400, 3), Rat(1, 3), 0.5,
                      np.float64(-0.25)):
            assert is_finite_real(value)
        for value in (math.nan, -math.inf, np.float64(math.inf), True,
                      "0.5", 1j, None):
            assert not is_finite_real(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.01"])
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    def test_every_entry_point_refuses(self, entry, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            _entry_points()[entry](value)


# ---------------------------------------------------------------------------
# The one rule for integer-valued inputs


def _int_entry_points():
    """Each entry point that takes an int, as a function of it."""
    from beltrami import annulus, conformal, functionals, quadrature, solver
    from beltrami.conformal import ConformalFactor
    from beltrami.frames import hopf_frame
    from beltrami.pencil import checked_diagonal
    from beltrami.torus import (beltrami_basis, curl_spectrum_sq,
                                metric_diagonal)

    b1 = hopf_frame()[0]
    q = canonicalize(Poly4.variable(1) * Poly4.variable(1))
    W = functionals.HopfPerturbation()
    return {
        "solver-dmax": solver.eigenspace_solve,
        "solver-limit": lambda v: solver.eigenspace_solve(0, v),
        "field-dmax-limit": lambda v: solver.field_dmax(b1, v),
        "project-dmax": lambda v: solver.project_vector(b1, 2, v),
        "pairing-dmax": lambda v: solver.helicity_pairing(b1, v),
        "dE-order": lambda v: functionals.dE_at_hopf(v, W),
        "dF-order": lambda v: functionals.dF_at_hopf(v, W),
        "graded-degree": lambda v: functionals.graded_coefficient(W, W, v),
        "local-max-samples": lambda v: functionals.local_max_scan(samples=v),
        "identity-draws": lambda v: functionals.identity_report(draws=v),
        "grid-radial": lambda v: quadrature.HopfGrid(v, 4),
        "grid-angular": lambda v: quadrature.HopfGrid(4, v),
        "grid-degree": quadrature.grid_for_degree,
        "torus-metric": metric_diagonal,
        "torus-kmax": beltrami_basis,
        "annulus-volume": annulus.volume,
        "annulus-first": annulus.first_eigenvalue,
        "annulus-fields": annulus.first_eigenfields,
        # A mode is a wavevector (m1, m2, m) and a parameter n.
        "mode-n": lambda v: curl_spectrum_sq((0, 0, 1), v),
        "mode-m1": lambda v: curl_spectrum_sq((v, 0, 1)),
        "mode-m2": lambda v: curl_spectrum_sq((0, v, 1)),
        "mode-m": lambda v: curl_spectrum_sq((1, 0, v)),
        "pencil-dmax": lambda v: conformal.assemble_pencil(
            "s3", ConformalFactor(q, 0.01), v),
        "scan-dmax": lambda v: conformal.optimality_scan(
            [("q", q)], "s3", dmax=v),
        "diagonal-zeros": lambda v: checked_diagonal(np.array([2.0, 0.0]),
                                                     v),
    }


class TestIntegerRule:
    def test_the_rule(self):
        assert check_int(0, "k", 0) == 0
        assert check_int(-7, "k") == -7
        assert check_int(10 ** 30, "k", 1) == 10 ** 30
        assert check_int(3, "k", 1, 3) == 3
        for value in (True, False, 1.0, np.int64(1), "1", None, Rat(1)):
            with pytest.raises(ValueError, match=re.escape(repr(value))):
                check_int(value, "k", 0)
        with pytest.raises(ValueError,
                           match=re.escape("k must be an int >= 1, got 0")):
            check_int(0, "k", 1)
        for value in (0, 4):
            with pytest.raises(ValueError, match=re.escape(
                    f"k must be an integer between 1 and 3, got {value}")):
                check_int(value, "k", 1, 3)

    @pytest.mark.parametrize("value", [True, False, 1.0, np.int64(2)])
    def test_monomial_exponents(self, value):
        # Unchecked, (True, True, 0, 0) read as odd exponents gave 0.
        for e in ((value, value, 0, 0), (2, 0, 0, value)):
            with pytest.raises(ValueError, match=re.escape(repr(value))):
                integrate_monomial(e)
        assert integrate_monomial((2, 0, 0, 0)) == exact(1, 2, 2)

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize("entry", sorted(_int_entry_points()))
    def test_every_entry_point_refuses(self, entry, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            _int_entry_points()[entry](value)


# ---------------------------------------------------------------------------
# Both exact-input rules live in exactpoly alone


def _rule_copies(tree: ast.AST):
    """Lines that read .denominator or write `not isinstance(x, int)` or
    `type(x) is not int`."""
    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "denominator":
            yield node.lineno
        elif (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
              and isinstance(node.operand, ast.Call)
              and isinstance(node.operand.func, ast.Name)
              and node.operand.func.id == "isinstance"
              and len(node.operand.args) == 2
              and is_int(node.operand.args[1])):
            yield node.lineno
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and isinstance(node.left.func, ast.Name)
              and node.left.func.id == "type"
              and any(isinstance(op, ast.IsNot) and is_int(right)
                      for op, right in zip(node.ops, node.comparators))):
            yield node.lineno


class TestOneRuleModule:
    def test_detector(self):
        source = ("a = x.denominator\nif not isinstance(n, int): pass\n"
                  "if type(n) is not int: pass\nif isinstance(n, int): pass\n"
                  "if type(n) is int: pass\n")
        assert list(_rule_copies(ast.parse(source))) == [1, 2, 3]

    def test_only_exactpoly_clears_denominators_or_checks_ints(self):
        package = Path(beltrami.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 10
        copies = {path.name: list(_rule_copies(ast.parse(path.read_text())))
                  for path in modules if path.name != "exactpoly.py"}
        assert {name: lines for name, lines in copies.items() if lines} == {}
