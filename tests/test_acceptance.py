"""End-to-end acceptance checks for the curl eigenfield toolkit.

Each test class covers one headline guarantee: exactness of the explicit
eigenfield atlas, solver multiplicities, the closed-form constants table,
the correction field, derivative fidelity against quadrature, the
sixth-order expansion constants, local maximality of the Rayleigh
quotient, the second-variation sign, the conformal optimality scans, the
torus, annulus, and bound-constant results, and the package's exports.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

import beltrami
from beltrami.annulus import (
    bound_constants,
    first_eigenvalue,
    metric_determinant,
    volume as annulus_volume,
)
from beltrami.atlas import eigen_decompose, eigenspace_solve, explicit_basis
from beltrami.conformal import (
    SCAN_LOWER_BOUND,
    optimality_scan,
)
from beltrami.exactpoly import Poly4, Rat, canonicalize, integrate_poly
from beltrami.frames import curl, hopf_frame
from beltrami.functionals import (
    DEGENERATE_LEADING,
    D6_Z2_COEFFICIENT,
    HopfPerturbation,
    REPORTED_D6_Z2_COEFFICIENT,
    REPORTED_DEGENERATE_LEADING,
    _b1_float,
    _basis,
    _combine,
    _unit_fields,
    correction_field,
    dE_at_hopf,
    dF_at_hopf,
    degenerate_coefficients,
    graded_coefficient,
    hopf_prefactor,
    identity_report,
    local_max_scan,
    second_variation_R,
)
from beltrami.quadrature import default_grid
from beltrami.torus import (
    VOLUME,
    TorusScalar,
    abc_field,
    curl_spectrum_sq,
    first_variation,
    speed_is_constant,
    torus_pencil,
)


def x(i: int) -> Poly4:
    return Poly4.variable(i)


class TestAtlasExactness:
    def test_eigen_equations_and_gram(self):
        start = time.perf_counter()
        for mu in (2, -2, 3, -3, 4, -4, 5, -5):
            entry = explicit_basis(mu)
            k = abs(mu) - 2
            assert entry.dimension == (k + 1) * (k + 3)
            for f in entry.fields:
                assert curl(f) == f.scale(mu)
            for i, f in enumerate(entry.fields):
                assert f.l2_inner(f) == entry.squared_norms[i]
                assert float(entry.squared_norms[i]) > 0
                for g in entry.fields[:i]:
                    assert f.l2_inner(g).is_zero()
        assert time.perf_counter() - start < 10.0


class TestSolverMultiplicities:
    def test_dimensions_and_projections(self):
        start = time.perf_counter()
        result = eigenspace_solve(3)
        for mu, dim in ((2, 3), (3, 8), (4, 15), (5, 24)):
            assert result.dimension(mu) == dim
            assert result.dimension(-mu) == dim
        b1 = hopf_frame()[0]
        pieces = {
            2: b1,
            3: explicit_basis(3).fields[0],
            -5: explicit_basis(-5).fields[2],
        }
        field = pieces[2] + pieces[3] + pieces[-5]
        decomposition = eigen_decompose(field)
        for mu, piece in pieces.items():
            assert decomposition.component(mu) == piece
        assert time.perf_counter() - start < 60.0


class TestConstantsTable:
    def test_closed_form_identities(self):
        rows = {row["identity"]: row for row in
                identity_report(seed=11, draws=20)}
        for identity in (
                "hopf-helicity", "z2-helicity", "z2-b1-square",
                "z2-quartic", "z2-mixed-quartic", "z2-b1-quartic",
                "negative-eigenfield-b1-square", "w3-b1-component-norm",
                "anti-hopf-w3-cross", "anti-hopf-z2-cubic",
                "w3-z2-cubic-b1", "w3-z2-cubic-b2", "w3-z2-cubic-b3",
                "anti-hopf-w3-quadratic-identity", "e4-b1-component-sum",
                "e4-component-sharp-constant"):
            row = rows[identity]
            assert row["pass"], identity
            scale = max(abs(row["expected"]), 1.0)
            assert row["abs_error"] <= 1e-10 * scale, identity


class TestCorrectionField:
    def test_norm_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a5, a8 = rng.standard_normal(2)
            # correction_field verifies divergence-freeness to 1e-10
            # internally and raises if it fails.
            _, norm_sq = correction_field(a5, a8)
            assert norm_sq * 90 * math.pi ** 4 / 151 == pytest.approx(
                (a5 * a5 + a8 * a8) ** 3, rel=1e-8)


def _central_difference(f, order, step):
    total = 0.0
    for i in range(order + 1):
        total += math.comb(order, i) * (-1.0) ** i * \
            f((order / 2.0 - i) * step)
    return total / step ** order


class TestDerivativeFidelity:
    def test_against_quadrature_differences(self):
        grid = default_grid()
        b1_values = hopf_frame()[0].to_float().evaluate(grid.points)
        rng = np.random.default_rng(17)
        for _ in range(10):
            W = HopfPerturbation(beta=rng.standard_normal(3),
                                 a=rng.standard_normal(8),
                                 b=rng.standard_normal(15))
            scale = 1.0 / math.sqrt(W.norm_sq())
            W = HopfPerturbation(beta=[scale * c for c in W.beta],
                                 a=[scale * c for c in W.a],
                                 b=[scale * c for c in W.b])
            w_values = W.field().evaluate(grid.points)
            h_w = W.helicity()

            def energy(t):
                speed_sq = np.sum((b1_values + t * w_values) ** 2, axis=1)
                return float(grid.weights @ speed_sq ** 0.75)

            def big_f(t):
                return energy(t) ** (4.0 / 3.0) / (math.pi ** 2
                                                   + t * t * h_w)

            for k in range(1, 7):
                step = (k * 1e-13) ** (1.0 / (k + 4))
                tolerance = 1e-5 if k <= 3 else 1e-3
                if k >= 2:
                    value = dE_at_hopf(k, W)
                    stencil = _central_difference(energy, k, step)
                    span = max(abs(value), abs(stencil), 1.0)
                    assert value == pytest.approx(
                        stencil, abs=tolerance * span)
                value = dF_at_hopf(k, W)
                stencil = _central_difference(big_f, k, step)
                span = max(abs(value), abs(stencil), 1.0)
                assert value == pytest.approx(stencil,
                                              abs=tolerance * span)


class TestSixthOrderStructure:
    def test_leading_coefficient_and_reference_flag(self):
        unit_z2 = HopfPerturbation(a=[0, 0, 0, 0, 1.0, 0, 0, 0])
        extracted = dF_at_hopf(6, unit_z2)
        derived = hopf_prefactor() * D6_Z2_COEFFICIENT / math.pi ** 4
        reported = hopf_prefactor() * REPORTED_D6_Z2_COEFFICIENT / \
            math.pi ** 4
        assert extracted == pytest.approx(derived, rel=1e-8)
        assert extracted != pytest.approx(reported, rel=1e-2)
        rows = {row["identity"]: row for row in
                identity_report(seed=0, draws=2)}
        reference = rows["d6f-z2-leading-reference"]
        assert not reference["pass"]
        assert "discrepancy" in reference["note"]

    def test_degenerate_leading_coefficient_and_reference_flag(self):
        unit_z2 = HopfPerturbation(a=[0, 0, 0, 0, 1.0, 0, 0, 0])
        b10, b12, b15 = degenerate_coefficients(1.0, 0.0)
        b = [0.0] * 15
        b[9], b[11], b[14] = b10, b12, b15
        locus = HopfPerturbation(b=b)
        coefficient = graded_coefficient(unit_z2, locus, 6)
        derived = hopf_prefactor() * DEGENERATE_LEADING / math.pi ** 4
        reported = hopf_prefactor() * REPORTED_DEGENERATE_LEADING / \
            math.pi ** 4
        assert coefficient == pytest.approx(derived, rel=1e-6)
        assert coefficient != pytest.approx(reported, rel=1e-1)
        rows = {row["identity"]: row for row in
                identity_report(seed=0, draws=2)}
        reference = rows["degenerate-sixth-order-leading-reference"]
        assert not reference["pass"]
        assert "discrepancy" in reference["note"]


class TestLocalMaximality:
    def test_scan_of_two_hundred_samples(self):
        start = time.perf_counter()
        result = local_max_scan(radius=0.05, samples=200, seed=23)
        assert result["pass"]
        assert result["violations"] == []
        assert time.perf_counter() - start < 300.0


class TestSecondVariationSign:
    # The admissible directions span the anti-Hopf fields and the two
    # eigenvalue +-4 spaces; the quadratic form attains its largest
    # ratio sqrt(3) - 2 over 2 (2 pi^2)^(4/3), so that is the sharp
    # negativity threshold for the draws.
    SHARP = (math.sqrt(3.0) - 2.0) / (2.0 * (2 * math.pi ** 2) ** (4 / 3))

    def test_hundred_random_directions_are_negative(self):
        b1 = hopf_frame()[0]
        vneg = _unit_fields(-4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            W = HopfPerturbation(
                beta=rng.standard_normal(3), b=rng.standard_normal(15),
                extra={-3: _combine(rng.standard_normal(len(vneg)), vneg)})
            ratio = second_variation_R(b1, W) / W.norm_sq()
            assert ratio < 0.0
            assert ratio <= self.SHARP + 1e-12

    def test_sharp_constant(self):
        anti = _basis("anti_hopf")
        v = _basis("v")
        vneg = _unit_fields(-4)
        span = list(anti) + list(v) + list(vneg)
        mus = [-2] * 3 + [4] * 15 + [-4] * 15
        b1 = _b1_float()
        n = len(span)
        form = np.zeros((n, n))
        for i in range(n):
            p_i = b1.dot(span[i])
            for j in range(i + 1):
                form[i, j] = form[j, i] = float(
                    integrate_poly(p_i * b1.dot(span[j])))
        form += np.diag([4.0 / mu - 2.0 for mu in mus])
        top = np.linalg.eigvalsh(form)[-1]
        assert top == pytest.approx(math.sqrt(3.0) - 2.0, rel=1e-10)


SCAN_FACTORS = [
    ("x1^2-x2^2", canonicalize(x(1) * x(1) - x(2) * x(2))),
    ("x1*x2", canonicalize(x(1) * x(2))),
    ("x3*x4", canonicalize(x(3) * x(4))),
    ("x1^2-1/4", canonicalize(x(1) * x(1) - Poly4.const(Rat(1, 4)))),
    ("x1*x3", canonicalize(x(1) * x(3))),
    ("x2*x4", canonicalize(x(2) * x(4))),
    ("x1", canonicalize(x(1))),
    ("x2", canonicalize(x(2))),
    ("x3", canonicalize(x(3))),
    ("x4", canonicalize(x(4))),
]

EVEN_SCAN_FACTORS = SCAN_FACTORS[:6]


class TestConformalOptimality:
    def test_sphere_and_projective_scans(self):
        start = time.perf_counter()
        sphere_rows = optimality_scan(SCAN_FACTORS, "s3", dmax=3)
        projective_rows = optimality_scan(EVEN_SCAN_FACTORS, "rp3", dmax=3)
        for manifold, rows, round_value in (
                ("s3", sphere_rows, 2 * (2 * math.pi ** 2) ** (1 / 3)),
                ("rp3", projective_rows, 2 * math.pi ** (2 / 3))):
            base = {row["q"]: row["mu1_normalized"] for row in rows
                    if row["t"] == 0.0}
            for row in rows:
                assert row["pass"], (manifold, row["q"], row["t"])
                assert row["refinement_delta"] < 1e-4
                assert row["mu1_normalized"] >= SCAN_LOWER_BOUND
                assert row["mu1_normalized"] >= base[row["q"]] - 1e-6
                if row["t"] == 0.0:
                    assert row["mu1_normalized"] == pytest.approx(
                        round_value, abs=1e-10)
        assert time.perf_counter() - start < 900.0


class TestTorus:
    def test_symmetric_field_speed_is_not_constant(self):
        constant, witness = speed_is_constant(abc_field(1, 1, 1))
        assert constant is False
        assert witness is not None

    def test_first_variation_value(self):
        u = abc_field(1, 1, 1)
        phidot = u.speed_sq() - TorusScalar.const(3.0)
        assert first_variation(u, phidot) == pytest.approx(
            3.0 * (2 * math.pi) ** 3, rel=1e-12)

    def test_pencil_finds_negative_derivative(self):
        q = TorusScalar.sine((1, 1, 0), 0.5) + \
            TorusScalar.sine((1, -1, 0), -0.5)
        derivatives = torus_pencil(q).mu1_group_derivatives()
        assert float(np.min(derivatives)) < -0.01


class TestAnnulus:
    def test_first_eigenvalues_exact(self):
        from fractions import Fraction
        for n in range(1, 11):
            assert first_eigenvalue(n) == Fraction(1, n)
            assert metric_determinant(n) == 1
            assert annulus_volume(n) == pytest.approx(VOLUME, rel=1e-15)

    def test_twisted_modes_at_least_one(self):
        for n in range(1, 11):
            for k1, k2, k3 in itertools.product(range(-3, 4), repeat=3):
                if (k1, k2) != (0, 0):
                    assert curl_spectrum_sq((k1, k2, k3), n) >= 1


class TestBoundConstants:
    def test_comparison(self):
        constants = bound_constants()
        sphere = 2.0 * (2.0 * math.pi ** 2) ** (1.0 / 3.0)
        ball = (4.0 * math.pi / 3.0) ** (1.0 / 3.0)
        assert constants["round_sphere"] == pytest.approx(sphere,
                                                          abs=1e-12)
        assert constants["ball_volume_cbrt"] == pytest.approx(ball,
                                                              abs=1e-12)
        assert constants["round_sphere"] > constants["ball_volume_cbrt"]


class TestPackageExports:
    def test_star_import_binds_exactly_the_sorted_exports(self):
        names = beltrami.__all__
        assert all(hasattr(beltrami, name) for name in names)
        assert len(set(names)) == len(names)
        assert names == sorted(names)
        namespace: dict = {}
        exec("from beltrami import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(names)
