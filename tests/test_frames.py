"""Tests for the Hopf-frame vector calculus."""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest

from beltrami.atlas import atlas_export
from beltrami.exactpoly import (Poly4, Rat, SphereScalar, canonicalize,
                                integrate_poly)
from beltrami.frames import (
    FrameField,
    REFLECTION,
    curl,
    divergence,
    frame_derivative,
    grad,
    hopf_frame,
    isometry_pushforward,
    laplace_beltrami,
    laplace_beltrami_homogeneous,
)
from conftest import rand_sphere_scalar, sphere_points


def x(i: int) -> SphereScalar:
    return SphereScalar.coordinate(i)


def rand_field(rng: random.Random, deg: int, n_terms: int = 4) -> FrameField:
    return FrameField(*(rand_sphere_scalar(rng, deg, n_terms) for _ in range(3)))


class TestHopfFrame:
    def test_cartesian_forms(self):
        B1, B2, B3 = hopf_frame()
        pts = np.array([[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(B1.evaluate(pts), [[0, 1, 0, 0]], atol=0)
        np.testing.assert_allclose(B2.evaluate(pts), [[0, 0, 1, 0]], atol=0)
        np.testing.assert_allclose(B3.evaluate(pts), [[0, 0, 0, 1]], atol=0)

    def test_cartesian_components_symbolic(self):
        B1, _, _ = hopf_frame()
        comps = B1.cartesian_components()
        expected = [-x(2), x(1), -x(4), x(3)]
        assert list(comps) == expected

    def test_orthonormal(self):
        B1, B2, B3 = hopf_frame()
        assert B1.dot(B2).is_zero()
        assert B1.dot(B3).is_zero()
        assert B2.dot(B3).is_zero()
        for B in (B1, B2, B3):
            assert B.norm_sq() == SphereScalar.const(1)

    def test_tangency_at_sample_points(self):
        pts = sphere_points(5, 50)
        for B in hopf_frame():
            vals = B.evaluate(pts)
            assert np.max(np.abs(np.sum(vals * pts, axis=1))) < 1e-12
            assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12


class TestCurl:
    def test_frame_eigenfields(self):
        for B in hopf_frame():
            assert curl(B) == B.scale(2)

    def test_eigenvalue_three_field(self):
        u1 = FrameField(SphereScalar.zero(), x(1), -x(2))
        assert curl(u1) == u1.scale(3)

    def test_linearity(self):
        rng = random.Random(31)
        F, G = rand_field(rng, 3), rand_field(rng, 3)
        assert curl(F + G) == curl(F) + curl(G)

    def test_self_adjoint(self):
        rng = random.Random(37)
        for _ in range(100):
            F, G = rand_field(rng, 2, 3), rand_field(rng, 2, 3)
            assert curl(F).l2_inner(G) == F.l2_inner(curl(G))

    def test_divergence_of_curl_vanishes(self):
        rng = random.Random(41)
        for _ in range(50):
            F = rand_field(rng, 3)
            assert divergence(curl(F)).is_zero()

    def test_curl_curl_identity(self):
        # curl(curl F) - 2 curl F = grad(div F) + sum_j Delta(f_j) B_j.
        rng = random.Random(43)
        for _ in range(50):
            F = rand_field(rng, 3, 3)
            lhs = curl(curl(F)) - curl(F).scale(2)
            rhs = grad(divergence(F)) + FrameField(
                *(laplace_beltrami(c) for c in F.f))
            assert lhs == rhs

    def test_matches_frame_derivative_chain(self):
        # curl sums rationals as integer numerators and floats term by term;
        # both must give the terms, order and coefficient types of the
        # SphereScalar operations, floats bit for bit.
        def chain(F):
            f1, f2, f3 = F.f
            d = frame_derivative
            return FrameField(f1.scale(2) + (d(f3, 2) - d(f2, 3)),
                              f2.scale(2) + (d(f1, 3) - d(f3, 1)),
                              f3.scale(2) + (d(f2, 1) - d(f1, 2)))

        def terms(F):
            return [[(e, type(c), c.hex() if isinstance(c, float) else c)
                     for e, c in p.terms.items()]
                    for s in F.f for p in (s.even_part, s.odd_part)]

        rng = random.Random(47)
        fields = [rand_field(rng, 4, 6) for _ in range(40)]
        fields += [F.to_float() for F in fields]
        fields += [FrameField(*(SphereScalar(
            Poly4({e: 3 for e in s.even_part.terms}), Poly4())
            for s in F.f)) for F in fields[:10]]
        fields += [FrameField.zero()]
        for F in fields:
            assert terms(curl(F)) == terms(chain(F))


class TestDivergence:
    def test_killing_fields(self):
        for B in hopf_frame():
            assert divergence(B).is_zero()

    def test_scalar_multiple_of_frame_field(self):
        # div(x1 B1) = B1(x1), which is the symbolic derivative -x2.
        B1, _, _ = hopf_frame()
        oracle = frame_derivative(x(1), 1)
        assert oracle == -x(2)
        assert divergence(B1 * x(1)) == oracle

    def test_divergence_of_gradient_is_minus_laplacian(self):
        assert divergence(grad(x(1))) == x(1).scale(-3)
        rng = random.Random(47)
        for _ in range(20):
            s = rand_sphere_scalar(rng, 4)
            assert divergence(grad(s)) == -laplace_beltrami(s)


class TestGrad:
    def test_constant(self):
        assert grad(SphereScalar.const(1)).is_zero()

    def test_coordinate_norm(self):
        assert grad(x(1)).norm_sq() == SphereScalar.const(1) - x(1) * x(1)

    def test_orthogonal_to_eigenfields(self):
        B1, _, _ = hopf_frame()
        u1 = FrameField(SphereScalar.zero(), x(1), -x(2))
        rng = random.Random(53)
        for _ in range(20):
            s = rand_sphere_scalar(rng, 4)
            assert grad(s).l2_inner(B1).is_zero()
            assert grad(s).l2_inner(u1).is_zero()


class TestLaplaceBeltrami:
    def test_examples(self):
        assert laplace_beltrami(SphereScalar.const(5)).is_zero()
        assert laplace_beltrami(x(1)) == x(1).scale(3)

    def test_frame_inner_product_eigenfunction(self):
        # For an eigenfield w of eigenvalue 3 with a B1 component, B1 . w is
        # a Laplacian eigenfunction of eigenvalue mu (mu - 2) = 3.
        B1, _, _ = hopf_frame()
        w = FrameField(x(2).scale(-2), x(3), x(4))
        assert curl(w) == w.scale(3)
        s = B1.dot(w)
        assert not s.is_zero()
        assert laplace_beltrami(s) == s.scale(3)

    def test_matches_homogeneous_representative_oracle(self):
        rng = random.Random(59)
        for _ in range(30):
            s = rand_sphere_scalar(rng, 5)
            assert laplace_beltrami(s) == laplace_beltrami_homogeneous(s)

    def test_finite_difference_oracle(self):
        # Compare with an intrinsic finite-difference Laplacian: average of s
        # over a small geodesic sphere of radius h minus s(p), scaled by
        # -(2 (n-1) / h^2) with n - 1 = 3 tangent directions... implemented
        # as the second-order symmetric difference along three orthonormal
        # tangent directions through each sample point.
        s = x(1) * x(1) * x(2)
        lap = laplace_beltrami(s)
        pts = sphere_points(61, 10)
        h = 1e-4
        for p in pts:
            basis = [b.evaluate(p[None, :])[0] for b in hopf_frame()]
            acc = 0.0
            for v in basis:
                plus = np.cos(h) * p + np.sin(h) * v
                minus = np.cos(h) * p - np.sin(h) * v
                vals = s.evaluate(np.stack([plus, minus]))
                acc += (vals[0] + vals[1] - 2 * s.evaluate(p[None, :])[0]) / h**2
            assert -acc == pytest.approx(lap.evaluate(p[None, :])[0],
                                         rel=1e-5, abs=1e-5)


class TestIsometryPushforward:
    def test_identity(self):
        rng = random.Random(67)
        F = rand_field(rng, 3)
        eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        assert isometry_pushforward(F, eye) == F

    def test_reflection_sends_hopf_to_anti_hopf(self):
        B1, _, _ = hopf_frame()
        TB1 = isometry_pushforward(B1, REFLECTION)
        comps = TB1.cartesian_components()
        assert list(comps) == [-x(2), x(1), x(4), -x(3)]
        assert curl(TB1) == TB1.scale(-2)

    def test_preserves_l2_and_pointwise_norm(self):
        rng = random.Random(71)
        for _ in range(10):
            F = rand_field(rng, 2)
            TF = isometry_pushforward(F, REFLECTION)
            assert TF.l2_inner(TF) == F.l2_inner(F)
            pts = sphere_points(73, 20)
            refl = pts * np.array([1.0, 1.0, 1.0, -1.0])
            np.testing.assert_allclose(
                np.sum(TF.evaluate(refl) ** 2, axis=1),
                np.sum(F.evaluate(pts) ** 2, axis=1), rtol=1e-12, atol=1e-12)

    def test_rejects_non_orthogonal(self):
        rng = random.Random(79)
        F = rand_field(rng, 1)
        with pytest.raises(ValueError):
            isometry_pushforward(F, ((2, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_rejects_rational_rotation(self):
        # Exactly orthogonal, but not a signed permutation.
        F = rand_field(random.Random(80), 1)
        rotation = ((Rat(3, 5), Rat(-4, 5), 0, 0),
                    (Rat(4, 5), Rat(3, 5), 0, 0),
                    (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ValueError):
            isometry_pushforward(F, rotation)

    def test_signed_relabel_matches_linear_substitution(self):
        rng = random.Random(81)
        perms = list(itertools.permutations(range(4)))
        matrices = [REFLECTION]
        for _ in range(12):
            perm = rng.choice(perms)
            signs = [rng.choice((1, -1)) for _ in range(4)]
            matrices.append(tuple(tuple(signs[a] if b == perm[a] else 0
                                        for b in range(4)) for a in range(4)))
        assert any(m[3][3] == 0 for m in matrices)
        for O in matrices:
            F = rand_field(rng, 3)
            expected = _substituted_pushforward(F, O)
            got = isometry_pushforward(F, O)
            assert got == expected
            assert [list(p.terms.items()) for c in got.f
                    for p in (c.even_part, c.odd_part)] == \
                [list(p.terms.items()) for c in expected.f
                 for p in (c.even_part, c.odd_part)]

    @staticmethod
    def _matrices(rng):
        perms = list(itertools.permutations(range(4)))
        out = [REFLECTION]
        for _ in range(6):
            perm = rng.choice(perms)
            signs = [rng.choice((1, -1)) for _ in range(4)]
            out.append(tuple(tuple(signs[a] if b == perm[a] else 0
                                   for b in range(4)) for a in range(4)))
        return out

    def test_exact_fields_keep_backend_rationals(self):
        # Integer numerators over one denominator inside; every coefficient
        # that comes out is a backend rational, whatever the denominator.
        rng = random.Random(83)
        rational = type(Rat(1))
        integral = _field_over(rng, 1)
        fractional = rand_field(rng, 3).scale(Rat(1, 3))
        assert {c.denominator for a in integral.f
                for c in a.representative().terms.values()} == {1}
        assert max(c.denominator for a in fractional.f
                   for c in a.representative().terms.values()) > 1
        for O in self._matrices(rng):
            assert isometry_pushforward(FrameField.zero(), O).is_zero()
            for F in (integral, fractional, *hopf_frame()):
                got = isometry_pushforward(F, O)
                assert not got.is_zero()
                assert all(type(c) is rational for a in got.f
                           for p in (a.even_part, a.odd_part)
                           for c in p.terms.values())
                assert got.l2_inner(got) == F.l2_inner(F)

    def test_float_fields_match_exact_pushforward(self):
        # Quarters keep every float sum exact, so the float path must give
        # the exact terms; with thirds a cancelling sum leaves a rounding
        # residual (5.6e-17 where the exact coefficient is 0).
        rng = random.Random(89)
        for O in self._matrices(rng):
            F = _field_over(rng, 4)
            got = isometry_pushforward(F.to_float(), O)
            expected = isometry_pushforward(F, O).to_float()
            for a, b in zip(got.f, expected.f):
                for p, q in ((a.even_part, b.even_part),
                             (a.odd_part, b.odd_part)):
                    assert set(p.terms) == set(q.terms)
                    for e, c in p.terms.items():
                        assert type(c) is float
                        assert c == pytest.approx(q.terms[e], rel=1e-15)

    def test_atlas_export_is_pinned(self):
        # The reflected entries of the export, byte for byte, as produced by
        # the linear-substitution pushforward.
        digest = hashlib.sha256(atlas_export().encode()).hexdigest()
        assert digest == ("a1345bde1dbae61b15318bb3a29c7b39"
                          "aec3e9b9437e62c5a239cd772b940138")


def _field_over(rng: random.Random, den: int) -> FrameField:
    """A random degree-3 field with coefficients (small int) / den."""
    return FrameField(*(canonicalize(Poly4(
        {e: Rat(c.numerator, den) for e, c in rand_sphere_scalar(
            rng, 3).representative().terms.items()})) for _ in range(3)))


def _substituted_pushforward(F: FrameField, O) -> FrameField:
    """O F(O^T x) by linear substitution into the Cartesian components."""
    transpose = [[Rat(O[j][i]) for j in range(4)] for i in range(4)]
    comps = F.cartesian_components()
    rotated = []
    for a in range(4):
        ca = Poly4.zero()
        for b in range(4):
            if O[a][b] != 0:
                ca = ca + comps[b].representative().substitute_linear(
                    transpose).scale(Rat(O[a][b]))
        rotated.append(canonicalize(ca))
    return FrameField.from_cartesian(rotated)


class TestCompactnessOrthogonality:
    def test_hopf_products_across_laplace_eigenvalues(self):
        """For u = B1 and eigenfields w, w' with different curl eigenvalue
        magnitudes, the scalar products u . w and u . w' are Laplacian
        eigenfunctions with distinct eigenvalues, hence exactly orthogonal."""
        B1, B2, B3 = hopf_frame()
        u1 = FrameField(SphereScalar.zero(), x(1), -x(2))
        v1 = FrameField(SphereScalar.zero(),
                        x(1) * x(1) - x(2) * x(2), (x(1) * x(2)).scale(-2))
        assert curl(v1) == v1.scale(4)
        for w in (B2, B3):
            for wp in (u1, v1):
                assert integrate_poly(B1.dot(w) * B1.dot(wp)).is_zero()
        assert integrate_poly(B1.dot(u1) * B1.dot(v1)).is_zero()


class TestEvaluate:
    def test_matches_cartesian_components_on_sphere(self):
        rng = random.Random(223)
        pts = sphere_points(29, 40)
        fields = [rand_field(rng, 4, 6) for _ in range(8)]
        fields += [B.scale(3) for B in hopf_frame()] + [FrameField.zero()]
        for F in fields:
            expected = np.stack([c.evaluate(pts)
                                 for c in F.cartesian_components()], axis=1)
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(F.evaluate(pts), expected, rtol=1e-12,
                                       atol=1e-13 * scale)

    def test_coefficient_values(self):
        rng = random.Random(227)
        pts = sphere_points(31, 30)
        F = rand_field(rng, 3)
        values = F.coefficient_values(pts)
        assert values.shape == (30, 3)
        for i in range(3):
            np.testing.assert_array_equal(values[:, i], F.f[i].evaluate(pts))
        # Orthonormal frame: the Cartesian norm is the coefficient norm.
        np.testing.assert_allclose(np.sum(F.evaluate(pts) ** 2, axis=1),
                                   np.sum(values ** 2, axis=1), rtol=1e-12,
                                   atol=1e-12)
