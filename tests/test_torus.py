"""Tests for Beltrami fields and the conformal pencil on the flat torus."""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from beltrami.torus import (
    TorusField,
    TorusScalar,
    VOLUME,
    abc_field,
    beltrami_basis,
    curl_spectrum_sq,
    first_variation,
    speed_is_constant,
    torus_pencil,
)

from conftest import cholesky_reduction


def cos_x_sin_y() -> TorusScalar:
    # cos(x) sin(y) = (sin(x + y) - sin(x - y)) / 2.
    return TorusScalar.sine((1, 1, 0), 0.5) + \
        TorusScalar.sine((1, -1, 0), -0.5)


class TestTorusScalar:
    def test_reality_constraint(self):
        # Real cos and sin coefficients make every series real: a complex
        # coefficient is refused, and the complex modes are conjugate
        # symmetric.
        with pytest.raises(ValueError, match=re.escape("(1+0.5j)")):
            TorusScalar([(("cos", (1, 0, 0)), 1 + 0.5j)])
        q = TorusScalar.cosine((1, -2, 0), 1.5) + TorusScalar.sine(
            (1, -2, 0), Fraction(1, 3)) + TorusScalar.const(2)
        modes = q.modes
        assert modes[(1, -2, 0)] == 0.75 - 1j / 6
        assert all(modes[(-k[0], -k[1], -k[2])] == c.conjugate()
                   for k, c in modes.items())

    @pytest.mark.parametrize("kind, k, c, named", [
        ("tan", (1, 0, 0), 1, "'tan'"), ("cos", (0.5, 0, 0), 1, "(0.5, 0, 0)"),
        ("sin", (1, 0), 1, "(1, 0)"), ("cos", (1, 0, 0), math.nan, "nan"),
        ("cos", (1, 0, 0), math.inf, "inf"), ("cos", (1, 0, 0), "1", "'1'"),
        ("cos", (1, 0, 0), True, "True")])
    def test_rejects_malformed_terms(self, kind, k, c, named):
        # Unchecked, a 'tan' term was differentiated as a sine and the
        # wavevector (0.5, 0, 0) was kept.
        with pytest.raises(ValueError, match=re.escape(named)):
            TorusScalar([((kind, k), c)])

    def test_product_to_sum(self):
        x, y = (1, 0, 0), (0, 1, 0)
        cos, sin = TorusScalar.cosine, TorusScalar.sine
        half = Fraction(1, 2)
        assert cos(x) * cos(x) == TorusScalar.const(half) + cos((2, 0, 0),
                                                                 half)
        assert sin(x) * sin(x) == TorusScalar.const(half) - cos((2, 0, 0),
                                                                 half)
        assert sin(x) * cos(y) == sin((1, 1, 0), half) + sin((1, -1, 0),
                                                               half)
        assert cos(x) * sin(y) == sin((1, 1, 0), half) - sin((1, -1, 0),
                                                               half)
        assert 3 * cos(x) == cos(x) * Fraction(3) == cos(x, 3)
        rng = np.random.default_rng(5)
        p = cos((1, 2, 0), 0.5) + sin((0, 1, -1), 2) + TorusScalar.const(1)
        q = sin((2, 0, 1), -1.5) + cos((1, 0, 0), 3)
        pts = rng.uniform(0, 2 * math.pi, (10, 3))
        np.testing.assert_allclose((p * q).evaluate(pts),
                                   p.evaluate(pts) * q.evaluate(pts),
                                   rtol=0, atol=1e-13)

    def test_mean_is_exact(self):
        q = TorusScalar.const(1e-13) + TorusScalar.sine((0, 1, 0))
        assert q.mean() == Fraction(1e-13) and q.mean() != 0
        assert (q - TorusScalar.const(1e-13)).mean() == 0

    def test_cosine_evaluates(self):
        q = TorusScalar.cosine((2, 0, 0), 1.5)
        pts = np.array([[0.0, 0.3, 0.1], [0.4, 0.0, 0.0]])
        np.testing.assert_allclose(q.evaluate(pts),
                                   1.5 * np.cos(2 * pts[:, 0]))

    def test_integral(self):
        q = TorusScalar.const(2.0) + TorusScalar.sine((0, 1, 0))
        assert q.integral() == pytest.approx(2.0 * VOLUME, rel=1e-14)

    @pytest.mark.parametrize("amplitude",
                             [True, 1j, "0.5", math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", [TorusScalar.cosine, TorusScalar.sine])
    def test_rejects_bad_amplitude(self, mode, amplitude):
        # Unchecked, a nan amplitude would reach LAPACK as a convergence
        # failure.
        with pytest.raises(ValueError, match=re.escape(
                f"amplitude must be a finite real number, got {amplitude!r}")):
            mode((1, 0, 0), amplitude)

    @pytest.mark.parametrize("mode", [TorusScalar.cosine, TorusScalar.sine])
    def test_accepts_int_and_float_amplitude(self, mode):
        expected = mode((1, 2, 0), 2.0).modes
        for amplitude in (2, np.float64(2.0), np.float32(2.0)):
            assert mode((1, 2, 0), amplitude).modes == expected

    def test_cosine_of_the_zero_wavevector_is_the_amplitude(self):
        # The two half-terms land on the same key, k = -k.
        q = TorusScalar.cosine((0, 0, 0), 2.0)
        assert q.modes == TorusScalar.const(2.0).modes
        np.testing.assert_array_equal(q.evaluate(np.zeros((2, 3))), 2.0)

    def test_sine_of_the_zero_wavevector_is_zero(self):
        assert TorusScalar.sine((0, 0, 0), 3.0).modes == {}

    @pytest.mark.parametrize("mode", [TorusScalar.cosine, TorusScalar.sine])
    def test_zero_wavevector_checks_the_amplitude(self, mode):
        with pytest.raises(ValueError, match="amplitude"):
            mode((0, 0, 0), math.nan)

    @pytest.mark.parametrize("k", [(1.5, 0, 0), (1.0, 0, 0), (True, 0, 0),
                                   (1, np.bool_(True), 0), ("1", 0, 0),
                                   (1, 0), (1, 0, 0, 0)])
    def test_rejects_a_non_integer_wavevector(self, k):
        for build in (TorusScalar.cosine, TorusScalar.sine,
                      lambda k: TorusScalar([(("cos", k), 1.0)])):
            with pytest.raises(ValueError, match=re.escape(repr(k))):
                build(k)

    def test_accepts_numpy_integer_wavevectors(self):
        q = TorusScalar.cosine(np.array([1, -2, 0]), 1.5)
        assert q.modes == TorusScalar.cosine((1, -2, 0), 1.5).modes
        assert all(type(a) is int for k in q.modes for a in k)


def axis_field(j: int, component: TorusScalar) -> TorusField:
    return TorusField(component if i == j else TorusScalar()
                      for i in range(3))


class TestTorusField:
    def test_rejects_compressible_mode(self):
        # Fields need not be solenoidal, but a compressible mode has an
        # exactly nonzero divergence, and since div curl = 0 it is no curl
        # eigenfield for any eigenvalue.
        u = TorusField([TorusScalar.cosine((1, 0, 0)),
                        TorusScalar.cosine((1, 0, 0)), TorusScalar()])
        assert u.divergence() == TorusScalar.sine((1, 0, 0), -1)
        assert u.divergence() != 0
        assert u.curl().divergence() == 0
        for eigenvalue in (0, 1, -1, Fraction(1, 2)):
            assert any(r != 0 for r in u.eigen_residual(1, eigenvalue))
        assert abc_field(1, 0.5, -0.3).divergence() == 0

    def test_rejects_a_divergence_of_1e_6(self):
        # abc(0, 1, 0) plus 1e-6 cos x along x: the curl is unchanged, so
        # the exact eigen residual is the 1e-6 compressible part itself.
        beltrami = abc_field(0, 1, 0)
        assert all(r == 0 for r in beltrami.eigen_residual(1, 1))
        x = TorusScalar.cosine((1, 0, 0), 1e-6)
        u = TorusField([x, *beltrami.components[1:]])
        assert u.divergence() == TorusScalar.sine((1, 0, 0), -1e-6) != 0
        assert u.curl() == beltrami
        residual = TorusScalar.cosine((1, 0, 0), -1e-6)
        assert u.eigen_residual(1, 1) == (residual, TorusScalar(),
                                          TorusScalar())

    def test_rejects_malformed_components(self):
        for components in ([TorusScalar()] * 2, [TorusScalar()] * 4,
                           [TorusScalar(), TorusScalar(), 1.0]):
            with pytest.raises(ValueError, match="three TorusScalar"):
                TorusField(components)

    def test_curl_per_mode(self):
        # curl (f e_j) = grad f x e_j: i k x (.) on exp(i k . x), so cos
        # turns into -sin along k x e_j, and sin into cos.
        for k, j in itertools.product([(0, 0, 1), (1, -2, 0), (2, 1, 3)],
                                      range(3)):
            turned = np.cross(k, np.eye(3, dtype=int)[j])
            for mode, back in ((TorusScalar.cosine, TorusScalar.sine),
                               (TorusScalar.sine, TorusScalar.cosine)):
                sign = -1 if mode is TorusScalar.cosine else 1
                expected = TorusField(back(k, sign * int(a)) for a in turned)
                assert axis_field(j, mode(k)).curl() == expected

    def test_evaluate_is_real(self):
        u = abc_field(1.0, 0.5, -0.3)
        pts = np.random.default_rng(2).uniform(0, 2 * math.pi, (20, 3))
        values = u.evaluate(pts)
        xs, ys, zs = pts[:, 0], pts[:, 1], pts[:, 2]
        expected = np.stack([
            1.0 * np.sin(zs) - 0.3 * np.cos(ys),
            0.5 * np.sin(xs) + 1.0 * np.cos(zs),
            -0.3 * np.sin(ys) + 0.5 * np.cos(xs)], axis=1)
        np.testing.assert_allclose(values, expected, atol=1e-13)


def box(radius: int):
    """Every nonzero wavevector with |k_i| <= radius."""
    return [k for k in itertools.product(range(-radius, radius + 1),
                                         repeat=3) if any(k)]


class TestCurlSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_the_square_of_the_curl(self, n):
        # On every divergence-free real wave a cos(k . x) or a sin(k . x),
        # a one of the integer vectors k x e_j, which span the plane normal
        # to k, curl(curl X) = lambda^2 X.
        for k in box(2):
            square = curl_spectrum_sq(k, n)
            normals = [np.cross(k, e) for e in np.eye(3, dtype=int)]
            assert np.linalg.matrix_rank(normals) == 2
            for a, wave in itertools.product(
                    normals, (TorusScalar.cosine, TorusScalar.sine)):
                field = TorusField(wave(k, int(c)) for c in a)
                assert field.divergence() == 0
                assert field.curl(n).curl(n) == TorusField(
                    square * c for c in field.components)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_the_two_read_wavevectors_are_the_minima(self, n):
        squares = {k: curl_spectrum_sq(k, n) for k in box(3)}
        assert min(squares.values()) == curl_spectrum_sq((0, 0, 1), n) \
            == Fraction(1, n * n)
        assert min(v for k, v in squares.items() if k[:2] != (0, 0)) \
            == curl_spectrum_sq((1, 0, 0), n) == n

    def test_refuses_zero_non_integer_and_bool_wavevectors(self):
        for k in ((0, 0, 0), [0, 0, 0], (1.0, 0, 0), (0, 0.5, 1),
                  (True, 0, 0), (0, 0, False), (1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError):
                curl_spectrum_sq(k)
        assert curl_spectrum_sq((np.int64(1), 0, np.int8(-2)), 2) == 3
        assert type(curl_spectrum_sq((1, 0, 0))) is Fraction

class TestAbcField:
    def test_is_curl_eigenfield(self):
        for a, b, c in [(1, 1, 1), (1.1, -0.4, 0.7),
                        (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 9))]:
            assert abc_field(a, b, c).curl() == abc_field(a, b, c)
            assert abc_field(a, b, c).curl() != abc_field(a, b, 2 * c)

    def test_single_amplitude_has_constant_speed(self):
        constant, witness = speed_is_constant(abc_field(1, 0, 0))
        assert constant and witness is None

    def test_three_amplitudes_do_not(self):
        constant, witness = speed_is_constant(abc_field(1, 1, 1))
        assert not constant
        assert witness is not None and witness != (0, 0, 0)

    def test_constant_speed_is_an_exact_decision(self):
        # |abc(1, b, 0)|^2 = 1 + b^2 + 2 b sin x cos z: not constant for any
        # b != 0, however small, and no tolerance can be passed.
        constant, witness = speed_is_constant(abc_field(1, 1e-13, 0))
        assert not constant and witness in ((1, 0, 1), (1, 0, -1))
        assert list(inspect.signature(speed_is_constant).parameters) == ["u"]


class TestFirstVariation:
    def test_energy_response_of_abc(self):
        u = abc_field(1, 1, 1)
        phidot = u.speed_sq() - TorusScalar.const(3.0)
        assert first_variation(u, phidot) == pytest.approx(
            3.0 * VOLUME, rel=1e-12)

    def test_orthogonal_deformation_vanishes(self):
        # sin x sin y sin z shares no Fourier mode with the squared speed
        # of the symmetric field.
        u = abc_field(1, 1, 1)
        phidot = TorusScalar.sine((1, 0, 0)) * TorusScalar.sine(
            (0, 1, 0)) * TorusScalar.sine((0, 0, 1))
        assert first_variation(u, phidot) == 0.0

    def test_requires_zero_mean(self):
        u = abc_field(1, 1, 1)
        for mean in (1.0, 1e-13):
            with pytest.raises(ValueError, match="zero mean"):
                first_variation(u, TorusScalar.const(mean))


class TestBeltramiBasis:
    def test_unit_shell(self):
        fields, mus = beltrami_basis(1)
        assert len(fields) == 12
        assert sorted(mus) == [-1.0] * 6 + [1.0] * 6
        for (k, amp), mu in zip(fields, mus):
            assert np.dot(k, amp) == 0
            np.testing.assert_allclose(1j * np.cross(k, amp), mu * amp,
                                       atol=1e-14)

    def test_rejects_empty_cutoff(self):
        with pytest.raises(ValueError):
            beltrami_basis(0)

    @pytest.mark.parametrize("kmax", [True, 2.0, 0])
    def test_rejects_non_int_cutoff(self, kmax):
        # True would hit the cached kmax-1 tables, 2.0 fail inside range.
        torus_pencil(TorusScalar.zero(), 0.0, 1)
        for build in (beltrami_basis,
                      lambda k: torus_pencil(TorusScalar.zero(), 0.0, k)):
            with pytest.raises(ValueError, match=re.escape(repr(kmax))):
                build(kmax)


class TestTorusPencil:
    @pytest.mark.parametrize("t", [True, 1j, "0.1", math.nan, math.inf])
    def test_rejects_bad_amplitude(self, t):
        with pytest.raises(ValueError, match=re.escape(repr(t))):
            torus_pencil(TorusScalar.cosine((2, 0, 0)), t, 1)

    def test_accepts_int_and_float_amplitude(self):
        q = TorusScalar.cosine((2, 0, 0))
        np.testing.assert_array_equal(torus_pencil(q, 1, 1).b,
                                      torus_pencil(q, 1.0, 1).b)

    @pytest.mark.parametrize("q", [None, 1.0, {(0, 0, 0): 1.0}])
    def test_rejects_a_factor_that_is_not_a_torus_scalar(self, q):
        with pytest.raises(TypeError, match="TorusScalar"):
            torus_pencil(q, 0.01, 1)

    def test_shared_curl_diagonal_is_read_only(self):
        # Every pencil of one kmax shares the basis eigenvalues, so a write
        # through one pencil would change every later one.
        p = torus_pencil(TorusScalar.cosine((1, 0, 0)), 0.01, 1)
        r = torus_pencil(TorusScalar.zero(), 0.0, 1)
        assert p.mus is r.mus and p.mus.ndim == 1
        assert not hasattr(p, "a")
        with pytest.raises(ValueError):
            p.mus[0] = 5.0
        assert np.array_equal(np.sort(r.eigenvalues()),
                              [-1.0] * 6 + [1.0] * 6)

    def test_flat_spectrum(self):
        pencil = torus_pencil(TorusScalar.zero(), 0.0, 1)
        spectrum = pencil.eigenvalues()
        assert np.sum(np.abs(spectrum - 1.0) < 1e-12) == 6
        assert np.sum(np.abs(spectrum + 1.0) < 1e-12) == 6

    def test_second_shell_spectrum(self):
        pencil = torus_pencil(TorusScalar.zero(), 0.0, 2)
        spectrum = pencil.eigenvalues()
        for value, count in ((1.0, 6), (math.sqrt(2.0), 12),
                             (math.sqrt(3.0), 8), (2.0, 6)):
            assert np.sum(np.abs(spectrum - value) < 1e-12) == count

    def test_single_axis_factor_is_first_order_flat(self):
        derivatives = torus_pencil(
            TorusScalar.cosine((2, 0, 0))).mu1_group_derivatives()
        np.testing.assert_allclose(derivatives, 0.0, atol=1e-13)

    def test_diagonal_factor_splits_the_group(self):
        derivatives = torus_pencil(cos_x_sin_y()).mu1_group_derivatives()
        assert derivatives.min() == pytest.approx(-0.25, abs=1e-12)
        assert derivatives.max() == pytest.approx(0.25, abs=1e-12)
        assert derivatives.min() < -0.01

    def test_derivatives_match_finite_differences(self):
        # Sorting hides the branch pairing under a sign flip of t, so the
        # derivatives are differenced one-sidedly against the exact group
        # value one at t = 0.
        q = cos_x_sin_y()
        h = 1e-6
        spectrum = torus_pencil(q, h, 1).eigenvalues()
        positive = np.sort(spectrum[spectrum > 0.5])[:6]
        fd = (positive - 1.0) / h
        predicted = np.sort(torus_pencil(q).mu1_group_derivatives())
        np.testing.assert_allclose(fd, predicted, atol=1e-5)


@functools.lru_cache(maxsize=None)
def pairwise_dots(kmax: int):
    """The Fourier modes of <e_i, e_j> per pair i >= j of beltrami_basis.

    A field (k, h) has the modes h at k and conj(h) at -k; the product of
    two fields pairs every mode of one with every mode of the other.
    """
    fields, _ = beltrami_basis(kmax)
    modes = [((k, h), (tuple(-a for a in k), h.conjugate()))
             for k, h in fields]
    dots = {}
    for i in range(len(fields)):
        for j in range(i + 1):
            product = {}
            for k1, a1 in modes[i]:
                for k2, a2 in modes[j]:
                    m = tuple(a + b for a, b in zip(k1, k2))
                    product[m] = product.get(m, 0j) + complex(np.dot(a1, a2))
            dots[i, j] = product
    return dots


def dot_pair_matrices(kmax: int, q: TorusScalar):
    """Reference gram and mass_q of beltrami_basis(kmax) from pairwise_dots."""
    n = len(beltrami_basis(kmax)[0])
    gram = np.zeros((n, n))
    mass_q = np.zeros((n, n))
    for (i, j), product in pairwise_dots(kmax).items():
        gram[i, j] = gram[j, i] = product.get((0, 0, 0), 0j).real * VOLUME
        weighted = 0j
        for k, c in q.modes.items():
            partner = product.get((-k[0], -k[1], -k[2]))
            if partner is not None:
                weighted += c * partner
        mass_q[i, j] = mass_q[j, i] = weighted.real * VOLUME
    return gram, mass_q


def random_torus_factor(rng, modes: int) -> TorusScalar:
    q = TorusScalar.const(float(rng.standard_normal()))
    for _ in range(modes - 1):
        k = (0, 0, 0)
        while k == (0, 0, 0):
            k = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        mode = TorusScalar.cosine if rng.random() < 0.5 else TorusScalar.sine
        q = q + mode(k, float(rng.standard_normal()))
    return q


class TestPencilAssembly:
    @pytest.mark.parametrize("kmax", [1, 2])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_matches_pairwise_dot_products(self, kmax, modes):
        # The constant mode is always present; wavevectors up to 3 per
        # component reach beyond the pair sums of the basis, which pair
        # with nothing.
        rng = np.random.default_rng([kmax, modes])
        for _ in range(3):
            q = random_torus_factor(rng, modes)
            pencil = torus_pencil(q, 0.03, kmax)
            gram, mass_q = dot_pair_matrices(kmax, q)
            n = len(pencil.fields)
            np.testing.assert_allclose(gram / (2 * VOLUME), np.eye(n),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(pencil.mass_q, mass_q, rtol=0,
                                       atol=1e-14)
            np.testing.assert_allclose(
                pencil.b, np.eye(n) + 0.03 * mass_q / (2 * VOLUME),
                rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_basis_is_orthogonal_with_equal_norms(self, kmax):
        # The premise of the pencil's normalized form: a = diag(mu) and
        # b(0) = I once every field is divided by its norm.
        gram, _ = dot_pair_matrices(kmax, TorusScalar.zero())
        np.testing.assert_allclose(gram / (2 * VOLUME), np.eye(len(gram)),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_matches_the_reduction_of_the_unnormalized_pencil(self, kmax):
        # Reference: the pencil on the unnormalized basis, A = diag(mu) G
        # and B = G + t M, reduced by a Cholesky factor of B.
        rng = np.random.default_rng([7, kmax])
        mus = np.array(beltrami_basis(kmax)[1])
        for _ in range(3):
            q = random_torus_factor(rng, 4)
            # |t| sum |c_k| bounds |t q| by 0.05.
            t = rng.choice((-0.05, 0.05)) / sum(
                abs(c) for c in q.modes.values())
            gram, mass_q = dot_pair_matrices(kmax, q)
            weighted = mus[:, None] * gram
            reference = cholesky_reduction(0.5 * (weighted + weighted.T),
                                           gram + t * mass_q)
            np.testing.assert_allclose(torus_pencil(q, t, kmax).eigenvalues(),
                                       reference, rtol=1e-13, atol=0)
