"""Tests for Beltrami fields and the conformal pencil on the flat torus."""

from __future__ import annotations

import functools
import math
import re

import numpy as np
import pytest

from beltrami.torus import (
    TorusField,
    TorusScalar,
    VOLUME,
    abc_field,
    beltrami_basis,
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
        with pytest.raises(ValueError):
            TorusScalar({(1, 0, 0): 1.0 + 0j})

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
                      lambda k: TorusScalar({k: 1.0})):
            with pytest.raises(ValueError, match=re.escape(repr(k))):
                build(k)

    def test_rejects_conjugates_that_differ_by_1e_6(self):
        with pytest.raises(ValueError, match="reality constraint"):
            TorusScalar({(1, 0, 0): 1.0 + 0.5j,
                         (-1, 0, 0): 1.0 + 1e-6 - 0.5j})

    def test_accepts_numpy_integer_wavevectors(self):
        q = TorusScalar.cosine(np.array([1, -2, 0]), 1.5)
        assert q.modes == TorusScalar.cosine((1, -2, 0), 1.5).modes
        assert all(type(a) is int for k in q.modes for a in k)


class TestTorusField:
    def test_rejects_compressible_mode(self):
        with pytest.raises(ValueError):
            TorusField({(1, 0, 0): (1.0, 0, 0), (-1, 0, 0): (1.0, 0, 0)})

    def test_rejects_asymmetric_modes(self):
        with pytest.raises(ValueError):
            TorusField({(1, 0, 0): (0, 1.0, 0)})

    def test_rejects_conjugates_that_differ_by_1e_6(self):
        with pytest.raises(ValueError, match="reality constraint"):
            TorusField({(1, 0, 0): (0, 1.0, 0.5j),
                        (-1, 0, 0): (0, 1.0 + 1e-6, -0.5j)})

    def test_rejects_a_divergence_of_1e_6(self):
        amplitude = (1e-6, 1.0, 0)
        with pytest.raises(ValueError, match="not divergence free"):
            TorusField({(1, 0, 0): amplitude, (-1, 0, 0): amplitude})

    def test_curl_per_mode(self):
        u = TorusField({(0, 0, 1): (0.5, 0.5j, 0),
                        (0, 0, -1): (0.5, -0.5j, 0)})
        c = u.curl()
        np.testing.assert_allclose(c.modes[(0, 0, 1)],
                                   1j * np.cross([0, 0, 1], [0.5, 0.5j, 0]))

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


class TestAbcField:
    def test_is_curl_eigenfield(self):
        u = abc_field(1.1, -0.4, 0.7)
        c = u.curl()
        for k, amp in u.modes.items():
            np.testing.assert_allclose(c.modes[k], amp, atol=1e-14)

    def test_single_amplitude_has_constant_speed(self):
        constant, witness = speed_is_constant(abc_field(1, 0, 0))
        assert constant and witness is None

    def test_three_amplitudes_do_not(self):
        constant, witness = speed_is_constant(abc_field(1, 1, 1))
        assert not constant
        assert witness is not None and witness != (0, 0, 0)


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
        phidot = TorusScalar({
            (1, 1, 1): 0.125j, (-1, -1, -1): -0.125j,
            (1, 1, -1): -0.125j, (-1, -1, 1): 0.125j,
            (1, -1, 1): -0.125j, (-1, 1, -1): 0.125j,
            (-1, 1, 1): -0.125j, (1, -1, -1): 0.125j})
        assert first_variation(u, phidot) == pytest.approx(0.0, abs=1e-14)

    def test_requires_zero_mean(self):
        u = abc_field(1, 0, 0)
        with pytest.raises(ValueError):
            first_variation(u, TorusScalar.const(1.0))


class TestBeltramiBasis:
    def test_unit_shell(self):
        fields, mus = beltrami_basis(1)
        assert len(fields) == 12
        assert sorted(mus) == [-1.0] * 6 + [1.0] * 6
        for f, mu in zip(fields, mus):
            c = f.curl()
            for k, amp in f.modes.items():
                np.testing.assert_allclose(c.modes[k], mu * amp,
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
    """One TorusField.dot per pair i >= j of the fields of beltrami_basis."""
    fields, _ = beltrami_basis(kmax)
    return {(i, j): fields[i].dot(fields[j])
            for i in range(len(fields)) for j in range(i + 1)}


def dot_pair_matrices(kmax: int, q: TorusScalar):
    """Reference gram and mass_q of beltrami_basis(kmax) from pairwise_dots."""
    n = len(beltrami_basis(kmax)[0])
    gram = np.zeros((n, n))
    mass_q = np.zeros((n, n))
    for (i, j), product in pairwise_dots(kmax).items():
        gram[i, j] = gram[j, i] = product.integral()
        weighted = 0j
        for k, c in q.modes.items():
            partner = product.modes.get((-k[0], -k[1], -k[2]))
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
