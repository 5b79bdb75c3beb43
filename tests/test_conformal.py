"""Tests for the conformal eigenvalue pencil."""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import pickle
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from beltrami import cli, conformal, exactpoly, pencil
from beltrami.conformal import (
    DEFAULT_AMPLITUDES,
    ConformalFactor,
    GalerkinPencil,
    ParityError,
    SCAN_LOWER_BOUND,
    assemble_pencil,
    mu1_normalized,
    optimality_scan,
    _basis_data,
)
from beltrami.exactpoly import (ExactScalar, Poly4, Rat, SphereScalar,
                                _monomial_moment_float, canonicalize,
                                integrate_poly)
from beltrami.frames import FrameField, coefficient_tensor, derivative_table
from beltrami.pencil import checked_diagonal, eigvalsh_diagonal
from beltrami.quadrature import default_grid, integrate_scalar
from beltrami.solver import SolverEigenspace, eigenspace_solve
from beltrami.torus import TorusScalar, torus_pencil


def x(i: int) -> Poly4:
    return Poly4.variable(i)


Q_EVEN = canonicalize(x(1) * x(1) - x(2) * x(2))
Q_ODD = canonicalize(x(3))


class TestConformalFactor:
    def test_rejects_sign_changing_factor(self):
        with pytest.raises(ValueError):
            ConformalFactor(Q_ODD, 1.5)

    def test_volume_round(self):
        cf = ConformalFactor(SphereScalar.zero(), 0.0)
        assert float(cf.volume()) == pytest.approx(2 * math.pi ** 2,
                                                   rel=1e-14)

    def test_volume_matches_quadrature(self):
        cf = ConformalFactor(Q_EVEN, 0.04)
        w = cf.sqrt_weight()
        assert float(cf.volume()) == pytest.approx(
            integrate_scalar(w * w * w), rel=1e-13)

    def test_rejects_non_scalar(self):
        with pytest.raises(TypeError):
            ConformalFactor(x(1), 0.01)

    def test_certified_factor_skips_the_grid(self, monkeypatch):
        # |t| sum |c_e| < 1 proves 1 + t q > 0 on the sphere; the grid must
        # not be consulted.
        def no_grid():
            raise AssertionError("the certified factor evaluated the grid")

        monkeypatch.setattr(conformal, "default_grid", no_grid)
        for q, t in ((Q_EVEN, 0.49), (Q_EVEN, -0.49), (Q_ODD, 0.99),
                     (Q_EVEN, Rat(1, 3)), (SphereScalar.zero(), 7.0)):
            ConformalFactor(q, t)
        optimality_scan([("x1^2-x2^2", Q_EVEN)], "rp3", dmax=1)

    def test_certified_factor_builds_no_square_root(self, monkeypatch):
        # Only sqrt_weight() and the grid fallback read 1 + t q, so a
        # certified factor must not form it, in either kind.
        def refuse(*args):
            raise AssertionError("the certified factor built 1 + t q")

        monkeypatch.setattr(SphereScalar, "__add__", refuse)
        monkeypatch.setattr(SphereScalar, "scale", refuse)
        for q in (Q_EVEN, Q_ODD, Q_EVEN.to_float()):
            for t in DEFAULT_AMPLITUDES:
                ConformalFactor(q, t)

    @pytest.mark.parametrize("t", [True, False, math.nan, math.inf,
                                   -math.inf, "0.1", 1j, None])
    def test_rejects_an_amplitude_that_is_not_a_finite_real(self, t):
        with pytest.raises(ValueError, match=f"got {t!r}"):
            ConformalFactor(Q_EVEN, t)

    @pytest.mark.parametrize("t", [1, -1, Fraction(1, 10), Rat(-3, 7)])
    def test_int_and_fraction_amplitudes_keep_an_exact_volume(self, t):
        q = Q_EVEN.scale(Rat(1, 4))
        cf = ConformalFactor(q, t)
        w = cf.sqrt_weight()
        assert isinstance(cf.volume(), ExactScalar)
        assert cf.volume() == integrate_poly(w * w * w)

    @pytest.mark.parametrize("t", [0.5, 0.9, -0.9])
    def test_grid_accepts_positive_uncertified_factor(self, monkeypatch, t):
        # 1 + t (x1^2 - x2^2) >= 1 - |t| > 0, but |t| (1 + 1) >= 1 fails the
        # certificate, so the grid decides.
        calls = []

        def counted_grid():
            calls.append(1)
            return default_grid()

        monkeypatch.setattr(conformal, "default_grid", counted_grid)
        cf = ConformalFactor(Q_EVEN, t)
        assert calls == [1]
        assert float(cf.volume()) > 0


class TestFactorVolume:
    def factors(self):
        rng = np.random.default_rng(17)
        qs = [Q_EVEN, Q_ODD, SphereScalar.zero()]
        qs += [random_rational_factor(rng, degrees)
               for degrees in ((0, 1, 2), (1, 2, 3), (2, 4), (3,))]
        return qs + [q.to_float() for q in qs[3:]]

    def test_float_amplitudes_match_the_integrated_cube(self):
        for q in self.factors():
            for t in DEFAULT_AMPLITUDES + (0.013,):
                cf = ConformalFactor(q, t)
                w = cf.sqrt_weight()
                assert float(cf.volume()) == pytest.approx(
                    float(integrate_poly(w * w * w)), rel=1e-14, abs=0)

    def test_rational_amplitudes_are_exact(self):
        for q in self.factors()[:-4]:
            for t in (0, Rat(1, 50), Rat(-3, 100)):
                cf = ConformalFactor(q, t)
                w = cf.sqrt_weight()
                assert cf.volume() == integrate_poly(w * w * w)

    def test_float_factor_moments_are_exact_at_the_binary_values(self):
        for q in self.factors()[-4:]:
            exact = Poly4({e: Rat(Fraction(c))
                           for e, c in q.representative().terms.items()})
            expected = (integrate_poly(exact), integrate_poly(exact * exact),
                        integrate_poly(exact * exact * exact),
                        sum(abs(c) for c in exact.terms.values()))
            assert conformal._factor_moments(
                conformal._factor_terms(q)) == expected

    @pytest.mark.parametrize("exact_q,t", [
        (False, 0), (False, Rat(1, 50)), (True, 0.02), (False, -0.02)])
    def test_float_factor_or_amplitude_gives_a_float_volume(self, exact_q, t):
        for q in self.factors()[3:7]:
            q = q if exact_q else q.to_float()
            cf = ConformalFactor(q, t)
            w = cf.sqrt_weight()
            assert isinstance(cf.volume(), float)
            assert all(isinstance(c, float)
                       for c in w.representative().terms.values())
            assert cf.volume() == pytest.approx(
                integrate_poly(w * w * w), rel=1e-14, abs=0)

    def test_moments_are_computed_once_per_factor(self):
        conformal._factor_moments.cache_clear()
        for t in DEFAULT_AMPLITUDES:
            ConformalFactor(Q_EVEN, t)
        info = conformal._factor_moments.cache_info()
        assert (info.misses, info.hits) == (1, len(DEFAULT_AMPLITUDES) - 1)


class TestPencilSpectrum:
    def test_round_sphere_spectrum(self):
        pencil = assemble_pencil("s3", ConformalFactor(SphereScalar.zero(),
                                                       0.0), 3)
        spectrum = pencil.eigenvalues()
        expected = {0: 54, 2: 3, -2: 3, 3: 8, -3: 8,
                    4: 15, -4: 15, 5: 24, -5: 24}
        assert spectrum.size == sum(expected.values())
        for value, count in expected.items():
            hits = np.sum(np.abs(spectrum - value) < 1e-12)
            assert hits == count, f"eigenvalue {value}"

    def test_round_projective_spectrum(self):
        pencil = assemble_pencil("rp3", ConformalFactor(SphereScalar.zero(),
                                                        0.0), 3)
        spectrum = pencil.eigenvalues()
        positive = spectrum[spectrum > 1e-8]
        assert np.sum(np.abs(positive - 2) < 1e-12) == 3
        assert np.sum(np.abs(positive - 4) < 1e-12) == 15
        for odd in (3, 5):
            assert not np.any(np.abs(positive - odd) < 0.5)

    def test_round_normalized_values(self):
        cf = ConformalFactor(SphereScalar.zero(), 0.0)
        assert mu1_normalized("s3", cf, 3) == pytest.approx(
            2 * (2 * math.pi ** 2) ** (1 / 3), abs=1e-10)
        assert mu1_normalized("rp3", cf, 3) == pytest.approx(
            2 * math.pi ** (2 / 3), abs=1e-10)

    def test_projective_rejects_odd_factor(self):
        with pytest.raises(ParityError):
            assemble_pencil("rp3", ConformalFactor(Q_ODD, 0.01), 2)

    def test_unknown_manifold(self):
        with pytest.raises(ValueError):
            assemble_pencil("t2", ConformalFactor(SphereScalar.zero(),
                                                  0.0), 2)

    def test_no_positive_eigenvalue_raises(self):
        pencil = GalerkinPencil(
            manifold="s3", dmax=0, a=-np.ones(3), b=np.eye(3),
            column_eigenvalues=(-1, -1, -1), gradient_count=0, volume=1.0)
        with pytest.raises(RuntimeError):
            pencil.mu1()

    def test_zero_count_mismatch_raises(self):
        pencil = GalerkinPencil(
            manifold="s3", dmax=0, a=np.array([0.0, 1.0]), b=np.eye(2),
            column_eigenvalues=(0, 1), gradient_count=2, volume=1.0)
        with pytest.raises(RuntimeError, match="gradient block"):
            pencil.mu1()

    @pytest.mark.parametrize("a,match", [
        (np.array([[1.0, 0.5], [0.5, 0.0]]), "not a vector"),
        (np.array([1.0, 2.0]), "gradient block"),
        (np.array([0.0, 0.0]), "eigenfield diagonal")])
    def test_round_pencil_checks_the_curl_matrix(self, monkeypatch, a,
                                                 match):
        # b = I takes no eigensolve, but a is checked all the same.
        def no_solve(*args):
            raise AssertionError("a round pencil called eigvalsh_diagonal")

        monkeypatch.setattr(conformal, "eigvalsh_diagonal", no_solve)
        pencil = GalerkinPencil(
            manifold="s3", dmax=0, a=a, b=np.eye(2),
            column_eigenvalues=(1, 0), gradient_count=1, volume=1.0)
        with pytest.raises(RuntimeError, match=match):
            pencil.eigenvalues()

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_round_pencil_is_marked_and_not_scanned(self, monkeypatch,
                                                    manifold):
        # Only a trivial factor's pencil is marked b = I; a marked pencil
        # reads no entry of b, so a NaN b still sorts a.
        def no_solve(*args):
            raise AssertionError("a round pencil called eigvalsh_diagonal")

        round_pencil = assemble_pencil(
            manifold, ConformalFactor(SphereScalar.zero(), 0.0), 4)
        assert round_pencil.identity_mass
        assert np.array_equal(round_pencil.b, np.eye(len(round_pencil.a)))
        assert not assemble_pencil(
            manifold, ConformalFactor(Q_EVEN, 0.01), 4).identity_mass
        monkeypatch.setattr(conformal, "eigvalsh_diagonal", no_solve)
        blind = dataclasses.replace(round_pencil,
                                    b=np.full_like(round_pencil.b, np.nan))
        assert np.array_equal(blind.eigenvalues(), np.sort(round_pencil.a))
        assert round_pencil.mu1() == 2.0
        keep = np.arange(len(round_pencil.a)) % 2 == 0
        assert round_pencil.principal_block(keep, 3).identity_mass


Q_X1X2 = canonicalize(x(1) * x(2))
SCHUR_CASES = [pytest.param(manifold, q, t, id=f"{manifold}-{label}-{t:+}")
               for manifold, factors in (
                   ("s3", (("x1*x2", Q_X1X2), ("x3", Q_ODD))),
                   ("rp3", (("x1*x2", Q_X1X2),)))
               for label, q in factors
               for t in (-0.05, 0.05)]


class TestSchurPencil:
    @pytest.mark.parametrize("manifold,q,t", SCHUR_CASES)
    def test_matches_whole_pencil_reduction(self, manifold, q, t):
        # Reference: Cholesky reduction of the whole pencil (A, B), where
        # the gradient zeros appear only up to rounding.
        pencil = assemble_pencil(manifold, ConformalFactor(q, t), 2)
        factor = np.linalg.cholesky(pencil.b)
        reduced = np.linalg.solve(factor, np.linalg.solve(
            factor, np.diag(pencil.a)).T)
        reference = np.linalg.eigvalsh(reduced)
        small = np.abs(reference) < 1e-8
        assert np.sum(small) == pencil.gradient_count
        spectrum = pencil.eigenvalues()
        nonzero = spectrum[spectrum != 0.0]
        np.testing.assert_allclose(nonzero, reference[~small], rtol=1e-9)

    @pytest.mark.parametrize("manifold,q,t", SCHUR_CASES)
    def test_gradient_zeros_are_exact(self, manifold, q, t):
        pencil = assemble_pencil(manifold, ConformalFactor(q, t), 2)
        spectrum = pencil.eigenvalues()
        assert np.sum(spectrum == 0.0) == pencil.gradient_count

    def test_gradient_coupling_in_curl_matrix_raises(self):
        pencil = assemble_pencil("s3", ConformalFactor(Q_X1X2, 0.05), 2)
        # A coupled curl matrix is not a diagonal, so the pencil refuses it.
        ne = pencil.a.shape[0] - pencil.gradient_count
        a = np.diag(pencil.a)
        a[0, ne] = a[ne, 0] = 1e-3
        coupled = dataclasses.replace(pencil, a=a)
        with pytest.raises(RuntimeError, match="not a vector"):
            coupled.eigenvalues()
        with pytest.raises(RuntimeError, match="not a vector"):
            coupled.mu1()


class TestTypedDmax:
    @pytest.mark.parametrize("entry", [assemble_pencil, mu1_normalized])
    def test_rejects_a_dmax_that_is_not_an_int(self, entry):
        # On a cold cache and after the bases of the equal ints 0 and 1 are
        # built: a cache that took True for 1 served the dmax 1 basis.
        cf = ConformalFactor(Q_X1X2, 0.01)
        _basis_data.cache_clear()
        for _ in range(2):
            for dmax in (True, False, 1.0, "1", None):
                with pytest.raises(ValueError, match=f"got {dmax!r}"):
                    entry("s3", cf, dmax)
            entry("s3", cf, 0)
            entry("s3", cf, 1)


class TestGradientBlock:
    @pytest.mark.parametrize("manifold,dmax,degrees", [
        ("s3", 2, (1, 2, 3)), ("s3", 3, (1, 2, 3, 4)),
        ("rp3", 2, (2,)), ("rp3", 3, (2, 4)),
    ])
    def test_one_gradient_per_nonconstant_monomial(self, manifold, dmax,
                                                   degrees):
        # There are (d + 1)^2 reduced monomials (x4 exponent at most one)
        # of degree d; RP^3 keeps the even degrees.
        data = _basis_data(manifold, dmax)
        assert data.gradient_count == sum((d + 1) ** 2 for d in degrees)


class TestAssemblyAgainstExactIntegrals:
    # The pencil's columns are whitening @ fields, so each entry is
    # W E W^T for the exact matrix E of integrals over the fields.
    @staticmethod
    def whitened(data, i, j, exact_entry):
        W = data.whitening
        return sum(W[i, k] * exact_entry(k, l) * W[j, l]
                   for k in np.flatnonzero(W[i]) for l in np.flatnonzero(W[j]))

    def test_mass_matrix_entries(self):
        # Spot-check the float-contracted weighted mass matrix against
        # fully exact polynomial integration on a small basis.
        t = 0.07
        data = _basis_data("s3", 1)
        pencil = assemble_pencil("s3", ConformalFactor(Q_EVEN, t), 1)
        weight = SphereScalar.const(1) + Q_EVEN.scale(t)

        @functools.cache
        def exact_entry(k, l):
            return float(integrate_poly(weight * data.fields[k].dot(
                data.fields[l])))

        rng = np.random.default_rng(5)
        n = len(data.fields)
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            exact = self.whitened(data, i, j, exact_entry)
            assert pencil.b[i, j] == pytest.approx(exact, abs=1e-12)

    def test_curl_matrix_entries(self):
        data = _basis_data("s3", 1)

        # The pencils carry the curl matrix as its diagonal data.mus, so
        # every exact whitened pairing off the diagonal must vanish.
        @functools.cache
        def exact_entry(k, l):
            return data.mus[k] * float(integrate_poly(
                data.fields[k].dot(data.fields[l])))

        n = len(data.fields)
        rng = np.random.default_rng(6)
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            exact = self.whitened(data, i, j, exact_entry)
            expected = data.mus[i] if i == j else 0.0
            assert expected == pytest.approx(exact, abs=1e-12)


class TestOrthonormalBasis:
    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    @pytest.mark.parametrize("dmax", [1, 2, 3, 4])
    def test_whitened_gram_is_identity(self, manifold, dmax):
        # Exactly I in rationals; the float contraction rounds at about
        # 6e-13 at dmax 4.
        data = _basis_data(manifold, dmax)
        gram = data._contract(data.P, data._table((0, 0, 0, 0)))
        np.testing.assert_allclose(gram, np.eye(len(data.mus)), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_round_spectrum_is_the_column_eigenvalues(self, manifold):
        pencil = assemble_pencil(
            manifold, ConformalFactor(SphereScalar.zero(), 0.0), 3)
        assert np.array_equal(pencil.eigenvalues(),
                              np.sort(pencil.column_eigenvalues))
        assert pencil.mu1() == 2.0


class TestMomentTables:
    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    @pytest.mark.parametrize("dmax", [1, 2, 3, 4])
    def test_matches_the_per_entry_moments(self, manifold, dmax):
        data = _basis_data(manifold, dmax)
        exps = data.exponents
        for shift in ((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0),
                      (2, 0, 0, 0)):
            reference = np.array([[_monomial_moment_float(tuple(
                a + b + s for a, b, s in zip(ei, ej, shift)))
                for ej in exps] for ei in exps])
            assert np.array_equal(data._table(shift), reference)

    @pytest.mark.parametrize("manifold,degrees", [("s3", (0, 1, 2)),
                                                  ("rp3", (0, 2))])
    def test_perturbation_sums_the_tables(self, manifold, degrees):
        # Summing the moments before the gather rounds as the tables do.
        data = _basis_data(manifold, 3)
        q = random_rational_factor(np.random.default_rng(19), degrees)
        table = sum(float(c) * data._table(e)
                    for e, c in sorted(q.representative().terms.items()))
        assert np.array_equal(data.perturbation(q),
                              data._contract(data.P, table))


def per_monomial_perturbation(data, q) -> np.ndarray:
    """Reference: integral q <e_i, e_j> summed one monomial of q at a time,
    with three sandwich products per monomial."""
    out = np.zeros((len(data.mus),) * 2)
    for e, c in sorted((e, float(c))
                       for e, c in q.representative().terms.items()):
        table = data._table(e)
        part = sum(data.P[leg] @ table @ data.P[leg].T for leg in range(3))
        out += c * 0.5 * (part + part.T)
    return out


def random_rational_factor(rng, degrees) -> SphereScalar:
    monomials = [(a, b, c, d - a - b - c) for d in degrees
                 for a in range(d + 1) for b in range(d + 1 - a)
                 for c in range(d + 1 - a - b)]
    poly = Poly4.zero()
    for i in rng.choice(len(monomials), size=min(6, len(monomials)),
                        replace=False):
        numerator = int(rng.integers(1, 10)) * int(rng.choice((-1, 1)))
        poly = poly + Poly4.monomial(monomials[i],
                                     Rat(numerator, int(rng.integers(1, 8))))
    return canonicalize(poly)


class TestPerturbationContraction:
    @pytest.mark.parametrize("manifold,degrees", [
        ("s3", (0, 1, 2)), ("s3", (1, 2, 3)), ("rp3", (0, 2))])
    @pytest.mark.parametrize("dmax", [1, 2, 3, 4])
    def test_matches_per_monomial_sum(self, manifold, degrees, dmax):
        # Errors are relative to the rounding scale of the contraction,
        # sum_e |c_e| sum_leg |P| |T_e| |P|^T, entry by entry.  Against the
        # largest entry alone, the two summation orders differ by up to
        # 1e-12 at dmax 4, where the moment tables cancel strongly.
        rng = np.random.default_rng([dmax, len(degrees), max(degrees)])
        data = _basis_data(manifold, dmax)
        for _ in range(2):
            q = random_rational_factor(rng, degrees)
            reference = per_monomial_perturbation(data, q)
            table = sum(abs(float(c)) * np.abs(data._table(e))
                        for e, c in q.representative().terms.items())
            scale = sum(np.abs(p) @ table @ np.abs(p).T for p in data.P)
            error = np.abs(data.perturbation(q) - reference)
            assert np.all(error <= 1e-13 * scale)

    def test_keeps_only_the_latest_factor(self):
        # A scan asks for one q at every amplitude; matrices of earlier
        # factors must not accumulate over distinct scans.
        dmax = 1
        qs = [canonicalize(x(1) * x(2) + x(3).scale(Rat(k + 1, 40))
                           + x(1) * x(1)) for k in range(21)]
        order = len(_basis_data("s3", dmax + 1).mus)
        tracemalloc.start()
        try:
            optimality_scan([("warm-up", qs[0])], "s3", dmax=dmax)
            before = tracemalloc.get_traced_memory()[0]
            for k, q in enumerate(qs[1:]):
                optimality_scan([(f"q{k}", q)], "s3", dmax=dmax)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 2 * order * order * 8


def reversed_terms(field: FrameField) -> FrameField:
    """The same field with the terms of every coefficient in reverse order."""
    return FrameField(*(SphereScalar(
        Poly4(dict(reversed(c.even_part.terms.items()))),
        Poly4(dict(reversed(c.odd_part.terms.items())))) for c in field.f))


class TestTermOrder:
    def test_floats_do_not_depend_on_term_order(self, monkeypatch):
        # The float tensor and every sum over it are fixed by the values of
        # the fields alone, not by the order of their terms.
        data = _basis_data("s3", 3)
        flipped = [reversed_terms(f) for f in data.fields]
        assert any(list(f.f[0].representative().terms)
                   != list(g.f[0].representative().terms)
                   for f, g in zip(data.fields, flipped))
        exponents, tensor = coefficient_tensor(data.fields)
        flipped_exponents, flipped_tensor = coefficient_tensor(flipped)
        assert exponents == sorted(exponents) == flipped_exponents
        assert flipped_tensor.tobytes() == tensor.tobytes()
        # A basis reads its tensor from the solver's integer rows and the
        # frame-derivative table; read both in reverse order.
        integer_rows = SolverEigenspace.integer_rows

        def reversed_rows(space):
            for pivot, entries in integer_rows(space):
                yield pivot, dict(reversed(entries.items()))

        assert any(len(entries) > 1 for space in
                   eigenspace_solve(3).eigenspaces.values()
                   for _, entries in integer_rows(space))
        monkeypatch.setattr(SolverEigenspace, "integer_rows", reversed_rows)
        monkeypatch.setattr(conformal, "derivative_table", lambda e, i:
                            tuple(reversed(derivative_table(e, i))))
        flipped_data = conformal._BasisData("s3", 3)
        assert flipped_data.exponents == data.exponents
        assert flipped_data.P.tobytes() == data.P.tobytes()
        rng = np.random.default_rng(18)
        for degrees in ((0, 1, 2), (1, 2, 3)):
            q = random_rational_factor(rng, degrees)
            assert (flipped_data.perturbation(q).tobytes()
                    == data.perturbation(q).tobytes())


class TestOptimalityScan:
    def test_round_metric_is_grid_minimum(self):
        rows = optimality_scan([("x1^2-x2^2", Q_EVEN), ("x3", Q_ODD)],
                               "s3", dmax=3)
        assert all(row["pass"] for row in rows)
        base = {row["q"]: row["mu1_normalized"] for row in rows
                if row["t"] == 0.0}
        for row in rows:
            assert row["mu1_normalized"] >= base[row["q"]] - 1e-6
            assert row["mu1_normalized"] >= SCAN_LOWER_BOUND
            assert row["refinement_delta"] < 1e-4

    def test_projective_scan(self):
        rows = optimality_scan([("x1^2-x2^2", Q_EVEN)], "rp3", dmax=3)
        assert all(row["pass"] for row in rows)
        at_zero = [r for r in rows if r["t"] == 0.0]
        assert at_zero[0]["mu1_normalized"] == pytest.approx(
            2 * math.pi ** (2 / 3), abs=1e-10)

    def test_rows_do_not_time_the_basis_build(self, monkeypatch):
        # A slowed first build of each trial basis must land before the
        # first row, not in its wall_time.
        delay = 0.25
        built = set()

        def slow_basis_data(manifold, dmax):
            if (manifold, dmax) not in built:
                built.add((manifold, dmax))
                time.sleep(delay)
            return _basis_data(manifold, dmax)

        monkeypatch.setattr(conformal, "_basis_data", slow_basis_data)
        rows = optimality_scan([("x1^2-x2^2", Q_EVEN)], "rp3", dmax=1)
        # The dmax 1 pencil is a principal block of the dmax 2 one.
        assert built == {("rp3", 2)}
        assert all(0 < row["wall_time"] < delay for row in rows)

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_round_row_takes_no_eigensolve(self, monkeypatch, manifold):
        calls = []

        def counted(*args):
            calls.append(args[1].shape[0])
            return eigvalsh_diagonal(*args)

        monkeypatch.setattr(conformal, "eigvalsh_diagonal", counted)
        optimality_scan([("x1^2-x2^2", Q_EVEN)], manifold, dmax=2)
        nonzero = sum(1 for t in DEFAULT_AMPLITUDES if t)
        orders = [len(_basis_data(manifold, d).mus) for d in (2, 3)]
        assert sorted(calls) == sorted(orders * nonzero)

    @pytest.mark.parametrize("manifold,q", [("s3", Q_X1X2), ("s3", Q_ODD),
                                            ("rp3", Q_EVEN)])
    def test_rows_are_their_pencils(self, manifold, q):
        rows = optimality_scan([("q", q)], manifold, dmax=2)
        round_value = 2.0 * (2 * math.pi ** 2 * (
            0.5 if manifold == "rp3" else 1.0)) ** (1.0 / 3.0)
        keep = _basis_data(manifold, 3).levels <= 2
        for row in rows:
            cf = ConformalFactor(q, row["t"])
            fine_pencil = assemble_pencil(manifold, cf, 3)
            fine = fine_pencil.mu1_normalized()
            coarse = fine_pencil.principal_block(keep, 2).mu1_normalized()
            assert row["mu1_normalized"] == fine
            assert row["refinement_delta"] == abs(fine - coarse)
            # The block and the standalone dmax 2 pencil are congruent, so
            # they agree to rounding.
            standalone = assemble_pencil(manifold, cf, 2).mu1_normalized()
            assert coarse == pytest.approx(standalone, rel=1e-14, abs=0)
            if row["t"] == 0.0:
                assert row["mu1_normalized"] == round_value
                assert row["mu1"] == 2.0 and row["refinement_delta"] == 0.0

    @pytest.mark.parametrize("manifold,hodge", [
        ("s3", 4 * (2 * math.pi ** 2) ** (2 / 3)),
        ("rp3", 4 * math.pi ** (4 / 3))])
    def test_round_rows_read_the_first_pair(self, manifold, hodge):
        rows = optimality_scan([("q", Q_EVEN)], manifold, dmax=2)
        row = next(r for r in rows if r["t"] == 0.0)
        assert row["mu1_negative"] == pytest.approx(-2, rel=0, abs=1e-10)
        assert row["hodge_normalized"] == pytest.approx(hodge, rel=0,
                                                        abs=1e-10)

    def test_achiral_factor_has_a_symmetric_first_pair(self):
        # Swapping x1 and x2 reverses the orientation and fixes x1 x2, so
        # it maps each curl eigenvalue mu to -mu.
        rows = optimality_scan([("x1*x2", Q_X1X2)], "s3",
                               amplitudes=(-0.05, 0.0, 0.05))
        for row in rows:
            assert row["mu1_negative"] == pytest.approx(-row["mu1"],
                                                        rel=1e-12, abs=0)

    def test_checks_factors_before_building_a_basis(self, monkeypatch):
        calls = []

        def counted(manifold, dmax):
            calls.append((manifold, dmax))
            return _basis_data(manifold, dmax)

        monkeypatch.setattr(conformal, "_basis_data", counted)
        with pytest.raises(ParityError, match="descend to RP"):
            optimality_scan([("even", Q_EVEN), ("odd", Q_ODD)], "rp3",
                            dmax=1)
        with pytest.raises(ParityError, match="descend to RP"):
            assemble_pencil("rp3", ConformalFactor(Q_ODD, 0.01), 1)
        with pytest.raises(TypeError, match="SphereScalar"):
            optimality_scan([("q", 1.0)], "s3", dmax=1)
        assert calls == []

    def test_takes_the_factors_in_one_pass(self):
        # The factors are checked before any row, so an iterator of them
        # must still give every row.
        rows = optimality_scan(iter([("even", Q_EVEN)]), "rp3", dmax=1)
        assert len(rows) == len(DEFAULT_AMPLITUDES)

    def test_requires_zero_amplitude(self):
        with pytest.raises(ValueError):
            optimality_scan([("q", Q_EVEN)], "s3", amplitudes=(0.01,))

    def test_rejects_large_amplitudes(self):
        with pytest.raises(ValueError):
            optimality_scan([("q", Q_EVEN)], "s3",
                            amplitudes=(0.0, 0.3))

    @pytest.mark.parametrize("dmax", [True, False, 1.0, "1", None])
    def test_rejects_a_dmax_that_is_not_an_int(self, dmax):
        with pytest.raises(ValueError, match="dmax must be an integer"):
            optimality_scan([("q", Q_EVEN)], "s3", dmax=dmax)

    @pytest.mark.parametrize("amplitudes,bad", [
        pytest.param((0.0, t), t, id=str(t))
        for t in (math.nan, math.inf, -math.inf)] + [
        # A bool is a finite int: True used to fail as beyond 0.05, False
        # as a duplicate of 0.0 or, leading, only inside ConformalFactor.
        pytest.param((0.0, True), True, id="True-beyond-0.05"),
        pytest.param((0.0, 0.01, False), False, id="False-duplicate"),
        pytest.param((False, 0.01), False, id="False-as-zero"),
        pytest.param((0.0, "0.01"), "0.01", id="str"),
        pytest.param((0.0, 1j), 1j, id="complex"),
    ])
    def test_rejects_non_finite_amplitudes(self, monkeypatch, amplitudes,
                                           bad):
        def refuse(*args):
            raise AssertionError("the scan built a basis")

        monkeypatch.setattr(conformal, "_basis_data", refuse)
        with pytest.raises(ValueError, match="finite") as error:
            optimality_scan([("q", Q_EVEN)], "s3", amplitudes=amplitudes,
                            dmax=1)
        assert str(error.value).endswith(f"got {bad!r}")

    def test_accepts_int_and_fraction_amplitudes(self):
        exact = optimality_scan([("q", Q_EVEN)], "s3",
                                amplitudes=(0, Fraction(1, 100)), dmax=1)
        rows = optimality_scan([("q", Q_EVEN)], "s3", amplitudes=(0.0, 0.01),
                               dmax=1)
        assert [r["mu1_normalized"] for r in exact] == pytest.approx(
            [r["mu1_normalized"] for r in rows], rel=1e-14)

    @pytest.mark.parametrize("amplitudes", [
        (0.0, 0.01, 0.01), (-0.0, 0.0, 0.02), (0, 0.0, 0.02)])
    def test_rejects_duplicate_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="distinct"):
            optimality_scan([("q", Q_EVEN)], "s3", amplitudes=amplitudes,
                            dmax=1)


class TestScanCriteria:
    """Each input makes one pass criterion of optimality_scan decide its
    rows, so loosening that criterion lets a row through that must fail."""

    def scan(self):
        rows = optimality_scan([("x1*x2", Q_X1X2)], "rp3",
                               amplitudes=(-0.02, 0.0, 0.02), dmax=2)
        return [row["pass"] for row in rows]

    def test_refinement_that_moves_fails(self, monkeypatch):
        # The coarse (dmax 2) value reads 1e-3 high; the refinement bound
        # is 1e-4.
        real = GalerkinPencil.mu1_normalized
        monkeypatch.setattr(GalerkinPencil, "mu1_normalized", lambda self:
                            real(self) + (1e-3 if self.dmax == 2 else 0.0))
        assert self.scan() == [False, False, False]

    def test_row_below_its_round_value_fails(self, monkeypatch):
        # mu1 falls by 1e-4 on the deformed pencils (b != I, the only ones
        # that take an eigensolve), so their rows sit about 1.6e-4 below
        # the t = 0 row; the margin is 1e-6.
        def lowered(a, b, gradient_count):
            values = eigvalsh_diagonal(a, b, gradient_count)
            values[values > 0] -= 1e-4
            return values

        monkeypatch.setattr(conformal, "eigvalsh_diagonal", lowered)
        assert self.scan() == [False, True, False]

    def test_row_below_the_lower_bound_fails(self, monkeypatch):
        # Every row lies within 1e-4 of 2 pi^(2/3); the margin is 1e-9.
        monkeypatch.setattr(conformal, "SCAN_LOWER_BOUND",
                            2.0 * math.pi ** (2.0 / 3.0) + 1e-3)
        assert self.scan() == [False, False, False]


class TestPencilFamily:
    """A scan pays, per amplitude, b = I + t P on both column sets and two
    eigensolves, each with an O(n) check of its curl diagonal; the rest is
    paid once per factor or once per basis."""

    def test_contracts_once_per_factor(self, monkeypatch):
        _basis_data("s3", 3)
        calls = []
        contract = conformal._BasisData._contract

        def counted(self, P, table):
            calls.append(P.shape)
            return contract(self, P, table)

        monkeypatch.setattr(conformal._BasisData, "_contract", counted)
        rng = np.random.default_rng(31)
        qs = [(f"q{k}", random_rational_factor(rng, (1, 2)))
              for k in range(3)]
        rows = optimality_scan(qs, "s3", dmax=2)
        assert len(rows) == 3 * len(DEFAULT_AMPLITUDES)
        assert len(calls) == 3

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_checks_the_curl_diagonal_once_per_solve(self, monkeypatch,
                                                     manifold):
        # Each amplitude solves the fine and the coarse pencil, the round
        # one by sorting its diagonal and the others by eigvalsh_diagonal;
        # each solve checks its diagonal once, in O(n).
        calls = []

        def counted(mu, zeros):
            calls.append(mu.shape)
            return checked_diagonal(mu, zeros)

        monkeypatch.setattr(pencil, "checked_diagonal", counted)
        monkeypatch.setattr(conformal, "checked_diagonal", counted)
        orders = [(len(_basis_data(manifold, d).mus),) for d in (2, 3)]
        for amplitudes in ((0.0, 0.01), DEFAULT_AMPLITUDES):
            calls.clear()
            optimality_scan([("q", Q_EVEN)], manifold, amplitudes, dmax=2)
            assert sorted(calls) == sorted(orders * len(amplitudes))

    def test_rows_take_no_principal_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a scan row copied a principal block")

        _basis_data("rp3", 3)
        monkeypatch.setattr(GalerkinPencil, "principal_block", refuse)
        rows = optimality_scan([("q", Q_EVEN)], "rp3", dmax=2)
        assert len(rows) == len(DEFAULT_AMPLITUDES)

    def test_pencils_carry_the_curl_diagonal(self):
        cf = ConformalFactor(Q_X1X2, 0.05)
        pencils = [assemble_pencil(m, cf, 2) for m in ("s3", "rp3")]
        pencils += [_basis_data(m, 3).pencil(cf, coarse=True)
                    for m in ("s3", "rp3")]
        for p in pencils:
            assert p.a.ndim == 1 and p.a.shape[0] == p.b.shape[0]
        assert torus_pencil(TorusScalar.cosine((1, 0, 0)), 0.01).mus.ndim == 1

    @pytest.mark.parametrize("t", [0.0, 0.05])
    def test_matrix_curl_side_raises_on_both_paths(self, monkeypatch, t):
        # t = 0 sorts the diagonal (b = I, no eigensolve), t != 0 solves by
        # eigvalsh_diagonal; a pencil given the n x n matrix diag(a) in
        # place of its diagonal is refused on both.
        solves = []

        def counted(*args):
            solves.append(args[1].shape)
            return eigvalsh_diagonal(*args)

        monkeypatch.setattr(conformal, "eigvalsh_diagonal", counted)
        p = assemble_pencil("s3", ConformalFactor(Q_X1X2, t), 1)
        matrix = dataclasses.replace(p, a=np.diag(p.a))
        with pytest.raises(RuntimeError, match="not a vector"):
            matrix.eigenvalues()
        assert len(solves) == (1 if t else 0)
        assert p.mu1() > 0

    @pytest.mark.parametrize("b", [np.eye(2), np.diag([2.0, 1.0])])
    def test_mass_of_another_order_raises_on_both_paths(self, monkeypatch,
                                                        b):
        # b = I is solved by sorting a, any other b by eigvalsh_diagonal;
        # both refuse a b that is not len(a) x len(a) before any LAPACK call.
        def refuse(*args):
            raise AssertionError("a mismatched pencil reached LAPACK")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        p = GalerkinPencil("s3", 1, np.array([2.0, 3.0, 0.0]), b,
                           (2, 3, 0), 1, 2 * math.pi ** 2)
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3,\)"):
            p.eigenvalues()

    def test_shared_curl_matrix_is_read_only(self):
        fine = assemble_pencil("s3", ConformalFactor(Q_X1X2, 0.05), 2)
        coarse = _basis_data("s3", 2).pencil(ConformalFactor(Q_X1X2, 0.05),
                                             coarse=True)
        for p in (fine, coarse):
            with pytest.raises(ValueError):
                p.a[0] = 1.0


class TestPrincipalBlock:
    """The dmax pencil is the principal block of the dmax + 1 pencil on the
    columns of level <= dmax."""

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    @pytest.mark.parametrize("dmax", [0, 1, 2, 3])
    def test_kept_columns_are_the_coarse_basis(self, manifold, dmax):
        fine = _basis_data(manifold, dmax + 1)
        coarse = _basis_data(manifold, dmax)
        keep = fine.levels <= dmax
        assert not np.any(fine.whitening[np.ix_(keep, ~keep)])
        kept = np.compress(keep, fine.column_eigenvalues).tolist()
        # Eigenspaces in the same order, so the same multiset of eigenvalues.
        assert kept == list(coarse.column_eigenvalues)
        assert np.count_nonzero(keep[fine.eigen_count:]) == \
            coarse.gradient_count
        # The gradients stay last.
        assert kept[coarse.eigen_count:] == [0] * coarse.gradient_count

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    @pytest.mark.parametrize("dmax", [0, 1, 2, 3])
    def test_block_is_the_coarse_pencil(self, manifold, dmax):
        keep = _basis_data(manifold, dmax + 1).levels <= dmax
        for _, q in cli._scan_factors(manifold):
            for t in DEFAULT_AMPLITUDES:
                cf = ConformalFactor(q, t)
                block = assemble_pencil(manifold, cf, dmax + 1) \
                    .principal_block(keep, dmax)
                standalone = assemble_pencil(manifold, cf, dmax)
                assert block.dmax == dmax
                assert block.gradient_count == standalone.gradient_count
                assert block.column_eigenvalues == \
                    standalone.column_eigenvalues
                assert block.mu1_normalized() == pytest.approx(
                    standalone.mu1_normalized(), rel=1e-14, abs=0)

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_check_holds_at_the_largest_scan_dmax(self, manifold):
        # The whitening is lower triangular exactly, so the check cannot
        # trip on a rounding residue; at dmax 4 a pivoted inverse of the
        # gradient factor left ones of order 1e-15 between kept and dropped
        # columns.
        data = _basis_data(manifold, 5)
        assert not np.any(np.triu(data.whitening, 1))
        keep = data.levels <= 4
        assert not np.any(data.whitening[np.ix_(keep, ~keep)])
        assert np.count_nonzero(keep) == len(_basis_data(manifold, 4).mus)

    def test_coupling_to_a_dropped_column_raises(self, monkeypatch):
        data = copy.copy(_basis_data("s3", 2))
        keep = data.levels <= 1
        # A kept gradient column picks up the smallest positive multiple of
        # a dropped gradient: no tolerance forgives it.
        data.whitening = data.whitening.copy()
        data.whitening[np.flatnonzero(keep)[-1], -1] = np.nextafter(0, 1)
        monkeypatch.setattr(conformal, "_basis_data", lambda m, d: data)
        with pytest.raises(RuntimeError, match="dropped field"):
            optimality_scan([("q", Q_EVEN)], "s3", dmax=1)


class TestIntegerBasis:
    """A trial basis is read from the solver's integer rows and the integer
    frame-derivative table, never from rational fields."""

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_builds_without_fields_or_rationals(self, monkeypatch, manifold):
        def refuse(*args, **kwargs):
            raise AssertionError("a basis build made a rational object")

        eigenspace_solve(3)
        reference = _basis_data(manifold, 3)
        monkeypatch.setattr(SolverEigenspace, "fields", refuse)
        monkeypatch.setattr(FrameField, "__init__", refuse)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        monkeypatch.setattr(exactpoly, "_mpq", refuse)
        _basis_data.cache_clear()
        try:
            data = _basis_data(manifold, 3)
        finally:
            monkeypatch.undo()
            _basis_data.cache_clear()
        assert data.exponents == reference.exponents
        assert np.array_equal(data.P, reference.P)
        assert np.array_equal(data.whitening, reference.whitening)

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    @pytest.mark.parametrize("dmax", [0, 1, 2, 3, 4, 5])
    def test_tensor_is_the_tensor_of_the_fields(self, manifold, dmax):
        data = _basis_data(manifold, dmax)
        exponents, tensor = coefficient_tensor(data.fields)
        assert data.exponents == exponents
        assert np.array_equal(data.P, data.whitening @ tensor)
        assert len(data.fields) == len(data.mus)


def hex_rows(rows):
    """Scan rows without wall_time, every float as its hex string."""
    return [{k: v.hex() if isinstance(v, float) else v
             for k, v in row.items() if k != "wall_time"} for row in rows]


class TestScanState:
    """A scan leaves in the basis only the moment tables of its factors'
    monomials and the latest factor's matrix, which a later factor
    replaces."""

    @pytest.mark.parametrize("manifold", ["s3", "rp3"])
    def test_rows_do_not_depend_on_earlier_factors(self, manifold):
        rng = np.random.default_rng(59)
        degrees = (1, 2) if manifold == "s3" else (2,)
        first, second = (random_rational_factor(rng, degrees)
                         for _ in range(2))
        def state(data):
            return pickle.dumps({k: v for k, v in vars(data).items()
                                 if k not in ("_shift_moments",
                                              "_last_perturbation")})

        _basis_data.cache_clear()
        data = _basis_data(manifold, 3)
        before = state(data)
        tables = dict(data._shift_moments)
        both = optimality_scan([("a", first), ("b", second)], manifold,
                               dmax=2)
        assert state(data) == before
        assert all(data._shift_moments[shift] is table
                   for shift, table in tables.items())
        _basis_data.cache_clear()
        alone = optimality_scan([("b", second)], manifold, dmax=2)
        assert hex_rows(both[len(DEFAULT_AMPLITUDES):]) == hex_rows(alone)
