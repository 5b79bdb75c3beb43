"""Tests for the conformal eigenvalue pencil and metric transports."""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from beltrami import conformal
from beltrami.atlas import explicit_basis
from beltrami.conformal import (
    DEFAULT_AMPLITUDES,
    ConformalFactor,
    GalerkinPencil,
    MinimizerMetric,
    ParityError,
    PushforwardField,
    SCAN_LOWER_BOUND,
    assemble_pencil,
    mu1_normalized,
    optimality_scan,
    _basis_data,
)
from beltrami.exactpoly import (ExactScalar, Poly4, Rat, SphereScalar,
                                _monomial_moment_float, canonicalize,
                                integrate_poly)
from beltrami.frames import FrameField, coefficient_tensor, hopf_frame
from beltrami.functionals import l32_energy
from beltrami.pencil import eigvalsh_diagonal
from beltrami.quadrature import (default_grid, grid_for_degree,
                                 integrate_scalar)


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
            manifold="s3", dmax=0, a=-np.eye(3), b=np.eye(3),
            column_eigenvalues=(-1, -1, -1), gradient_count=0, volume=1.0)
        with pytest.raises(RuntimeError):
            pencil.mu1()

    def test_zero_count_mismatch_raises(self):
        pencil = GalerkinPencil(
            manifold="s3", dmax=0, a=np.diag([0.0, 1.0]), b=np.eye(2),
            column_eigenvalues=(0, 1), gradient_count=2, volume=1.0)
        with pytest.raises(RuntimeError):
            pencil.mu1()

    @pytest.mark.parametrize("a,match", [
        (np.array([[1.0, 0.5], [0.5, 0.0]]), "off-diagonal"),
        (np.diag([1.0, 2.0]), "gradient block"),
        (np.diag([0.0, 0.0]), "eigenfield diagonal")])
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
        reduced = np.linalg.solve(factor, np.linalg.solve(factor,
                                                          pencil.a).T)
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
        ne = pencil.a.shape[0] - pencil.gradient_count
        a = pencil.a.copy()
        a[0, ne] = a[ne, 0] = 1e-3
        coupled = dataclasses.replace(pencil, a=a)
        with pytest.raises(RuntimeError):
            coupled.eigenvalues()
        with pytest.raises(RuntimeError):
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

        @functools.cache
        def exact_entry(k, l):
            return data.mus[k] * float(integrate_poly(
                data.fields[k].dot(data.fields[l])))

        n = len(data.fields)
        rng = np.random.default_rng(6)
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            exact = self.whitened(data, i, j, exact_entry)
            assert data.a[i, j] == pytest.approx(exact, abs=1e-12)


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
        monkeypatch.setattr(conformal, "coefficient_tensor", lambda fields:
                            coefficient_tensor([reversed_terms(f)
                                                for f in fields]))
        flipped_data = conformal._BasisData("s3", 3)
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
        assert built == {("rp3", 1), ("rp3", 2)}
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
        for row in rows:
            cf = ConformalFactor(q, row["t"])
            fine = assemble_pencil(manifold, cf, 3).mu1_normalized()
            coarse = assemble_pencil(manifold, cf, 2).mu1_normalized()
            assert row["mu1_normalized"] == fine
            assert row["refinement_delta"] == abs(fine - coarse)
            if row["t"] == 0.0:
                assert row["mu1_normalized"] == round_value
                assert row["mu1"] == 2.0 and row["refinement_delta"] == 0.0

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_amplitudes(self, t):
        with pytest.raises(ValueError, match="finite"):
            optimality_scan([("q", Q_EVEN)], "s3", amplitudes=(0.0, t),
                            dmax=1)

    @pytest.mark.parametrize("amplitudes", [
        (0.0, 0.01, 0.01), (-0.0, 0.0, 0.02), (0, 0.0, 0.02)])
    def test_rejects_duplicate_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="distinct"):
            optimality_scan([("q", Q_EVEN)], "s3", amplitudes=amplitudes,
                            dmax=1)


class TestPushforward:
    def setup_method(self):
        self.B1, _, _ = hopf_frame()
        self.u5 = explicit_basis(3).orthonormal_float_fields()[4]

    def test_identity_at_zero_amplitude(self):
        cf = ConformalFactor(Q_EVEN, 0.0)
        v = PushforwardField(self.B1, cf)
        pts = default_grid().points[:200]
        np.testing.assert_allclose(v.evaluate(pts), self.B1.evaluate(pts))

    def test_preserves_energy(self):
        cf = ConformalFactor(Q_EVEN, 0.03)
        u = self.B1.to_float() + self.u5.scale(0.1)
        v = PushforwardField(u, cf)
        assert v.l32_energy() == pytest.approx(l32_energy(u), rel=1e-8)

    def test_preserves_helicity(self):
        cf = ConformalFactor(Q_EVEN, 0.03)
        v = PushforwardField(self.B1, cf)
        assert v.helicity() == pytest.approx(math.pi ** 2, abs=1e-10)
        u = self.B1.to_float() + self.u5.scale(0.1)
        # The added eigenfield has curl eigenvalue 3 and unit norm, so the
        # helicity shifts by 0.01 / 3.
        v = PushforwardField(u, cf)
        assert v.helicity() == pytest.approx(math.pi ** 2 + 0.01 / 3,
                                             abs=1e-10)

    def test_helicity_memory_stays_at_grid_size(self):
        # The right-hand side is read from exact L^2 pairings, so nothing is
        # evaluated on a grid; the bound is the one the grid path met.
        grid = grid_for_degree(24)
        v = PushforwardField(self.B1, ConformalFactor(Q_EVEN, 0.03))
        _basis_data("s3", 3)
        tracemalloc.start()
        try:
            helicity = v.helicity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert helicity == pytest.approx(math.pi ** 2, abs=1e-10)
        assert peak < 16 * grid.points.nbytes


    def test_transport_cancels_the_volume_density(self):
        # On the grid, the weak right-hand side of a column pairs it with the
        # transported field against (1 + t q)^3; it equals the round L^2
        # pairing with the base field only for the transport power 3.
        grid = grid_for_degree(24)
        cf = ConformalFactor(Q_EVEN, 0.03)
        u = self.B1.to_float() + self.u5.scale(0.1)
        v = PushforwardField(u, cf)
        data = _basis_data("s3", 3)
        density = grid.weights * cf.sqrt_values(grid.points) ** 3
        mus = list(data.mus[:data.eigen_count])
        for j in (mus.index(2), mus.index(3), mus.index(3) + 4, 0):
            f = data.fields[j]
            on_grid = math.fsum(density * np.sum(
                f.evaluate(grid.points) * v.evaluate(grid.points), axis=1))
            assert on_grid == pytest.approx(float(f.l2_inner(u)), rel=1e-12,
                                            abs=1e-12)


class TestMinimizerMetric:
    def setup_method(self):
        self.B1, _, _ = hopf_frame()
        self.u5 = explicit_basis(3).orthonormal_float_fields()[4]

    def test_hopf_field_gives_round_weight(self):
        metric = MinimizerMetric(self.B1)
        assert metric.kappa == pytest.approx(1.0, abs=1e-13)
        pts = default_grid().points[:300]
        np.testing.assert_allclose(metric.weight_values(pts), 1.0,
                                   atol=1e-12)

    def test_volume_is_preserved(self):
        u = self.B1.to_float() + self.u5.scale(0.1)
        metric = MinimizerMetric(u)
        assert metric.volume() == pytest.approx(2 * math.pi ** 2,
                                                abs=1e-10)

    def test_transported_speed_is_constant(self):
        u = self.B1.to_float() + self.u5.scale(0.1)
        metric = MinimizerMetric(u)
        pts = default_grid().points[:500]
        np.testing.assert_allclose(metric.transported_speed(pts),
                                   1.0 / metric.kappa, atol=1e-10)

    def test_rejects_vanishing_field(self):
        vanishing = self.B1 * canonicalize(x(1))
        with pytest.raises(ValueError):
            MinimizerMetric(vanishing)
        with pytest.raises(ValueError):
            MinimizerMetric(self.B1.scale(0))
