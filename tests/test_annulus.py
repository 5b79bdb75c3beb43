"""Tests for the unimodular torus metric family and its curl spectrum."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import beltrami
from beltrami.annulus import (
    AnnulusField,
    AnnulusMode,
    TORUS_VOLUME,
    TrigPoly,
    bound_constants,
    first_eigenfields,
    first_eigenvalue,
    metric,
    metric_determinant,
    spectrum_candidates,
    volume,
)


class TestMetricFamily:
    def test_diagonal_entries(self):
        g = metric(5)
        assert g[0][0] == Fraction(1, 5)
        assert g[1][1] == Fraction(1, 5)
        assert g[2][2] == Fraction(25)
        assert g[0][1] == 0

    def test_unimodular(self):
        for n in range(1, 11):
            assert metric_determinant(n) == 1

    def test_volume_is_parameter_free(self):
        for n in (1, 4, 9):
            assert volume(n) == pytest.approx(TORUS_VOLUME, rel=1e-15)

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            metric(0)
        with pytest.raises(ValueError):
            metric(-2)

    def test_rejects_bool_parameter(self):
        for build in (metric, first_eigenvalue):
            with pytest.raises(ValueError, match="True"):
                build(True)


class TestAnnulusMode:
    def test_exact_eigenvalue_square(self):
        mode = AnnulusMode(n=3, m1=1, m2=2, m=1)
        assert mode.eigenvalue_sq() == \
            Fraction(3) * 5 + Fraction(1, 36)

    def test_pure_t_mode_needs_even_m(self):
        with pytest.raises(ValueError):
            AnnulusMode(n=2, m1=0, m2=0, m=1)
        AnnulusMode(n=2, m1=0, m2=0, m=2)
        AnnulusMode(n=2, m1=1, m2=0, m=1)

    def test_branch_sign(self):
        plus = AnnulusMode(n=2, m1=0, m2=0, m=2, branch=1)
        minus = AnnulusMode(n=2, m1=0, m2=0, m=2, branch=-1)
        assert plus.eigenvalue() == pytest.approx(0.5)
        assert minus.eigenvalue() == pytest.approx(-0.5)
        with pytest.raises(ValueError):
            AnnulusMode(n=2, m1=0, m2=0, m=2, branch=0)


class TestSpectrumCandidates:
    def test_bottom_mode_is_one_over_n(self):
        for n in range(1, 11):
            rows = spectrum_candidates(n, cutoff=3)
            bottom = rows[0]
            assert bottom["label"] == "confirmed"
            assert bottom["mode"].m1 == 0 and bottom["mode"].m2 == 0
            assert bottom["mode"].m == 2
            assert bottom["eigenvalue_sq"] == Fraction(1, n * n)
            assert first_eigenvalue(n) == Fraction(1, n)

    def test_twisted_candidates_stay_above_one(self):
        for n in range(1, 11):
            for row in spectrum_candidates(n, cutoff=3):
                if row["label"] == "candidate":
                    assert row["eigenvalue"] >= 1.0 - 1e-14

    def test_chain_is_monotone_decreasing(self):
        values = [float(first_eigenvalue(n)) for n in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_empty_cutoff(self):
        with pytest.raises(ValueError):
            spectrum_candidates(2, cutoff=0)

    @pytest.mark.parametrize("cutoff", [True, False, 2.5, 2.0, "3", -1])
    def test_rejects_non_int_cutoff(self, cutoff):
        # Unchecked, True would give the cutoff-1 list and 2.5 a TypeError
        # inside range.
        with pytest.raises(ValueError, match=re.escape(repr(cutoff))):
            spectrum_candidates(2, cutoff)


def mode(kind, k, c=1):
    return TrigPoly([((kind, k), c)])


def value_at_origin(p: TrigPoly) -> Fraction:
    """Exact value at phi1 = phi2 = t = 0: the sum of the cosine terms."""
    return sum(c for (kind, _), c in p.terms.items() if kind == "cos")


class TestTrigPoly:
    def test_canonical_wave_vectors(self):
        assert mode("cos", (0, -1, 2)) == mode("cos", (0, 1, -2))
        assert mode("sin", (-1, 0, 0)) == mode("sin", (1, 0, 0), -1)
        assert mode("sin", (0, 0, 0)) == 0
        assert mode("cos", (0, 0, 0), Fraction(3, 2)) == Fraction(3, 2)

    def test_cancellation_is_the_zero_polynomial(self):
        p = mode("cos", (1, 2, 0), Fraction(1, 3))
        assert p - mode("cos", (-1, -2, 0), Fraction(1, 3)) == 0
        assert p != 0 and (p + p).terms == {("cos", (1, 2, 0)):
                                             Fraction(2, 3)}

    def test_derivative(self):
        p = mode("cos", (2, 0, 3), Fraction(1, 2)) + mode("sin", (0, 1, 0))
        assert p.derivative(0) == mode("sin", (2, 0, 3), -1)
        assert p.derivative(1) == mode("cos", (0, 1, 0))
        assert p.derivative(2) == mode("sin", (2, 0, 3), Fraction(-3, 2))

    def test_t_mean_keeps_the_modes_constant_in_t(self):
        p = mode("cos", (0, 0, 1), 5) + mode("cos", (1, 0, 0), 2) + \
            mode("sin", (1, 1, 0), 7)
        field = AnnulusField([p, mode("sin", (0, 1, 2)), TrigPoly()])
        assert field.component_means() == (
            mode("cos", (1, 0, 0), 2) + mode("sin", (1, 1, 0), 7), 0, 0)


class TestFirstEigenfields:
    def test_eigen_system_holds_symbolically(self):
        for n in (1, 2, 5):
            v1, v2 = first_eigenfields(n)
            lam = Fraction(1, n)
            assert all(r == 0 for r in v1.eigen_residual(n, lam))
            assert all(r == 0 for r in v2.eigen_residual(n, lam))

    def test_initial_direction(self):
        v1, _ = first_eigenfields(4)
        at_zero = [value_at_origin(c) for c in v1.components]
        assert at_zero == [0, 1, 0]

    def test_components_are_mean_zero(self):
        v1, v2 = first_eigenfields(2)
        assert all(m == 0 for m in v1.component_means())
        assert all(m == 0 for m in v2.component_means())

    def test_wrong_eigenvalue_leaves_residual(self):
        v1, _ = first_eigenfields(2)
        residual = v1.eigen_residual(2, 1)
        assert any(r != 0 for r in residual)
        # curl v1 = v1 / 2, so the residual is (1/2 - 1) v1.
        assert residual[1] == mode("cos", (0, 0, 1), Fraction(-1, 2))


class TestBoundConstants:
    def test_values(self):
        constants = bound_constants()
        assert constants["round_sphere"] == pytest.approx(
            2 * (2 * math.pi ** 2) ** (1 / 3), rel=1e-15)
        assert constants["ball_volume_cbrt"] == pytest.approx(
            (4 * math.pi / 3) ** (1 / 3), rel=1e-15)
        assert constants["conformal_lower_bound"] == pytest.approx(
            (16 / math.pi) ** (1 / 3), rel=1e-15)

    def test_sphere_exceeds_ball_constant(self):
        constants = bound_constants()
        assert constants["round_sphere"] > \
            constants["ball_volume_cbrt"] + 1e-12


def test_import_needs_only_numpy_and_scipy():
    # Whatever `import beltrami` loads beyond numpy comes from the standard
    # library (or the optional gmpy2).
    code = "\n".join([
        "import sys",
        "import numpy",
        "before = set(sys.modules)",
        "import beltrami",
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}",
        "print(sorted(loaded - set(sys.stdlib_module_names)"
        " - {'beltrami', 'gmpy2'}))",
    ])
    source = os.path.dirname(os.path.dirname(beltrami.__file__))
    path = os.pathsep.join(filter(None, [source,
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.stdout.strip() == "[]"
