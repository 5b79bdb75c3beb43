"""Tests for the unimodular torus metric family and its curl spectrum."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import beltrami
from beltrami.annulus import (
    bound_constants,
    first_eigenfields,
    first_eigenvalue,
    metric_determinant,
    volume,
)
from beltrami.torus import (VOLUME, TorusField, TorusScalar,
                            curl_spectrum_sq, metric_diagonal)


class TestMetricFamily:
    def test_diagonal_entries(self):
        assert metric_diagonal(5) == (Fraction(1, 5), Fraction(1, 5),
                                      Fraction(25))

    def test_unimodular(self):
        for n in range(1, 11):
            assert metric_determinant(n) == 1

    def test_volume_is_parameter_free(self):
        for n in (1, 4, 9):
            assert volume(n) == pytest.approx(VOLUME, rel=1e-15)

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            metric_determinant(0)
        with pytest.raises(ValueError):
            first_eigenvalue(-2)

    def test_rejects_bool_parameter(self):
        for build in (metric_determinant, first_eigenvalue):
            with pytest.raises(ValueError, match="True"):
                build(True)


class TestFlatSpectrum:
    def test_bottom_mode_is_one_over_n(self):
        for n in range(1, 11):
            mu1 = first_eigenvalue(n)
            assert mu1 == Fraction(1, n) and type(mu1) is Fraction
            assert mu1 * mu1 == curl_spectrum_sq((0, 0, 1), n)

    def test_twisted_modes_stay_above_one(self):
        # Every mode with (k1, k2) != 0 has lambda^2 >= n >= 1, odd k3
        # included.
        for n in range(1, 11):
            for k in itertools.product(range(-3, 4), repeat=3):
                if k[:2] != (0, 0):
                    assert curl_spectrum_sq(k, n) >= n >= 1

    def test_chain_is_monotone_decreasing(self):
        values = [float(first_eigenvalue(n)) for n in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))


def mode(kind, k, c=1):
    return TorusScalar([((kind, k), c)])


def value_at_origin(p: TorusScalar) -> Fraction:
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
        field = TorusField([p, mode("sin", (0, 1, 2)), TorusScalar()])
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
