"""Tests for the energy and Rayleigh functionals and their Hopf derivatives."""

from __future__ import annotations

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from beltrami import functionals
from beltrami.atlas import explicit_basis, helicity
from beltrami.exactpoly import (Poly4, Rat, SphereScalar, format_exact,
                                integrate_poly, integrate_products,
                                parse_exact)
from beltrami.frames import FrameField, curl, hopf_frame
from beltrami.functionals import (
    D6_Z2_COEFFICIENT,
    DEGENERATE_LEADING,
    REPORTED_D6_Z2_COEFFICIENT,
    REPORTED_SIXTH_ORDER_LEADING,
    HopfPerturbation,
    R_AT_HOPF,
    SpanError,
    ZeroHelicityError,
    _b1_float,
    _basis,
    _check_span,
    _hopf_line,
    _series_div,
    _series_power,
    big_F,
    correction_field,
    dE_at_hopf,
    dF_at_hopf,
    degenerate_coefficients,
    f_perturbed,
    fourth_order_terms,
    graded_coefficient,
    hopf_prefactor,
    identity_report,
    l32_energy,
    local_max_scan,
    perturbation_scaled,
    remainder_field,
    second_variation_R,
    sixth_order_bracket,
    taylor6_combination,
    _unit_fields,
)
from beltrami.quadrature import (HopfGrid, default_grid, grid_for_degree,
                                 shared_grid)
from beltrami.solver import eigenspace_solve

B1 = hopf_frame()[0]
PI = math.pi


def central_difference(f, order: int, h: float) -> float:
    """Second-order central approximation of the order-th derivative at 0."""
    total = 0.0
    for j in range(order + 1):
        total += (-1) ** j * math.comb(order, j) * f((order / 2 - j) * h)
    return total / h ** order


def richardson_difference(f, order: int, h: float) -> float:
    """Fourth-order accurate derivative from two central stencils."""
    return (4 * central_difference(f, order, h / 2)
            - central_difference(f, order, h)) / 3


def tuned_step(order: int, eps: float = 1e-13) -> float:
    """Step minimizing the model error h^4 + eps / h^order."""
    return (order * eps) ** (1.0 / (order + 4))


def rand_perturbation(rng: np.random.Generator) -> HopfPerturbation:
    return HopfPerturbation(beta=rng.standard_normal(3),
                            a=rng.standard_normal(8),
                            b=rng.standard_normal(15))


def unit_perturbation(rng: np.random.Generator) -> HopfPerturbation:
    W = rand_perturbation(rng)
    scale = 1.0 / math.sqrt(W.norm_sq())
    return HopfPerturbation(beta=[scale * x for x in W.beta],
                            a=[scale * x for x in W.a],
                            b=[scale * x for x in W.b])


class TestEnergy:
    def test_hopf_energy(self):
        assert l32_energy(B1.to_float()) == pytest.approx(2 * PI ** 2,
                                                          rel=1e-12)

    def test_unit_eigenfield_energy(self):
        # |u1| vanishes on a circle, so the integrand has an algebraic
        # singularity and the default grid is accurate to ~1e-6 relative.
        u1 = _basis("u")[0]
        assert l32_energy(u1) == pytest.approx(8 * math.sqrt(PI) / 7,
                                               rel=1e-5)

    def test_rejects_coefficient_values(self):
        # Only a FrameField or the (N,) squared speed on the grid is taken.
        grid = default_grid()
        with pytest.raises(ValueError, match=r"got \(%d, 3\)" % grid.size):
            l32_energy(B1.to_float().coefficient_values(grid.points), grid)

    def test_scaling_homogeneity(self):
        field = B1.to_float() + _basis("u")[4].scale(0.3)
        assert l32_energy(field.scale(2.0)) == pytest.approx(
            2.0 ** 1.5 * l32_energy(field), rel=1e-12)


class TestBigF:
    def test_hopf_value(self):
        assert big_F(B1) == pytest.approx((2 * PI ** 2) ** (4 / 3) / PI ** 2,
                                          rel=1e-12)

    def test_zero_helicity_rejected(self):
        gradient_like = B1 + explicit_basis(-2).fields[0]
        # B1 + anti-Hopf combination with cancelling helicity is hard to
        # arrange; instead pass an explicit zero.
        with pytest.raises(ZeroHelicityError):
            big_F(B1.to_float(), helicity_value=0.0)
        assert gradient_like is not None


class TestDerivativesAtHopf:
    def test_first_derivative_vanishes(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            assert abs(dF_at_hopf(1, rand_perturbation(rng))) < 1e-13

    def test_second_derivative_z1_direction(self):
        W = HopfPerturbation(a=[1.0] + [0.0] * 7)
        assert dF_at_hopf(2, W) == pytest.approx(hopf_prefactor() * 2 / 3,
                                                 rel=1e-12)

    def test_second_derivative_degenerate_on_z2(self):
        W = HopfPerturbation(a=[0, 0, 0, 0, 0.8, 0, 0, -0.6])
        assert abs(dF_at_hopf(2, W)) < 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_energy_derivatives_match_integral_formulas(self, k):
        rng = np.random.default_rng(100 + k)
        W = rand_perturbation(rng)
        field = W.field()
        p = B1.to_float().dot(field)
        m = field.norm_sq()
        I = lambda s: float(integrate_poly(s))
        if k == 2:
            expected = 0.75 * (2 * I(m) - I(p * p))
        elif k == 3:
            expected = 3 / 8 * (-6 * I(p * m) + 5 * I(p * p * p))
        elif k == 4:
            expected = 3 / 16 * (-12 * I(m * m) + 60 * I(m * p * p)
                                 - 45 * I(p * p * p * p))
        else:
            expected = 15 / 32 * (60 * I(m * m * p) - 180 * I(p * p * p * m)
                                  + 117 * I(p * p * p * p * p))
        assert dE_at_hopf(k, W) == pytest.approx(expected, rel=1e-11)

    def test_sixth_energy_derivative_coefficient(self):
        # The binomial series of (1 + u)^{3/4} forces the (B1.W)^6 moment
        # to enter with -1989 * (15/64); a -1755 variant circulates but is
        # inconsistent with finite differences of the energy.
        rng = np.random.default_rng(106)
        W = rand_perturbation(rng)
        field = W.field()
        p = B1.to_float().dot(field)
        m = field.norm_sq()
        I = lambda s: float(integrate_poly(s))
        common = (120 * I(m * m * m) - 1620 * I(m * m * p * p)
                  + 3510 * I(m * p * p * p * p))
        p6 = I(p * p * p * p * p * p)
        value = dE_at_hopf(6, W)
        assert value == pytest.approx(15 / 64 * (common - 1989 * p6),
                                      rel=1e-11)
        assert value != pytest.approx(15 / 64 * (common - 1755 * p6),
                                      rel=1e-6)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_energy_derivatives_match_finite_differences(self, k):
        rng = np.random.default_rng(19)
        tol = 1e-5 if k <= 3 else 1e-3
        W = unit_perturbation(rng)
        field = W.field()
        base = B1.to_float()
        h = tuned_step(k)
        fd = richardson_difference(
            lambda t: l32_energy(base + field.scale(t)), k, h)
        value = dE_at_hopf(k, W)
        scale = max(abs(value), abs(fd), 1.0)
        assert abs(value - fd) / scale < tol

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_f_derivatives_match_finite_differences(self, k):
        rng = np.random.default_rng(23 + k)
        tol = 1e-5 if k <= 3 else 1e-3
        W = unit_perturbation(rng)
        h = tuned_step(k)
        fd = richardson_difference(lambda t: f_perturbed(W, t), k, h)
        value = dF_at_hopf(k, W)
        scale = max(abs(value), abs(fd), 1.0)
        assert abs(value - fd) / scale < tol

    def test_extra_component_enters_the_expansion(self):
        w1 = explicit_basis(5).fields[0].to_float().scale(0.4)
        W = HopfPerturbation(extra={4: w1})
        norm_sq = float(w1.l2_inner(w1))
        # D^2 F on a single eigenfield of eigenvalue mu is the prefactor
        # times (2 - int (B1.W)^2 / |W|^2 - 4 / mu) |W|^2.
        p = B1.to_float().dot(w1)
        cross = float(integrate_poly(p * p))
        expected = hopf_prefactor() * (2 * norm_sq - cross
                                       - 4 * norm_sq / 5)
        assert dF_at_hopf(2, W) == pytest.approx(expected, rel=1e-11)

    def test_extra_rejects_wrong_eigenvalue(self):
        with pytest.raises(ValueError):
            HopfPerturbation(extra={4: explicit_basis(4).fields[0]})


def summed_fields(coeffs, fields) -> FrameField:
    """Reference: the float sum of c * e over nonzero c, term by term."""
    out = FrameField.zero()
    for c, e in zip(coeffs, fields):
        if c:
            out = out + e.scale(float(c))
    return out


class TestPerturbationParts:
    def test_parts_are_assembled_once(self):
        rng = np.random.default_rng(61)
        w1 = explicit_basis(5).fields[0].to_float().scale(0.4)
        minus4 = explicit_basis(-4).fields[2]
        W = HopfPerturbation(beta=rng.standard_normal(3),
                             a=rng.standard_normal(8),
                             b=rng.standard_normal(15),
                             extra={4: w1, -3: minus4})
        basis = _basis("anti_hopf") + _basis("u") + _basis("v")
        expected = {
            "field": sum((f.to_float() for f in W.extra.values()),
                         summed_fields(W.beta + W.a + W.b, basis)),
        }
        for name, reference in expected.items():
            part = getattr(W, name)()
            assert getattr(W, name)() is part, name
            # Bit-identical coefficients, not merely close ones.
            assert ([c.representative().terms for c in part.f]
                    == [c.representative().terms for c in reference.f]), name

    @pytest.mark.parametrize("extra", [False, True])
    def test_coefficients_are_those_of_the_field(self, extra):
        rng = np.random.default_rng(62)
        fields = {4: explicit_basis(5).fields[0].to_float().scale(0.4),
                  -3: explicit_basis(-4).fields[2]}
        W = HopfPerturbation(beta=rng.standard_normal(3),
                             a=rng.standard_normal(8),
                             b=rng.standard_normal(15),
                             extra=fields if extra else None)
        exponents, matrix = W.coefficients()
        assert W.coefficients()[1] is matrix
        field = dict(zip(exponents, matrix.T))
        for a, coefficient in enumerate(W.field().f):
            terms = coefficient.representative().terms
            assert set(terms) <= set(field)
            for e, column in field.items():
                assert column[a] == pytest.approx(float(terms.get(e, 0.0)),
                                                  rel=1e-14, abs=1e-14)


class TestHopfLine:
    """F(B1 + tW) from W's coefficient values, kept once per grid."""

    @staticmethod
    def perturbation(extra: bool) -> HopfPerturbation:
        rng = np.random.default_rng(71)
        fields = {4: explicit_basis(5).fields[0].to_float().scale(0.4)}
        return HopfPerturbation(beta=rng.standard_normal(3),
                                a=rng.standard_normal(8),
                                b=rng.standard_normal(15),
                                extra=fields if extra else None)

    @pytest.mark.parametrize("orders", [(24, 48), (8, 16)])
    @pytest.mark.parametrize("extra", [False, True])
    def test_matches_the_assembled_field(self, orders, extra):
        grid = shared_grid(*orders)
        W = self.perturbation(extra)
        for t in (1e-3, -1e-3, 0.05, -0.05, 0.5):
            h = PI ** 2 + t * t * W.helicity()
            reference = big_F(_b1_float() + W.field().scale(t), grid, h)
            assert f_perturbed(W, t, grid) == pytest.approx(reference,
                                                            rel=1e-13)

    def test_bit_identical_whichever_grid_comes_first(self):
        grids = (default_grid(), shared_grid(8, 16))
        results = []
        for order in (grids, grids[::-1]):
            W = self.perturbation(True)
            values = {g.size: [f_perturbed(W, t, g) for t in (0.05, -0.5)]
                      for g in order}
            values["dF"] = [dF_at_hopf(k, W) for k in range(1, 7)]
            results.append(values)
        assert results[0] == results[1]

    def test_one_evaluation_per_grid(self, monkeypatch):
        # One pass of the grid's polynomial kernel per grid W is used on.
        sizes = []
        original = HopfGrid.polynomial_slabs

        def counted(grid, exponents, coefficients):
            sizes.append(grid.size)
            return original(grid, exponents, coefficients)

        monkeypatch.setattr(HopfGrid, "polynomial_slabs", counted)
        W = rand_perturbation(np.random.default_rng(72))
        for k in range(2, 7):
            dE_at_hopf(k, W)
        for k in range(1, 7):
            dF_at_hopf(k, W)
        for t in (1e-3, -1e-3, 2e-3, -2e-3, 0.05, -0.05, 0.1, -0.1):
            f_perturbed(W, t)
        series_grid = grid_for_degree(6 * W.field().coefficient_degree())
        assert sorted(sizes) == sorted([series_grid.size,
                                        default_grid().size])

    def test_zero_helicity_raises(self):
        W = HopfPerturbation(beta=(1.0, 1.0, 0.0))
        with pytest.raises(ZeroHelicityError):
            f_perturbed(W, math.pi)

    @pytest.mark.parametrize("orders", [(24, 48), (8, 16)])
    @pytest.mark.parametrize("extra", [False, True])
    def test_bit_identical_to_the_line_energy(self, orders, extra):
        # The in-place evaluation keeps big_F's arithmetic exactly.
        grid = shared_grid(*orders)
        W = self.perturbation(extra)
        for t in (1e-3, -2e-3, 0.05, -0.5, 0, 2):
            h = PI ** 2 + t * t * W.helicity()
            assert f_perturbed(W, t, grid) == big_F(
                _hopf_line(*W.line_columns(grid), t), grid, h)

    def test_allocates_no_grid_array(self):
        grid = default_grid()
        W = self.perturbation(False)
        f_perturbed(W, 0.05)
        tracemalloc.start()
        try:
            f_perturbed(W, -0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.size // 4

    def test_accepts_a_fraction_t(self):
        # ConformalFactor's rule admits any finite real; a Fraction is
        # taken as its float.
        W = self.perturbation(False)
        assert f_perturbed(W, Fraction(1, 20)) == f_perturbed(W, 0.05)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True,
                                   np.float64(math.nan), "0.1"])
    def test_rejects_bad_t(self, t):
        with pytest.raises(ValueError, match=re.escape(repr(t))):
            f_perturbed(self.perturbation(False), t)

    @pytest.mark.parametrize("part,size", [("beta", 3), ("a", 8), ("b", 15)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, part, size, value):
        coefficients = [0.0] * size
        coefficients[-1] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{part} coefficients must be finite, got {value!r}")):
            HopfPerturbation(**{part: coefficients})

    @pytest.mark.parametrize("part,size", [("beta", 3), ("a", 8), ("b", 15)])
    @pytest.mark.parametrize("value", ["1.5", True, 1j, None])
    def test_rejects_coefficients_that_are_not_real(self, part, size, value):
        # Unchecked, float() took the string and the bool as numbers.
        coefficients = [0.0] * size
        coefficients[0] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{part} coefficients must be real numbers, got {value!r}")):
            HopfPerturbation(**{part: coefficients})


class TestTaylorRecord:
    """A direction keeps its F series: D^k F and the Taylor-6 combination
    read one composition of it."""

    @pytest.mark.parametrize("extra", [False, True])
    def test_record_is_its_recomposition(self, extra, monkeypatch):
        calls = []
        original = functionals._f_series

        def counted(e, helicity):
            calls.append(1)
            return original(e, helicity)

        monkeypatch.setattr(functionals, "_f_series", counted)
        fields = {4: explicit_basis(5).fields[0].to_float().scale(0.4)}
        for count, seed in enumerate((81, 82), 1):
            rng = np.random.default_rng(seed)
            W = HopfPerturbation(beta=rng.standard_normal(3),
                                 a=rng.standard_normal(8),
                                 b=rng.standard_normal(15),
                                 extra=fields if extra else None)
            values = [dF_at_hopf(k, W) for k in range(1, 7)]
            combination = taylor6_combination(W)
            assert len(calls) == count
            e, (h1,) = functionals._series_at_hopf(W)
            series = original(e, (h1, W.helicity()))
            # Bit for bit, not merely close.
            assert values == [math.factorial(k) * series[k]
                              for k in range(1, 7)]
            assert combination == 6.0 * math.fsum(series[1:])
            for k in (True, False, 0, 7, 2.0):
                with pytest.raises(ValueError, match=re.escape(repr(k))):
                    dF_at_hopf(k, W)

    def test_extra_is_read_only(self):
        # Writable, an extra field added after the first call left the kept
        # extra norms (so the helicity) and series stale, and index 1 got
        # past the index check.
        field = explicit_basis(5).fields[0].to_float().scale(0.4)
        a = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        given = {}
        W = HopfPerturbation(a=a, extra=given)
        before = W.helicity(), dF_at_hopf(2, W)
        for index in (4, 1):
            with pytest.raises(TypeError):
                W.extra[index] = field
        given[4] = field
        assert dict(W.extra) == {}
        assert (W.helicity(), dF_at_hopf(2, W)) == before
        assert HopfPerturbation(a=a, extra=given).helicity() != before[0]

    @pytest.mark.parametrize("name", ["beta", "a", "b", "extra"])
    def test_attributes_are_read_only(self, name):
        # Reassigned, a coefficient tuple left the kept series stale: with
        # a = e5, dE_at_hopf(2, W) read 1.0 after W.a = 2 e5 while a fresh
        # direction gives 4.0.
        W = HopfPerturbation(a=[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        dE_at_hopf(2, W)
        with pytest.raises(AttributeError, match=repr(name)):
            setattr(W, name, getattr(W, name))

    def test_refuses_a_frame_field_direction(self):
        field = explicit_basis(3).fields[1]
        dE_at_hopf(2, field)
        for call in (lambda: dF_at_hopf(2, field),
                     lambda: taylor6_combination(field)):
            with pytest.raises(TypeError, match="FrameField"):
                call()


def reference_energy_series(field: FrameField):
    """Taylor coefficients of t -> E(B1 + tW) and int B1 . W from moments.

    The t^k coefficient of (1 + 2t p + t^2 m)^{3/4}, p = B1 . W and
    m = |W|^2, is built from SphereScalar products and integrated through
    exact monomial moments.  The arithmetic is exact for an exact field and
    float otherwise.
    """
    p = B1.dot(field)
    m = field.norm_sq()
    coeffs = [SphereScalar.const(1)] + [SphereScalar.zero()] * 6
    for j in range(1, 7):
        binomial = math.prod((Fraction(3, 4) - i) / (i + 1) for i in range(j))
        # (2p)^(j - i) m^i contributes at t-power j + i.
        for i in range(j + 1):
            if j + i > 6:
                continue
            term = SphereScalar.const(binomial * math.comb(j, i) * 2 ** (j - i))
            for _ in range(j - i):
                term = term * p
            for _ in range(i):
                term = term * m
            coeffs[j + i] = coeffs[j + i] + term
    return [float(integrate_poly(c)) for c in coeffs], float(integrate_poly(p))


def reference_dF(W: HopfPerturbation, field: FrameField) -> list:
    """D^k F(B1)(W..W), k = 0..6, composed from the moment series of field."""
    e, h1 = reference_energy_series(field)
    h = [PI ** 2, h1, W.helicity(), 0.0, 0.0, 0.0, 0.0]
    series = _series_div(_series_power(e, 4.0 / 3.0), h)
    return [math.factorial(k) * c for k, c in enumerate(series)]


class TestSeriesAgainstMonomialMoments:
    """The grid series against the moment series: equal up to rounding."""

    @staticmethod
    def assert_series(W, field: FrameField, with_dF: bool = True):
        e, _ = reference_energy_series(field)
        expected = [math.factorial(k) * e[k] for k in range(2, 7)]
        values = [dE_at_hopf(k, W) for k in range(2, 7)]
        if with_dF:
            expected += reference_dF(W, field)[1:]
            values += [dF_at_hopf(k, W) for k in range(1, 7)]
        scale = max(abs(v) for v in expected)
        for value, reference in zip(values, expected):
            assert abs(value - reference) <= 1e-12 * scale

    def test_random_unit_perturbation(self):
        W = unit_perturbation(np.random.default_rng(53))
        self.assert_series(W, W.field())

    def test_high_degree_extra_fields(self):
        # Index -3 is curl eigenvalue -4 and index 6 is 7, whose fields have
        # coefficient degree 5, so the series runs on the degree-30 grid.
        # The reference runs in exact arithmetic on the exact fields: the
        # float moment series is off by about 6e-12 relative at degree 30.
        minus4 = explicit_basis(-4).fields[2]
        seven = eigenspace_solve(5).eigenspaces[7].fields()[3]
        W = HopfPerturbation(extra={-3: minus4, 6: seven})
        assert W.field().coefficient_degree() == 5
        assert grid_for_degree(30).size == 9 * 31 * 31
        self.assert_series(W, minus4 + seven)

    def test_exact_frame_field(self):
        W = (explicit_basis(3).fields[1] + explicit_basis(-2).fields[0]
             + explicit_basis(4).fields[5].scale(Rat(1, 2)))
        self.assert_series(W, W, with_dF=False)


class TestSixthOrderStructure:
    def test_d6f_leading_coefficient(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            a5, a8 = rng.standard_normal(2)
            W = HopfPerturbation(a=[0, 0, 0, 0, a5, 0, 0, a8])
            n2 = a5 * a5 + a8 * a8
            expected = hopf_prefactor() * D6_Z2_COEFFICIENT / PI ** 4 * n2 ** 3
            assert dF_at_hopf(6, W) == pytest.approx(expected, rel=1e-8)
            reported = (hopf_prefactor() * REPORTED_D6_Z2_COEFFICIENT
                        / PI ** 4 * n2 ** 3)
            assert dF_at_hopf(6, W) != pytest.approx(reported, rel=1e-2)

    def test_bracket_matches_graded_coefficient(self):
        rng = np.random.default_rng(37)
        a5, a8 = rng.standard_normal(2)
        b10, b12, b15 = rng.standard_normal(3)
        W1 = HopfPerturbation(a=[0, 0, 0, 0, a5, 0, 0, a8])
        bvec = [0.0] * 15
        bvec[9], bvec[11], bvec[14] = b10, b12, b15
        W2 = HopfPerturbation(b=bvec)
        c6 = graded_coefficient(W1, W2, 6)
        assert c6 == pytest.approx(
            sixth_order_bracket(a5, a8, b10, b12, b15), rel=1e-7)
        assert c6 != pytest.approx(
            sixth_order_bracket(a5, a8, b10, b12, b15,
                                leading=REPORTED_SIXTH_ORDER_LEADING),
            rel=1e-3)

    def test_degenerate_locus_leading_constant(self):
        a5, a8 = 0.9, -0.4
        b10, b12, b15 = degenerate_coefficients(a5, a8)
        W1 = HopfPerturbation(a=[0, 0, 0, 0, a5, 0, 0, a8])
        bvec = [0.0] * 15
        bvec[9], bvec[11], bvec[14] = b10, b12, b15
        W2 = HopfPerturbation(b=bvec)
        n2 = a5 * a5 + a8 * a8
        expected = hopf_prefactor() * DEGENERATE_LEADING / PI ** 4 * n2 ** 3
        assert graded_coefficient(W1, W2, 6) == pytest.approx(expected,
                                                              rel=1e-6)
        # The quadratically controlled terms form a sum of squares that
        # vanishes exactly on the locus.
        assert abs(graded_coefficient(W1, W2, 4)) < 1e-10

    def test_fourth_order_terms_match_graded_coefficient(self):
        W1 = HopfPerturbation(a=[0, 0, 0, 0, 0.7, 0, 0, -0.4])
        bvec = [0.0] * 15
        bvec[9], bvec[11], bvec[14] = 0.3, -0.2, 0.5
        W2 = HopfPerturbation(b=bvec)
        c4 = graded_coefficient(W1, W2, 4)
        expected = hopf_prefactor() * fourth_order_terms(
            perturbation_scaled(W1, W2, 1.0))
        assert c4 == pytest.approx(expected, rel=1e-9)

    def test_taylor6_matches_finite_difference_expansion(self):
        rng = np.random.default_rng(41)
        W = unit_perturbation(rng)
        combo = 0.0
        weights = {1: 6.0, 2: 3.0, 3: 1.0, 4: 0.25, 5: 0.05, 6: 1 / 120}
        for k, weight in weights.items():
            h = tuned_step(k)
            combo += weight * richardson_difference(
                lambda t: f_perturbed(W, t), k, h)
        assert taylor6_combination(W) == pytest.approx(combo, abs=1e-4,
                                                       rel=1e-4)

    def test_taylor6_zero_at_zero(self):
        assert taylor6_combination(HopfPerturbation()) == 0.0


def sampled_graded_coefficients(W1: HopfPerturbation,
                                W2: HopfPerturbation) -> list:
    """Reference: the s^1..s^6 coefficients of the degree-12 polynomial
    s -> taylor6_combination(s W1 + s^2 W2), from its even and odd parts
    sampled at +-s for seven nodes s and a Vandermonde solve in s^2."""
    nodes = np.linspace(0.4, 1.0, 7)
    plus, minus = (np.array([taylor6_combination(
        perturbation_scaled(W1, W2, sign * float(s))) for s in nodes])
        for sign in (1, -1))
    vander = np.vander(nodes ** 2, 7, increasing=True)
    even = np.linalg.solve(vander, (plus + minus) / 2)
    odd = np.linalg.solve(vander * nodes[:, None], (plus - minus) / 2)
    return [float((odd if d % 2 else even)[d // 2]) for d in range(1, 7)]


class TestGradedCoefficient:
    """graded_coefficient composes the s-series directly."""

    def test_degenerate_locus_constant_to_rounding(self):
        b10, b12, b15 = degenerate_coefficients(1.0, 0.0)
        bvec = [0.0] * 15
        bvec[9], bvec[11], bvec[14] = b10, b12, b15
        W1 = HopfPerturbation(a=[0, 0, 0, 0, 1.0, 0, 0, 0])
        W2 = HopfPerturbation(b=bvec)
        expected = hopf_prefactor() * DEGENERATE_LEADING / PI ** 4
        assert graded_coefficient(W1, W2, 6) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_matches_sampled_vandermonde_fit(self):
        rng = np.random.default_rng(97)
        fields = explicit_basis(5).fields
        W1, W2 = (HopfPerturbation(
            beta=rng.standard_normal(3), a=rng.standard_normal(8),
            b=rng.standard_normal(15),
            extra={4: fields[i].to_float().scale(0.4)}) for i in (0, 5))
        reference = sampled_graded_coefficients(W1, W2)
        values = [graded_coefficient(W1, W2, d) for d in range(1, 7)]
        assert abs(values[0]) < 1e-13
        for value, expected in zip(values[1:], reference[1:]):
            assert value == pytest.approx(expected, rel=1e-8)


class TestSeriesPower:
    def test_rows_bit_identical_to_points(self):
        rng = np.random.default_rng(89)
        rows = rng.standard_normal((4, 50))
        a = [1.7, rows[0], rows[1], 0.0, rows[2], 0.0, rows[3]]
        for alpha in (0.75, 4.0 / 3.0):
            series = _series_power(a, alpha)
            for i, point in enumerate(rows.T.tolist()):
                expected = _series_power(
                    [1.7, point[0], point[1], 0.0, point[2], 0.0, point[3]],
                    alpha)
                assert [float(np.broadcast_to(c, 50)[i])
                        for c in series] == expected

    def test_square_root_of_a_square(self):
        x = np.random.default_rng(83).standard_normal(20)
        series = _series_power([1.0, 2.0 * x, x * x] + [0.0] * 4, 0.5)
        assert series[0] == 1.0
        assert np.max(np.abs(series[1] - x)) <= 1e-15
        for c in series[2:]:
            assert np.max(np.abs(c)) <= 1e-15


class TestDerivativeOrders:
    """Derivative orders and degrees are ints in range, not bools."""

    @staticmethod
    def assert_rejected(call, value):
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            call(value)

    @pytest.mark.parametrize("k", [True, False, 0, 7, 2.0, 2.5, "2"])
    def test_dF_at_hopf(self, k):
        W = HopfPerturbation(a=[1.0] + [0.0] * 7)
        self.assert_rejected(lambda value: dF_at_hopf(value, W), k)

    @pytest.mark.parametrize("k", [True, 1, 7, 2.5, 6.0])
    def test_dE_at_hopf(self, k):
        W = HopfPerturbation(a=[1.0] + [0.0] * 7)
        self.assert_rejected(lambda value: dE_at_hopf(value, W), k)

    @pytest.mark.parametrize("degree", [-1, 0, 7, 13, 2.0, True])
    def test_graded_coefficient(self, degree):
        W1 = HopfPerturbation(a=[0, 0, 0, 0, 1.0, 0, 0, 0])
        W2 = HopfPerturbation(b=[1.0] + [0.0] * 14)
        self.assert_rejected(
            lambda value: graded_coefficient(W1, W2, value), degree)


class TestRemainderAndCorrection:
    def test_span_validation(self):
        with pytest.raises(SpanError):
            remainder_field(_basis("v")[0], _basis("u")[4])
        with pytest.raises(SpanError):
            remainder_field(_basis("v")[9], _basis("u")[0])

    def test_zero_input(self):
        C, norm_sq = correction_field(0.0, 0.0)
        assert C.is_zero()
        assert norm_sq == 0.0

    @pytest.mark.parametrize("a5,a8", [(1.0, 0.0), (1.0, 1.0), (0.3, -0.8)])
    def test_correction_norm(self, a5, a8):
        C, norm_sq = correction_field(a5, a8)
        n2 = a5 * a5 + a8 * a8
        assert norm_sq == pytest.approx(151 / (90 * PI ** 4) * n2 ** 3,
                                        rel=1e-10)


    @pytest.mark.parametrize("a5,a8", [(1.0, 0.0), (0.3, -0.8)])
    def test_correction_is_a_gradient_step(self, a5, a8):
        C, _ = correction_field(a5, a8)
        b10, b12, b15 = degenerate_coefficients(a5, a8)
        v, u = _basis("v"), _basis("u")
        R = remainder_field(
            v[9].scale(b10) + v[11].scale(b12) + v[14].scale(b15),
            u[4].scale(a5) + u[7].scale(a8))
        assert not (C - R).is_zero()
        assert all(abs(c) <= 1e-12 for comp in curl(C - R).f
                   for c in comp.representative().terms.values())


class TestSecondVariation:
    def test_examples(self):
        denom = 2 * (2 * PI ** 2) ** (4 / 3)
        u5 = HopfPerturbation(a=[0, 0, 0, 0, 1, 0, 0, 0])
        assert abs(second_variation_R(B1, u5)) < 1e-14
        v1 = HopfPerturbation(b=[1.0] + [0.0] * 14)
        assert second_variation_R(B1, v1) == pytest.approx(-1 / denom,
                                                           rel=1e-12)
        anti = HopfPerturbation(beta=[1.0, 0.0, 0.0])
        assert second_variation_R(B1, anti) == pytest.approx(
            -(11 / 3) / denom, rel=1e-12)

    def test_other_base_point(self):
        Y1 = hopf_frame()[0] + hopf_frame()[1]
        value = second_variation_R(Y1, HopfPerturbation(beta=[0, 0, 1.0]))
        assert value < 0

    def test_rejects_non_eigenfield_base(self):
        with pytest.raises(ValueError):
            second_variation_R(explicit_basis(3).fields[0],
                               HopfPerturbation(beta=[1, 0, 0]))

    def test_rejects_direction_in_first_eigenspace(self):
        with pytest.raises(ValueError):
            second_variation_R(B1, hopf_frame()[1])

    def test_matches_exact_value_at_high_degree(self):
        # W has coefficient degree 4, so the cross term int (B1 . W)^2 has
        # Cartesian degree 8; a grid exact only through degree 7 misses it.
        W = (eigenspace_solve(4).eigenspaces[6].fields()[16]
             + explicit_basis(-4).fields[2].scale(Rat(2, 3)))
        assert W.coefficient_degree() >= 4
        numerator = (4 * helicity(W) - W.l2_inner(W).scale(2)
                     + integrate_products([(W.f[0], W.f[0])]))
        expected = float(numerator) / (2 * (2 * PI ** 2) ** (4 / 3))
        assert second_variation_R(B1, W) == pytest.approx(expected,
                                                          rel=1e-12)


class TestNoFloatPolynomialProducts:
    """The float integrals of products of fields come from grid values."""

    def test_zero_poly4_products(self, monkeypatch):
        rng = np.random.default_rng(83)

        def direction():
            return HopfPerturbation(beta=rng.standard_normal(3),
                                    a=rng.standard_normal(8),
                                    b=rng.standard_normal(15))

        v = _basis("v")
        P23 = v[9].scale(0.3) + v[11].scale(-0.2) + v[14].scale(0.5)
        Y1 = hopf_frame()[1]
        calls = []
        original = Poly4.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        for counted in (False, True):  # the first round builds the caches
            if counted:
                monkeypatch.setattr(Poly4, "__mul__", counting)
            fourth_order_terms(direction())
            second_variation_R(Y1, direction())
            _check_span(P23, "v", (9, 11, 14), "P23")
        assert calls == []


class TestLowerBoundInequality:
    def test_higher_component_inequality(self):
        # 2|W|^2 - 4H(W) - int (B1.W)^2 against the componentwise bound
        # with weights 5/3, 1/3, 9/20, 1/3, 3/7 for the eigenvalues
        # -3, -4, 5, 6, 7.
        result = eigenspace_solve(5)
        spaces = {mu: [f.to_float() for f in result.eigenspaces[mu].fields()]
                  for mu in (-3, -4, 5, 6, 7)}
        weights = {-3: 5 / 3, -4: 1 / 3, 5: 9 / 20, 6: 1 / 3, 7: 3 / 7}
        rng = np.random.default_rng(43)
        b1 = B1.to_float()
        for _ in range(100):
            total = FrameField.zero()
            lhs = 0.0
            rhs = 0.0
            for mu, fields in spaces.items():
                coeffs = rng.standard_normal(len(fields))
                part = FrameField.zero()
                for c, f in zip(coeffs, fields):
                    part = part + f.scale(float(c))
                norm_sq = float(integrate_poly(part.norm_sq()))
                lhs += 2 * norm_sq - 4 * norm_sq / mu
                rhs += weights[mu] * norm_sq
                total = total + part
            p = b1.dot(total)
            lhs -= float(integrate_poly(p * p))
            assert lhs >= rhs - 1e-9 * max(abs(lhs), 1.0)


def reference_local_max_scan(radius: float, samples: int, seed: int,
                             grid: HopfGrid) -> dict:
    """The scan with a (fields, N, 3) stack of basis coefficient values,
    as before the basis was evaluated on monomial rows."""
    rng = np.random.default_rng(seed)
    bases = [(2, f.to_float().scale(1.0 / math.sqrt(2.0 * math.pi ** 2)))
             for f in hopf_frame()]
    bases += [(-2, f) for f in _basis("anti_hopf")]
    bases += [(3, f) for f in _basis("u")]
    bases += [(4, f) for f in _basis("v")]
    bases += [(5, f) for f in _basis("w")]
    bases += [(mu, f) for mu in (-3, -4, -5) for f in _unit_fields(mu)]
    values = np.empty((len(bases), grid.size, 3))
    for row, (_, f) in zip(values, bases):
        row[...] = np.stack([c.evaluate(grid.points) for c in f.f], axis=1)
    mus = np.array([mu for mu, _ in bases], dtype=float)
    b1_values = _b1_float().coefficient_values(grid.points)
    results = []
    for index in range(samples):
        coeffs = rng.standard_normal(len(bases))
        if index % 5 == 4:
            coeffs[3:] = 0.0
        w_values = np.tensordot(coeffs, values, axes=(0, 0))
        sup = float(np.max(np.linalg.norm(w_values, axis=1)))
        scale = radius / sup if sup > 0 else 0.0
        coeffs *= scale
        w_values *= scale
        y_values = b1_values + w_values
        energy = float(np.dot(grid.weights,
                              np.sum(y_values ** 2, axis=1) ** 0.75))
        e1 = np.zeros(len(bases))
        e1[0] = math.sqrt(2.0 * math.pi ** 2)
        h = float(np.sum((coeffs + e1) ** 2 / mus))
        non_e1 = float(np.linalg.norm(coeffs[3:]))
        delta = h / energy ** (4.0 / 3.0) - R_AT_HOPF
        ok = delta <= 1e-9 and (delta < -1e-9 or non_e1 < 1e-8)
        results.append({"sample": index, "delta": delta,
                        "non_e1_norm": non_e1, "pass": bool(ok)})
    return {"pass": all(r["pass"] for r in results), "results": results}


class TestLocalMaxScan:
    @pytest.mark.parametrize("radius,seed,orders,samples", [
        pytest.param(0.05, 3, (8, 16), 15, id="0.05-3"),
        pytest.param(0.1, 8, (8, 16), 15, id="0.1-8"),
        pytest.param(0.05, 5, (24, 48), 20, id="default-grid"),
        pytest.param(0.1, 4, (8, 16), 47, id="three-groups")])
    def test_matches_field_stack_reference(self, radius, seed, orders,
                                           samples):
        grid = shared_grid(*orders)
        report = local_max_scan(radius, samples, seed, grid)
        reference = reference_local_max_scan(radius, samples, seed, grid)
        assert report["pass"] == reference["pass"]
        for row, ref in zip(report["results"], reference["results"],
                            strict=True):
            assert row["pass"] == ref["pass"]
            assert abs(row["delta"] - ref["delta"]) <= 1e-12
            assert abs(row["non_e1_norm"] - ref["non_e1_norm"]) <= 1e-12

    def test_memory_stays_at_the_monomial_rows(self):
        # The basis is kept as coefficients over its 91 monomials (degree
        # <= 5); their rows and power tables on the default grid take 111
        # doubles per point.  The stack of the 100 fields' coefficient
        # values took 300.
        grid = default_grid()
        local_max_scan(samples=1, seed=0)
        tracemalloc.start()
        try:
            local_max_scan(samples=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * grid.size

    @pytest.mark.parametrize("samples", [1, 7, 20, 21, 45])
    def test_one_monomial_row_block_per_point_and_sample_block(
            self, monkeypatch, samples):
        # Each group of samples is one pass of the grid's polynomial
        # kernel, whose slabs cover every point once.
        passes = []
        original = HopfGrid.polynomial_slabs

        def counted(grid, exponents, coefficients):
            passes.append([])
            for block, values in original(grid, exponents, coefficients):
                passes[-1].append(values.shape[1])
                yield block, values

        monkeypatch.setattr(HopfGrid, "polynomial_slabs", counted)
        local_max_scan(samples=samples, seed=2)
        grid = default_grid()
        groups = -(-samples // functionals._SCAN_GROUP)
        assert len(passes) == groups
        assert [sum(slabs) for slabs in passes] == [grid.size] * groups

    @pytest.mark.parametrize("samples", [20, 200])
    def test_memory_stays_under_the_row_matrix(self, samples):
        # The (91, N) row matrix of the default grid alone takes 38 MiB; a
        # group of samples keeps two doubles per point each, plus one block,
        # whatever the number of samples.
        local_max_scan(samples=1, seed=0)
        tracemalloc.start()
        try:
            local_max_scan(samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 38 * 2 ** 20

    @pytest.mark.parametrize("samples", [20, 200])
    def test_memory_stays_at_one_pair_of_samples(self, samples):
        # A pass over the grid holds one pair of samples: their four (N,)
        # columns, in which each Hopf line is built, and one slab of six
        # polynomials (half the default grid) with its products, about
        # 4 MiB.  One (6, N) slab and a fresh line per sample took
        # 5.94 MiB, groups of 20 samples 22.3 MiB.
        local_max_scan(0.05, 1, 0)
        tracemalloc.start()
        try:
            local_max_scan(0.05, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2 ** 20

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_do_not_depend_on_the_sample_count(self, seed):
        # An odd count's final sample is paired with a copy of itself, so
        # it rounds as it does beside the next sample of a larger count.
        def rows(samples):
            return [(row["sample"], row["delta"].hex(),
                     row["non_e1_norm"].hex(), row["pass"])
                    for row in local_max_scan(0.05, samples, seed,
                                              default_grid())["results"]]

        assert rows(7) == rows(8)[:7]

    @pytest.mark.parametrize("samples", [True, 2.5])
    def test_rejects_non_int_samples(self, samples):
        with pytest.raises(ValueError, match=re.escape(repr(samples))):
            local_max_scan(samples=samples)

    def test_scan_passes(self):
        report = local_max_scan(radius=0.05, samples=20, seed=5)
        assert report["pass"]
        assert report["violations"] == []
        assert len(report["results"]) == 20

    def test_rejects_large_radius(self):
        with pytest.raises(ValueError):
            local_max_scan(radius=0.2)

    @pytest.mark.parametrize("radius", ["0.05", True, math.nan, None, 1j])
    def test_rejects_a_radius_that_is_not_a_real_number(self, radius):
        # Unchecked, the string failed the range comparison as a TypeError,
        # which the CLI reports as a crash.
        with pytest.raises(ValueError, match=re.escape(repr(radius))):
            local_max_scan(radius=radius)

    def test_u5_direction_fourth_order_decrease(self):
        t = 0.05
        W = HopfPerturbation(a=[0, 0, 0, 0, 1, 0, 0, 0])
        r = 1.0 / f_perturbed(W, t)
        delta = PI ** 2 / (2 * PI ** 2) ** (4 / 3) - r
        assert delta > 0
        # Fourth-order decrease: F grows like (13/(9 pi^2)) K t^4 / 24, so
        # R = 1/F drops by that amount divided by F^2.
        f0 = (2 * PI ** 2) ** (4 / 3) / PI ** 2
        expected = 13 / (9 * PI ** 2) * hopf_prefactor() * t ** 4 / (24 * f0 ** 2)
        assert delta == pytest.approx(expected, rel=0.05)


class TestGridPointsOnDemand:
    """Integrals of grid densities never build the grid's (N, 4) points."""

    @staticmethod
    def eager_points(radial_order: int, angular_order: int) -> np.ndarray:
        nodes, _ = np.polynomial.legendre.leggauss(radial_order)
        u = 0.5 * (nodes + 1.0)
        xi = 2.0 * math.pi * np.arange(angular_order) / angular_order
        cos_eta, sin_eta = np.sqrt(1.0 - u), np.sqrt(u)
        cos_xi, sin_xi = np.cos(xi), np.sin(xi)
        pts = np.empty((radial_order, angular_order, angular_order, 4))
        pts[..., 0] = cos_eta[:, None, None] * cos_xi[None, :, None]
        pts[..., 1] = cos_eta[:, None, None] * sin_xi[None, :, None]
        pts[..., 2] = sin_eta[:, None, None] * cos_xi[None, None, :]
        pts[..., 3] = sin_eta[:, None, None] * sin_xi[None, None, :]
        return pts.reshape(-1, 4)

    def test_functionals_do_not_build_points(self):
        grid = HopfGrid(24, 48)
        local_max_scan(0.05, 3, 4, grid)
        W = unit_perturbation(np.random.default_rng(9))
        assert f_perturbed(W, 0.01, grid) > 0.0
        assert l32_energy(np.ones(grid.size), grid) == pytest.approx(
            2.0 * PI ** 2, rel=1e-14)
        assert grid._points is None
        points = grid.points
        assert grid.points is points
        assert np.array_equal(points, self.eager_points(24, 48))
        assert points.shape == (grid.size, 4) and not points.flags.writeable
        with pytest.raises(AttributeError):
            grid.points = points.copy()


class TestIdentityReport:
    def test_all_derived_rows_pass(self):
        rows = identity_report(seed=1, draws=20)
        for row in rows:
            if row["note"].startswith("discrepancy"):
                assert not row["pass"]
            else:
                assert row["pass"], row

    @pytest.mark.parametrize("draws", [True, 2.5])
    def test_rejects_non_int_draws(self, draws):
        with pytest.raises(ValueError, match=re.escape(repr(draws))):
            identity_report(draws=draws)

    def test_reference_rows_flagged(self):
        rows = identity_report(seed=1, draws=2)
        flagged = [r for r in rows if r["note"].startswith("discrepancy")]
        assert len(flagged) == 2

    def test_rows_follow_the_identity_table(self):
        rows = identity_report(seed=1, draws=2)
        assert [r["identity"] for r in rows] == list(functionals.IDENTITIES)
        for row, (name, entry) in zip(rows,
                                      functionals.IDENTITIES.items()):
            declared = functionals._report_row(name, 0.0, 0.0, 0.0, *entry)
            for key in ("anchor", "expected_exact", "note"):
                assert row[key] == declared[key], (name, key)
        exact = [r["expected_exact"] for r in rows if r["expected_exact"]]
        assert exact
        for s in exact:
            assert format_exact(parse_exact(s)) == s
