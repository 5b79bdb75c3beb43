"""The exact kernels built from integer monomial tables, against references.

Each kernel is compared with the general polynomial path it replaces:
frame_derivative with exactpoly.directional_derivative, the solver's curl
columns with curl applied to each monomial field, and the exact l2_inner
with integrate_poly of the pointwise product.
"""

from __future__ import annotations

import random

import pytest

from beltrami.atlas import SUPPORTED_EXPLICIT, explicit_basis
from beltrami.exactpoly import (
    ExactScalar,
    Poly4,
    SphereScalar,
    canonicalize,
    directional_derivative,
    integrate_poly,
)
from beltrami.frames import (
    FRAME_GENERATORS,
    FrameField,
    curl,
    frame_derivative,
)
from beltrami.solver import _Coordinates, _curl_operator, _reduced_monomials

from conftest import rand_rational, rand_sphere_scalar


def _parity_part(s: SphereScalar, parity: int) -> SphereScalar:
    if parity == 0:
        return SphereScalar(s.even_part, Poly4.zero())
    return SphereScalar(Poly4.zero(), s.odd_part)


def _random_field(rng: random.Random, max_degree: int) -> FrameField:
    return FrameField(*(rand_sphere_scalar(rng, max_degree, 5)
                        for _ in range(3)))


# ---------------------------------------------------------------------------
# Frame derivatives


class TestFrameDerivativeTable:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_every_reduced_monomial_to_degree_8(self, i):
        for parity in (0, 1):
            for e in _reduced_monomials(8, parity):
                s = canonicalize(Poly4.monomial(e, 1))
                assert frame_derivative(s, i) == directional_derivative(
                    s, FRAME_GENERATORS[i - 1]), (e, i)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rational_scalars(self, seed):
        rng = random.Random(seed)
        s = rand_sphere_scalar(rng, 7, 10)
        assert not s.even_part.is_zero() and not s.odd_part.is_zero()
        for i in (1, 2, 3):
            reference = directional_derivative(s, FRAME_GENERATORS[i - 1])
            assert frame_derivative(s, i) == reference
            for parity in (0, 1):
                part = _parity_part(s, parity)
                assert frame_derivative(part, i) == _parity_part(reference,
                                                                 parity)

    @pytest.mark.parametrize("seed", range(4))
    def test_float_scalars(self, seed):
        rng = random.Random(100 + seed)
        s = rand_sphere_scalar(rng, 6, 10).to_float()
        for i in (1, 2, 3):
            got = frame_derivative(s, i)
            want = directional_derivative(s, FRAME_GENERATORS[i - 1])
            for g, w in ((got.even_part, want.even_part),
                         (got.odd_part, want.odd_part)):
                scale = max((abs(c) for c in w.terms.values()), default=1.0)
                for e in set(g.terms) | set(w.terms):
                    assert isinstance(g.terms.get(e, 0.0), float)
                    assert g.terms.get(e, 0.0) == pytest.approx(
                        w.terms.get(e, 0.0), rel=1e-15, abs=1e-15 * scale)

    def test_rejects_unreduced_exponent(self):
        s = SphereScalar(Poly4.monomial((0, 0, 0, 2)), Poly4.zero())
        with pytest.raises(ValueError):
            frame_derivative(s, 1)

    def test_rejects_frame_index(self):
        with pytest.raises(ValueError):
            frame_derivative(SphereScalar.coordinate(1), 0)


# ---------------------------------------------------------------------------
# Curl columns


def _reference_curl_operator(coords: _Coordinates):
    """Columns of curl built from curl() on each monomial field."""
    columns = {}
    n = len(coords.monomials)
    zero = SphereScalar.zero()
    for i in range(3):
        for k, e in enumerate(coords.monomials):
            f = [zero, zero, zero]
            f[i] = canonicalize(Poly4.monomial(e))
            image = coords.to_vector(curl(FrameField(*f)))
            assert all(c.denominator == 1 for c in image.values())
            columns[i * n + k] = sorted((j, int(c)) for j, c in image.items())
    return columns


@pytest.mark.parametrize("dmax", range(6))
@pytest.mark.parametrize("parity", [0, 1])
def test_curl_columns_match_curl_of_monomial_fields(dmax, parity):
    coords = _Coordinates(dmax + 2, parity)
    columns = _curl_operator(coords)
    assert columns == _reference_curl_operator(coords)
    assert all(type(c) is int for column in columns.values()
               for _, c in column)


# ---------------------------------------------------------------------------
# Exact L^2 inner products


def _reference_l2(F: FrameField, G: FrameField):
    return integrate_poly(F.dot(G))


class TestExactL2Inner:
    def test_atlas_pairs(self):
        # Every pair within an eigenspace, and the first four fields of
        # each eigenspace against those of every other one (exact zeros).
        entries = [explicit_basis(mu).fields for mu in SUPPORTED_EXPLICIT]
        pairs = [(F, G) for fields in entries
                 for a, F in enumerate(fields) for G in fields[a:]]
        pairs += [(F, G) for a, first in enumerate(entries)
                  for second in entries[a + 1:]
                  for F in first[:4] for G in second[:4]]
        for F, G in pairs:
            got = F.l2_inner(G)
            assert isinstance(got, ExactScalar)
            assert got == _reference_l2(F, G)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_fields(self, seed):
        rng = random.Random(seed)
        F = _random_field(rng, 5)
        G = _random_field(rng, 6).scale(rand_rational(rng) or 1)
        assert any(c.denominator != 1 for a in F.f
                   for c in a.representative().terms.values())
        assert F.l2_inner(G) == _reference_l2(F, G)
        assert F.l2_inner(F) == _reference_l2(F, F)

    def test_zero_field(self):
        F = _random_field(random.Random(3), 4)
        zero = FrameField.zero()
        assert zero.l2_inner(F) == ExactScalar.zero()
        assert F.l2_inner(zero) == ExactScalar.zero()
        assert zero.l2_inner(zero) == ExactScalar.zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_single_parity_fields(self, seed):
        rng = random.Random(50 + seed)
        F, G = _random_field(rng, 6), _random_field(rng, 6)
        parts = [FrameField(*(_parity_part(c, p) for c in H.f))
                 for H in (F, G) for p in (0, 1)]
        for P in parts:
            for Q in parts:
                assert P.l2_inner(Q) == _reference_l2(P, Q)
        # Parts of opposite parity are orthogonal.
        assert parts[0].l2_inner(parts[3]) == ExactScalar.zero()

    def test_integer_coefficients(self):
        x = [Poly4.variable(i) for i in range(1, 5)]
        F = FrameField(canonicalize(Poly4({(2, 0, 0, 1): 3})),
                       canonicalize(x[0] * x[1]), SphereScalar.zero())
        assert F.l2_inner(F) == _reference_l2(F, F)

    @pytest.mark.parametrize("seed", range(4))
    def test_float_fields_keep_the_product_path(self, seed):
        rng = random.Random(200 + seed)
        F = _random_field(rng, 5).to_float()
        G = _random_field(rng, 5)
        for a, b in ((F, G), (G, F), (F, F)):
            got = a.l2_inner(b)
            assert isinstance(got, float)
            assert got == integrate_poly(a.dot(b))

    def test_float_atlas_fields(self):
        for mu in (3, -4, 5):
            for F in explicit_basis(mu).orthonormal_float_fields()[:3]:
                assert F.l2_inner(F) == integrate_poly(F.dot(F))
                assert F.l2_inner(F) == pytest.approx(1.0, rel=1e-12)

