"""The monomial normal form on S^3 and the kernels read off it.

exactpoly._monomial_normal_form is the one implementation of the sphere
rewrite x4^2 -> 1 - x1^2 - x2^2 - x3^2.  It is checked pointwise on every
monomial up to degree 12; canonicalize is compared with the general
polynomial rewrite it replaced (copied below as the reference), exactly on
rational polynomials and bit for bit on float ones; the solver's generator
vectors and the Cartesian conversions of beltrami.frames are compared with
their Poly4 product forms.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest

from beltrami.exactpoly import (
    Exponent,
    Poly4,
    Rat,
    SphereScalar,
    _monomial_normal_form,
    canonicalize,
)
from beltrami.frames import FRAME_GENERATORS, FrameField
from beltrami.solver import _Block, _monomials

from conftest import rand_poly, rand_sphere_scalar, sphere_points


# ---------------------------------------------------------------------------
# References: the general polynomial rewrite and the Poly4 frame forms


def _complement_power_reference(m: int) -> Poly4:
    base = Poly4.const(1) - (
        Poly4.variable(1) ** 2 + Poly4.variable(2) ** 2 + Poly4.variable(3) ** 2
    )
    return base ** m


def _reduce_reference(p: Poly4) -> Poly4:
    out: Dict[Exponent, object] = {}
    pending = Poly4()
    for e, c in p.terms.items():
        if e[3] < 2:
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        else:
            m, r = divmod(e[3], 2)
            head = Poly4.monomial((e[0], e[1], e[2], r), c)
            pending = pending + head * _complement_power_reference(m)
    return Poly4(out) + pending


def _canonicalize_reference(p: Poly4) -> SphereScalar:
    even = Poly4({e: c for e, c in p.terms.items() if sum(e) % 2 == 0})
    odd = Poly4({e: c for e, c in p.terms.items() if sum(e) % 2 == 1})
    return SphereScalar(_reduce_reference(even), _reduce_reference(odd))


def _form(i: int, a: int) -> Poly4:
    """(L x)_a as a Poly4, L = FRAME_GENERATORS[i]."""
    out = Poly4.zero()
    for m, c in enumerate(FRAME_GENERATORS[i][a]):
        if c:
            out = out + Poly4.variable(m + 1).scale(Rat(c))
    return out


def _items(s: SphereScalar):
    """The terms of both parts in storage order, for bit-for-bit checks."""
    return (list(s.even_part.terms.items()), list(s.odd_part.terms.items()))


def _float_poly(rng: random.Random, max_degree: int, n_terms: int) -> Poly4:
    terms = {}
    for _ in range(n_terms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(4)] += 1
        terms[tuple(e)] = rng.uniform(-3.0, 3.0)
    return Poly4(terms)


# ---------------------------------------------------------------------------
# The normal form of one monomial


class TestMonomialNormalForm:
    def test_every_monomial_to_degree_12(self):
        pts = sphere_points(7, 200)
        for d in range(13):
            for e in _monomials(d):
                form = _monomial_normal_form(e)
                exponents = [f for f, _ in form]
                assert len(set(exponents)) == len(exponents), e
                assert all(f[3] <= 1 for f in exponents), e
                assert all(type(k) is int and k for _, k in form), e
                value = Poly4({f: Rat(k) for f, k in form}).evaluate(pts)
                direct = Poly4.monomial(e).evaluate(pts)
                assert abs(value - direct).max() <= 1e-12, e

    def test_reduced_monomials_are_fixed(self):
        for e in [(0, 0, 0, 0), (3, 0, 2, 1), (0, 5, 0, 0)]:
            assert _monomial_normal_form(e) == ((e, 1),)

    def test_x4_squared(self):
        assert dict(_monomial_normal_form((1, 0, 0, 2))) == {
            (1, 0, 0, 0): 1, (3, 0, 0, 0): -1, (1, 2, 0, 0): -1,
            (1, 0, 2, 0): -1}


# ---------------------------------------------------------------------------
# canonicalize against the general rewrite


class TestCanonicalizeAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_rational_polynomials(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            p = rand_poly(rng, 9, 12)
            assert canonicalize(p) == _canonicalize_reference(p)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_float_polynomials_bit_for_bit(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(20):
            p = _float_poly(rng, 9, 12)
            assert _items(canonicalize(p)) == _items(
                _canonicalize_reference(p))
            q = rand_poly(rng, 9, 12).to_float()
            assert _items(canonicalize(q)) == _items(
                _canonicalize_reference(q))


# ---------------------------------------------------------------------------
# Kernels read off the normal form


class TestSolverGenerators:
    @pytest.mark.parametrize("dmax", range(6))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_match_canonical_products(self, dmax, parity):
        block = _Block(dmax, parity)
        expected = []
        for d in range(1 - parity, dmax + 2, 2):
            for e in _monomials(d):
                m = Poly4.monomial(e)
                for a in range(4):
                    field = FrameField(*(canonicalize(m * _form(i, a))
                                         for i in range(3)))
                    expected.append(
                        [(j, int(c)) for j, c in
                         block.coords.to_vector(field).items()])
        got = [list(vec.items()) for d in range(1 - parity, dmax + 2, 2)
               for vec in block._degree_generators(d)]
        assert got == expected


def _cartesian_reference(F: FrameField):
    return tuple(
        sum((F.f[i] * canonicalize(_form(i, a)) for i in range(3)),
            SphereScalar.zero())
        for a in range(4))


def _from_cartesian_reference(components) -> FrameField:
    return FrameField(*(
        sum((components[a] * canonicalize(_form(i, a)) for a in range(4)),
            SphereScalar.zero())
        for i in range(3)))


class TestCartesianForms:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_fields(self, seed):
        rng = random.Random(200 + seed)
        F = FrameField(*(rand_sphere_scalar(rng, 6, 8) for _ in range(3)))
        comps = F.cartesian_components()
        assert comps == _cartesian_reference(F)
        assert FrameField.from_cartesian(comps) == \
            _from_cartesian_reference(comps)
        assert FrameField.from_cartesian(comps) == F

    @pytest.mark.parametrize("seed", range(6))
    def test_float_fields_bit_for_bit(self, seed):
        rng = random.Random(300 + seed)
        F = FrameField(*(canonicalize(_float_poly(rng, 6, 10))
                         for _ in range(3)))
        comps = F.cartesian_components()
        assert [_items(c) for c in comps] == [
            _items(c) for c in _cartesian_reference(F)]
        assert [_items(c) for c in FrameField.from_cartesian(comps).f] == [
            _items(c) for c in _from_cartesian_reference(comps).f]
