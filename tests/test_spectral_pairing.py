"""Tests for the exact spectral pairing behind the helicity, the shared
exponent-sum index and the moment Gram it pairs through."""

from __future__ import annotations

import random

import numpy as np
import pytest

from beltrami import solver
from beltrami.atlas import (
    NotExactFieldError,
    SUPPORTED_EXPLICIT,
    eigen_decompose,
    explicit_basis,
    helicity,
)
from beltrami.conformal import _basis_data
from beltrami.exactpoly import (
    ExactScalar,
    Poly4,
    Rat,
    SphereScalar,
    _monomial_moment_float,
    exponent_sums,
    integrate_monomial,
    moment_gram,
    parity_class,
    parity_classes,
)
from beltrami.frames import FrameField, coefficient_tensor, curl, grad
from beltrami.pencil import inverse_cholesky
from conftest import rand_sphere_scalar


def reference_helicity(F: FrameField) -> ExactScalar:
    """sum_mu |P_mu F|^2 / mu over the components of eigen_decompose."""
    out = ExactScalar.zero()
    for mu, piece in eigen_decompose(F).components.items():
        assert mu != 0
        out = out + piece.l2_inner(piece) / Rat(mu)
    return out


def exact_field(rng: random.Random, degree: int, parities=(0, 1),
                integer: bool = False) -> FrameField:
    """curl of a random field: exact, of coefficient degree <= degree, with
    coefficients of the given total-degree parities only."""
    slots = []
    for _ in range(3):
        s = rand_sphere_scalar(rng, degree, n_terms=8)
        if integer:
            s = SphereScalar(*(Poly4({e: Rat(int(c.numerator))
                                      for e, c in part.terms.items()})
                               for part in (s.even_part, s.odd_part)))
        slots.append(SphereScalar(s.even_part if 0 in parities else Poly4(),
                                  s.odd_part if 1 in parities else Poly4()))
    return curl(FrameField(*slots))


class TestHelicityAgainstReference:
    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_every_atlas_field(self, mu):
        entry = explicit_basis(mu)
        for field, norm in zip(entry.fields, entry.squared_norms):
            h = helicity(field)
            assert h == reference_helicity(field)
            assert h == norm / Rat(mu)

    @pytest.mark.parametrize("degree", range(6))
    def test_random_combinations(self, degree):
        rng = random.Random(700 + degree)
        orders = set()
        for integer in (True, False):
            for parities in ((0,), (1,), (0, 1)):
                F = exact_field(rng, degree, parities, integer)
                orders.add(solver.field_dmax(F))
                assert helicity(F) == reference_helicity(F)
        assert degree in orders

    def test_atlas_combinations(self):
        rng = random.Random(717)
        for _ in range(3):
            F = FrameField.zero()
            for mu in SUPPORTED_EXPLICIT:
                for field in explicit_basis(mu).fields:
                    F = F + field.scale(Rat(rng.randint(-3, 3),
                                            rng.randint(1, 4)))
            assert helicity(F) == reference_helicity(F)

    def test_zero_field(self):
        assert helicity(FrameField.zero()) == ExactScalar.zero()

    def test_large_coefficients_take_python_ints(self, monkeypatch):
        F = exact_field(random.Random(731), 3)
        big = F.scale(10 ** 15)
        dtypes = []
        real_product = solver._product

        def recording(a, b):
            out = real_product(a, b)
            dtypes.append(np.asarray(out).dtype)
            return out

        monkeypatch.setattr(solver, "_product", recording)
        h = helicity(big)
        assert object in dtypes
        assert h == helicity(F).scale(10 ** 30)
        assert h == reference_helicity(big)


class TestPairingChecks:
    def test_gradient_part_raises(self):
        F = exact_field(random.Random(741), 2)
        G = F + grad(rand_sphere_scalar(random.Random(742), 3))
        with pytest.raises(NotExactFieldError):
            helicity(G)
        with pytest.raises(NotExactFieldError):
            solver.helicity_pairing(G, solver.field_dmax(G))

    def test_float_field_raises(self):
        F = exact_field(random.Random(743), 2)
        helicity(F)
        with pytest.raises(TypeError):
            helicity(F.to_float())

    def test_limit(self):
        F = exact_field(random.Random(745), 3)
        with pytest.raises(ValueError):
            helicity(F, limit=2)

    def test_field_beyond_the_order_raises(self):
        F = explicit_basis(5).fields[0]  # coefficient degree 3
        with pytest.raises(ValueError, match="coordinate space"):
            solver.helicity_pairing(F, 0)

    def test_pairing_runs_the_spectrum_checks(self):
        # u = (0, x1, -x2) is a mu = 3 field of the odd block at order 1.
        u = FrameField(SphereScalar.zero(), SphereScalar.coordinate(1),
                       -SphereScalar.coordinate(2))
        block = solver._Block(1, 1)
        vec = {j: int(c) for j, c in block.coords.to_vector(u).items()}
        assert block._pairing(*block._checked_pieces([vec])) == \
            helicity(u).terms[2]
        block.spectrum = [mu for mu in block.spectrum if abs(mu) != 3]
        with pytest.raises(solver.SpectrumError):
            block._checked_pieces([vec])


class TestMomentGram:
    @pytest.mark.parametrize("parity", (0, 1))
    def test_entries_are_the_moments_of_the_sums(self, parity):
        monomials = solver._reduced_monomials(5, parity)
        gram, den = moment_gram(monomials)
        for i, a in enumerate(monomials):
            for j, b in enumerate(monomials):
                e = tuple(x + y for x, y in zip(a, b))
                assert ExactScalar({2: Rat(int(gram[i, j]), den)}) == \
                    integrate_monomial(e)

    def test_block_gram_is_cached(self):
        block, _ = solver._solved_block(2, 0)
        assert block.gram is block.gram
        gram, den = block.gram
        fresh, fresh_den = moment_gram(block.coords.monomials)
        assert den == fresh_den and np.array_equal(gram, fresh)
        # Small entries are kept in int64, under the solver's bound.
        assert fresh.dtype == object and gram.dtype == np.int64


class TestExponentSums:
    def test_index_points_to_each_pair_sum(self):
        monomials = solver._reduced_monomials(4, 1) + [(0, 0, 0, 0)]
        sums, index = exponent_sums(monomials)
        assert len({tuple(row) for row in sums.tolist()}) == len(sums)
        for i, a in enumerate(monomials):
            for j, b in enumerate(monomials):
                assert tuple(sums[index[i, j]]) == tuple(
                    x + y for x, y in zip(a, b))

    @pytest.mark.parametrize("manifold", ("s3", "rp3"))
    def test_conformal_tables_gram_and_columns(self, manifold):
        data = _basis_data(manifold, 2)
        exps = data.exponents
        for shift in ((0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 0)):
            table = np.array([[_monomial_moment_float(tuple(
                a + b + c for a, b, c in zip(e, f, shift))) for f in exps]
                for e in exps])
            assert np.array_equal(data._table(shift), table)
        # The columns rebuilt from the direct round table match bit for bit.
        _, P = coefficient_tensor(data.fields)
        table = np.array([[_monomial_moment_float(tuple(
            a + b for a, b in zip(e, f))) for f in exps] for e in exps])
        gram = data._contract(P, table)
        whitening = np.zeros_like(gram)
        starts = np.flatnonzero(np.diff(data.mus, prepend=np.nan,
                                        append=np.nan))
        for lo, hi in zip(starts[:-1], starts[1:]):
            whitening[lo:hi, lo:hi] = inverse_cholesky(gram[lo:hi, lo:hi])
        assert np.array_equal(whitening, data.whitening)
        assert np.array_equal(whitening @ P, data.P)


class TestParityClasses:
    def test_disjoint_classes_give_zero_overlaps(self):
        rng = random.Random(751)
        seen = 0
        for _ in range(200):
            F = FrameField(*(rand_sphere_scalar(rng, 3, 2) for _ in range(3)))
            G = FrameField(*(rand_sphere_scalar(rng, 3, 2) for _ in range(3)))
            if not any(parity_classes(a) & parity_classes(b)
                       for a, b in zip(F.f, G.f)):
                seen += 1
                assert F.l2_inner(G).is_zero()
        assert seen > 10

    def test_class_of_an_exponent(self):
        assert parity_class((3, 0, 2, 1)) == (1, 0, 0, 1)
        s = SphereScalar.coordinate(1) * SphereScalar.coordinate(4) \
            + SphereScalar.const(2)
        assert parity_classes(s) == {(1, 0, 0, 1), (0, 0, 0, 0)}


class TestProjectVectorMemo:
    def test_same_object_is_not_compared(self, monkeypatch):
        F = exact_field(random.Random(761), 2)
        dmax = solver.field_dmax(F)
        first = solver.project_vector(F, 2, dmax)
        compared = []
        real_eq = FrameField.__eq__

        def counting(self, other):
            compared.append(self)
            return real_eq(self, other)

        monkeypatch.setattr(FrameField, "__eq__", counting)
        again = solver.project_vector(F, 2, dmax)
        assert not compared
        assert again == first
