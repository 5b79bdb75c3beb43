"""Tests for the exact Galerkin curl eigensolver."""

from __future__ import annotations

import collections
import hashlib
import random

import numpy as np
import pytest

from beltrami import solver
from beltrami.atlas import (SUPPORTED_EXPLICIT, eigen_decompose,
                            explicit_basis, helicity)
from beltrami.exactpoly import Poly4, Rat, SphereScalar, canonicalize
from beltrami.frames import FrameField, curl, divergence, grad
from beltrami.solver import (
    SpectrumError,
    _Block,
    _Elimination,
    _solved_block,
    eigenspace_solve,
    field_dmax,
    project_vector,
)
from conftest import rand_sphere_scalar


def rand_field(rng: random.Random, deg: int, n_terms: int = 3) -> FrameField:
    return FrameField(*(rand_sphere_scalar(rng, deg, n_terms) for _ in range(3)))


class TestEigenspaceDimensions:
    @pytest.mark.parametrize("dmax", [0, 1, 2, 3])
    def test_multiplicities(self, dmax):
        # The eigenvalue +-(k + 2) has multiplicity (k + 1)(k + 3).
        result = eigenspace_solve(dmax)
        for k in range(dmax + 1):
            mu = k + 2
            assert result.dimension(mu) == (k + 1) * (k + 3)
            assert result.dimension(-mu) == (k + 1) * (k + 3)
        assert result.dimension(dmax + 3) == 0

    def test_dimension_accounting(self):
        result = eigenspace_solve(2)
        eigen_total = sum(s.dimension for s in result.eigenspaces.values())
        assert eigen_total + result.gradient_dimension == result.trial_dimension

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eigenspace_solve(-1)
        with pytest.raises(ValueError):
            eigenspace_solve(6)
        with pytest.raises(ValueError):
            eigenspace_solve(3, limit=2)

    def test_rejects_float_order(self):
        with pytest.raises(ValueError):
            eigenspace_solve(2.5)

    def test_rejects_bool_order(self):
        with pytest.raises(ValueError):
            eigenspace_solve(True)

    def test_rejects_float_limit(self):
        with pytest.raises(ValueError):
            eigenspace_solve(1, limit=5.0)

    def test_rejects_bool_limit(self):
        with pytest.raises(ValueError):
            eigenspace_solve(1, limit=True)


class TestEigenfields:
    @pytest.mark.parametrize("mu", [2, -2, 3, -3, 4, -4])
    def test_solver_fields_satisfy_eigen_equation(self, mu):
        result = eigenspace_solve(2)
        fields = result.eigenspaces[mu].fields()
        assert len(fields) == result.dimension(mu)
        for F in fields:
            assert curl(F) == F.scale(mu)
            assert divergence(F).is_zero()

    @pytest.mark.parametrize("dmax", [0, 2, 3])
    def test_integer_rows_over_their_pivots_are_the_fields(self, dmax):
        for space in eigenspace_solve(dmax).eigenspaces.values():
            rows = list(space.integer_rows())
            assert len(rows) == space.dimension
            for (pivot, entries), F in zip(rows, space.fields()):
                assert pivot > 0 and pivot in entries.values()
                assert all(type(n) is int and n for n in entries.values())
                assert F == FrameField(*(canonicalize(Poly4(
                    {e: Rat(n, pivot) for (a, e), n in entries.items()
                     if a == slot})) for slot in range(3)))


class TestProjection:
    def test_recovers_eigenfield(self):
        u1 = FrameField(SphereScalar.zero(),
                        SphereScalar.coordinate(1),
                        -SphereScalar.coordinate(2))
        assert project_vector(u1, 3, 1) == u1
        assert project_vector(u1, -3, 1).is_zero()
        assert project_vector(u1, 2, 1).is_zero()

    def test_idempotent_and_orthogonal(self):
        rng = random.Random(83)
        F = rand_field(rng, 3, 2)
        dmax = field_dmax(F)
        p3 = project_vector(F, 3, dmax)
        assert project_vector(p3, 3, dmax) == p3
        p4 = project_vector(F, 4, dmax)
        assert p3.l2_inner(p4).is_zero()

    def test_gradient_component(self):
        s = rand_sphere_scalar(random.Random(89), 3)
        g = grad(s)
        dmax = field_dmax(g)
        assert project_vector(g, 0, dmax) == g
        assert project_vector(g, 2, dmax).is_zero()

    def test_float_field_raises_even_after_its_exact_twin(self):
        # Poly4 equality has 1 == 1.0, so the float field compares equal to
        # the exact field whose projections are kept.
        rng = random.Random(91)
        F = rand_field(rng, 2, 2)
        dmax = field_dmax(F)
        project_vector(F, 2, dmax)
        assert F.to_float() == F
        with pytest.raises(TypeError):
            project_vector(F.to_float(), 2, dmax)

    def test_latest_field_is_not_reused_for_another(self, monkeypatch):
        rng = random.Random(93)
        A, B = rand_field(rng, 2, 3), rand_field(rng, 2, 3)
        dmax = max(field_dmax(A), field_dmax(B))
        for mu in (0, 2, -2, 4):
            a_piece = project_vector(A, mu, dmax)
            b_piece = project_vector(B, mu, dmax)
            assert not b_piece.is_zero() and b_piece != a_piece
            monkeypatch.setattr(solver, "_latest", (None, None, {}))
            assert b_piece == project_vector(B, mu, dmax)


class TestFieldDmax:
    def test_values(self):
        z = SphereScalar.zero()
        one = SphereScalar.const(1)
        assert field_dmax(FrameField(one, z, z)) == 0
        quad = SphereScalar.coordinate(1) * SphereScalar.coordinate(2)
        assert field_dmax(FrameField(quad, z, z)) == 2

    def test_rejects_over_limit(self):
        z = SphereScalar.zero()
        big = Poly4.variable(1) ** 7
        F = FrameField(SphereScalar(big * Poly4.variable(1), Poly4.zero()), z, z)
        with pytest.raises(ValueError):
            field_dmax(F)

    def test_rejects_float_limit(self):
        with pytest.raises(ValueError):
            field_dmax(FrameField.zero(), 5.0)

    def test_rejects_bool_limit(self):
        with pytest.raises(ValueError):
            field_dmax(FrameField.zero(), True)


# sha256 of every collector row, items sorted, at dmax 0-5 (see
# _collector_digest); the dict-based Krylov passes gave the same rows.
COLLECTOR_DIGEST = ("def7131c30dd2acce022d1499cacb17b"
                    "683ed398d0ffd83aa8048d65d8e74a49")


def _collector_digest() -> str:
    h = hashlib.sha256()
    for dmax in range(6):
        for parity in (0, 1):
            _, collectors = _solved_block(dmax, parity)
            for mu, collector in collectors.items():
                h.update(repr((dmax, parity, mu, [
                    sorted(row.items()) for row in collector.rows.values()
                ])).encode())
    return h.hexdigest()


class TestSlabKernel:
    def test_eigenbases_are_pinned(self):
        # The exact rows; their term order is not part of the result.
        assert _collector_digest() == COLLECTOR_DIGEST

    def test_pieces_list_coordinates_in_increasing_order(self):
        for parity in (0, 1):
            block, _ = _solved_block(3, parity)
            slab = block.basis[-solver._SLAB_WIDTH:]
            pieces = [piece for out in block.slab_pieces(slab)
                      for piece in out.values()]
            assert all(list(piece) == sorted(piece) for piece in pieces)
            assert max(map(len, pieces)) > 10

    def test_promoted_pass_scales_exactly(self, monkeypatch):
        block, _ = _solved_block(2, 1)
        vec = block.basis[7]
        plain = block.slab_pieces([vec])[0]
        dtypes = []
        real_step = _Block._curl_step

        def recording(self, x, top):
            out = real_step(self, x, top)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(_Block, "_curl_step", recording)
        big = block.slab_pieces([{j: c << 61 for j, c in vec.items()}])[0]
        assert object in dtypes
        assert big == {mu: {j: c << 61 for j, c in piece.items()}
                       for mu, piece in plain.items()}
        assert all(type(c) is int for piece in big.values()
                   for c in piece.values())
        assert any(abs(c) >= 1 << 63 for piece in big.values()
                   for c in piece.values())

    def test_step_promotes_at_the_bound(self):
        block, _ = _solved_block(1, 1)
        bound = solver._INT64_SAFE
        for top, dtype in (((bound - 1) // block.row_bound, np.int64),
                           (-(-bound // block.row_bound), object)):
            x = np.zeros((2, block.coords.size + 1), dtype=np.int64)
            x[1, 3] = -top
            assert block._curl_step(x, top).dtype == dtype

    def test_slab_matches_single_vectors(self):
        block, _ = _solved_block(2, 0)
        vectors = block.basis[:5]
        assert block.slab_pieces(vectors) == [block.slab_pieces([v])[0]
                                               for v in vectors]


# ---------------------------------------------------------------------------
# Reference: rational Lagrange products and pivot-1 elimination


def _reference_insert(rows, vec):
    """Rational elimination with pivot-1 rows; returns the new row or None."""
    vec = dict(vec)
    while vec:
        p = max(vec)
        row = rows.get(p)
        if row is None:
            inv = Rat(1) / Rat(vec[p])
            rows[p] = {j: inv * c for j, c in vec.items()}
            return rows[p]
        a = vec[p]
        for j, c in row.items():
            s = vec.get(j, 0) - a * c
            if s == 0:
                vec.pop(j, None)
            else:
                vec[j] = s
    return None


def _reference_project(block, vec, mu):
    """prod_{nu != mu} (C - nu) / (mu - nu) applied in rational arithmetic."""
    out = dict(vec)
    for nu in block.spectrum:
        if nu == mu:
            continue
        image = {}
        for j, x in out.items():
            for i, c in block.curl_columns[j]:
                image[i] = image.get(i, 0) + c * x
            image[j] = image.get(j, 0) - nu * x
        out = {j: Rat(c) / (mu - nu) for j, c in image.items() if c != 0}
    return out


def _reference_eigenspaces(dmax, parity):
    block, _ = _solved_block(dmax, parity)
    basis_rows = {}
    basis = []
    for gen in (vec for d in range(1 - parity, dmax + 2, 2)
                for vec in block._degree_generators(d)):
        row = _reference_insert(basis_rows,
                                {j: Rat(c) for j, c in gen.items()})
        if row is not None:
            basis.append(row)
    collectors = {mu: {} for mu in block.spectrum}
    for b in basis:
        for mu in block.spectrum:
            piece = _reference_project(block, b, mu)
            if piece:
                _reference_insert(collectors[mu], piece)
    return block, collectors


class TestExactAgreement:
    @pytest.mark.parametrize("dmax", [0, 1, 2])
    def test_eigenvectors_match_rational_reference(self, dmax):
        result = eigenspace_solve(dmax)
        gradient_dimension = 0
        for parity in (0, 1):
            block, collectors = _reference_eigenspaces(dmax, parity)
            for mu, rows in collectors.items():
                if mu == 0:
                    gradient_dimension += len(rows)
                    continue
                expected = [block.coords.to_field(v) for v in rows.values()]
                assert result.eigenspaces[mu].fields() == expected
        assert result.gradient_dimension == gradient_dimension

    @pytest.mark.parametrize("dmax", [0, 1, 2])
    def test_projections_match_rational_reference(self, dmax):
        rng = random.Random(97 + dmax)
        F = rand_field(rng, dmax, 4).scale(Rat(5, 3))
        assert field_dmax(F) <= dmax
        assert any(c.denominator != 1 for s in F.f
                   for c in s.representative().terms.values())
        spectrum = [0] + [s * m for m in range(2, dmax + 3) for s in (1, -1)]
        for mu in spectrum:
            expected = FrameField.zero()
            for parity in (0, 1):
                block, _ = _solved_block(dmax, parity)
                if mu not in block.spectrum:
                    continue
                part = FrameField(*(
                    SphereScalar(c.even_part, Poly4.zero()) if parity == 0
                    else SphereScalar(Poly4.zero(), c.odd_part)
                    for c in F.f))
                vec = block.coords.to_vector(part)
                if vec:
                    expected = expected + block.coords.to_field(
                        _reference_project(block, vec, mu))
            assert project_vector(F, mu, dmax) == expected


class TestSpectrumChecks:
    def test_incomplete_spectrum_raises(self):
        block = _Block(1, 1)
        block.spectrum = [mu for mu in block.spectrum if abs(mu) != 3]
        with pytest.raises(SpectrumError):
            _Elimination(block.parity).view(block)

    def test_pieces_checks_a_projected_vector(self):
        # u = (0, x1, -x2) is a mu = 3 field of the odd block at order 1.
        u = FrameField(SphereScalar.zero(), SphereScalar.coordinate(1),
                       -SphereScalar.coordinate(2))
        block = _Block(1, 1)
        vec = {j: int(c) for j, c in block.coords.to_vector(u).items()}
        pieces = block.slab_pieces([vec])[0]
        # D_3 = (3 - 0)(3 + 3) over the block spectrum {0, 3, -3}.
        assert pieces[3] == {j: 18 * c for j, c in vec.items()}
        assert not any(piece for mu, piece in pieces.items() if mu != 3)
        block.spectrum = [mu for mu in block.spectrum if abs(mu) != 3]
        with pytest.raises(SpectrumError):
            block.slab_pieces([vec])

    def test_complete_spectrum_solves(self):
        block = _Block(1, 1)
        collectors = _Elimination(block.parity).view(block)
        assert {mu: c.rank for mu, c in collectors.items()} == \
            {0: 20, 3: 8, -3: 8}


# ---------------------------------------------------------------------------
# One elimination per parity: lower orders are prefixes, higher ones extend

# (trial dimension, gradient dimension) per order.
SOLVER_DIMS = {0: (19, 13), 1: (51, 29), 2: (106, 54), 3: (190, 90),
               4: (309, 139), 5: (469, 203)}


@pytest.fixture
def cold_solver(monkeypatch):
    """Empty solver caches, as in a fresh interpreter."""
    for cache in (solver._block, solver._elimination, solver._solved_block):
        cache.cache_clear()
    monkeypatch.setattr(solver, "_latest", (None, None, {}))


@pytest.fixture
def insert_calls(monkeypatch):
    """The vectors passed to _Echelon.insert from now on."""
    calls = []
    real_insert = solver._Echelon.insert

    def counting(echelon, vec):
        calls.append(vec)
        return real_insert(echelon, vec)

    monkeypatch.setattr(solver._Echelon, "insert", counting)
    return calls


class TestOrderIndependence:
    @pytest.mark.parametrize("orders", [(5, 0, 1, 2, 3, 4),
                                        (0, 1, 2, 3, 4, 5), (3, 4)])
    def test_request_order_keeps_the_pinned_rows(self, cold_solver, orders):
        for d in orders:
            result = eigenspace_solve(d)
            assert (result.trial_dimension,
                    result.gradient_dimension) == SOLVER_DIMS[d]
        assert _collector_digest() == COLLECTOR_DIGEST
        for d, dims in SOLVER_DIMS.items():
            result = eigenspace_solve(d)
            assert (result.trial_dimension, result.gradient_dimension) == dims

    def test_lower_orders_are_views(self, cold_solver, insert_calls):
        eigenspace_solve(5)
        assert insert_calls
        insert_calls.clear()
        for d in range(5):
            eigenspace_solve(d)
        assert not insert_calls

    def test_identical_blocks_add_no_work(self, cold_solver, insert_calls,
                                          monkeypatch):
        eigenspace_solve(3)
        insert_calls.clear()
        steps = []
        real_step = _Block._curl_step

        def recording(block, x, top):
            steps.append(block)
            return real_step(block, x, top)

        monkeypatch.setattr(_Block, "_curl_step", recording)
        _solved_block(4, 1)
        assert not insert_calls and not steps

    def test_basis_is_a_prefix(self, cold_solver):
        top = _solved_block(5, 1)[0].basis
        n_top = len(_solved_block(5, 1)[0].coords.monomials)
        for d in range(5):
            block, _ = _solved_block(d, 1)
            n = len(block.coords.monomials)
            assert [{(j // n_top) * n + j % n_top: c for j, c in row.items()}
                    for row in top[:len(block.basis)]] == block.basis

    def test_mutated_view_raises(self, cold_solver):
        eigenspace_solve(5)
        block = _Block(3, 0)
        assert solver._elimination(0).view(block).keys() == \
            _solved_block(3, 0)[1].keys()
        block.spectrum = tuple(mu for mu in block.spectrum if abs(mu) != 4)
        with pytest.raises(SpectrumError):
            solver._elimination(0).view(block)

    def test_projections_and_pairings_run_no_elimination(
            self, cold_solver, insert_calls, monkeypatch):
        from beltrami.atlas import eigen_decompose, explicit_basis
        F = (explicit_basis(2).fields[0] + explicit_basis(3).fields[0]
             + explicit_basis(-5).fields[2]).scale(Rat(2, 3))
        dmax = field_dmax(F)

        def values():
            monkeypatch.setattr(solver, "_latest", (None, None, {}))
            return (eigen_decompose(F).components,
                    project_vector(F, -5, dmax),
                    solver.helicity_pairing(F, dmax))

        cold = values()
        assert not insert_calls
        eigenspace_solve(dmax)
        assert insert_calls
        assert values() == cold


def _cold_state():
    """Every order's dimensions and both parities' prefixes and fallbacks
    after one cold order-5 build."""
    for cache in (solver._block, solver._elimination, solver._solved_block):
        cache.cache_clear()
    eigenspace_solve(5)
    dims = {d: (r.trial_dimension, r.gradient_dimension,
                {mu: s.dimension for mu, s in r.eigenspaces.items()})
            for d in range(6) for r in [eigenspace_solve(d)]}
    eliminations = [solver._elimination(p) for p in (0, 1)]
    return (dims, [e.prefixes for e in eliminations],
            [e.fallbacks for e in eliminations])


class TestDependentWork:
    """Generators that close a relation and collectors that are complete
    are kept out of the eliminations, with the same rows."""

    @pytest.mark.parametrize("hold", [
        lambda collectors: set(collectors),
        lambda collectors: {0}], ids=["every-collector", "gradient"])
    def test_forced_fallback_keeps_the_rows(self, cold_solver, monkeypatch,
                                            hold):
        dims, prefixes, fallbacks = _cold_state()
        assert fallbacks == [[], []]
        monkeypatch.setattr(solver, "_held", hold)
        forced_dims, forced_prefixes, forced_fallbacks = _cold_state()
        # Holding a growing collector makes every degree step fall short.
        assert forced_fallbacks == [sorted(p) for p in prefixes]
        assert forced_dims == dims
        assert forced_prefixes == prefixes
        assert _collector_digest() == COLLECTOR_DIGEST

    def test_skipped_generators_are_dependent(self, cold_solver):
        eigenspace_solve(5)
        skipped = 0
        for parity in (0, 1):
            block = _solved_block(5, parity)[0]
            echelon = solver._elimination(parity).generators
            rows = {p: dict(row) for p, row in echelon.rows.items()}
            for degree in range(1 - parity, block.top_degree + 1, 2):
                kept = set(solver._open_generators(degree))
                for e in solver._monomials(degree):
                    for a in range(4):
                        if (e, a) not in kept:
                            skipped += 1
                            assert echelon.insert(
                                block._generator(e, a)) is None
            assert echelon.rows == rows
        assert skipped == 336

    @pytest.mark.parametrize("degree", range(7))
    def test_relations_hold_exactly(self, degree):
        # The radial identity sum_b proj(x^(f + d_b) e_b) = 0 and the sphere
        # identity sum_c proj(x^(g + 2 d_c) e_a) = proj(x^g e_a).
        block = _Block(5, (degree + 1) % 2)

        def total(generators):
            out = collections.Counter()
            for vec in generators:
                out.update(vec)
            return {j: c for j, c in out.items() if c}

        def raised(f, b, k):
            return f[:b] + (f[b] + k,) + f[b + 1:]

        for f in solver._monomials(degree - 1) if degree else ():
            assert total(block._generator(raised(f, b, 1), b)
                         for b in range(4)) == {}
        for g in solver._monomials(degree - 2) if degree > 1 else ():
            for a in range(4):
                assert total(block._generator(raised(g, c, 2), a)
                             for c in range(4)) == block._generator(g, a)

    def test_insert_modifies_neither_its_argument_nor_a_row(self):
        echelon = solver._Echelon()
        echelon.insert({0: 1, 3: 2})
        echelon.insert({1: 1, 2: 3})
        rows = {p: dict(row) for p, row in echelon.rows.items()}
        # Pivot 3: 2 v - 3 row; pivot 2: 3 v - 4 row; a new row at 1.
        vec = {0: 5, 1: 7, 2: 2, 3: 3}
        row = echelon.insert(vec)
        assert row == {0: 21, 1: 38} and row is not vec
        assert vec == {0: 5, 1: 7, 2: 2, 3: 3}
        # row_3 / 2 + row_2 / 3 + 5 row_1 / 6: scaled by 2 at pivot 3 (the
        # copy), by 3 at pivot 2 (in place), then reduced to zero.
        dependent = {0: 18, 1: 32, 2: 1, 3: 1}
        assert echelon.insert(dependent) is None
        assert dependent == {0: 18, 1: 32, 2: 1, 3: 1}
        assert {p: r for p, r in echelon.rows.items() if p != 1} == rows

    def test_order_six_has_no_fallback(self, cold_solver):
        result = eigenspace_solve(6, limit=6)
        for k in range(7):
            assert result.dimension(k + 2) == (k + 1) * (k + 3)
            assert result.dimension(-(k + 2)) == (k + 1) * (k + 3)
        assert [solver._elimination(p).fallbacks for p in (0, 1)] == [[], []]


class TestEntryOrder:
    U = FrameField(SphereScalar.zero(), SphereScalar.coordinate(1),
                   -SphereScalar.coordinate(2))  # a mu = 3 field

    @pytest.mark.parametrize("dmax", [True, -1, 2.5])
    def test_projection_rejects_the_order(self, dmax):
        project_vector(self.U, 3, 1)
        with pytest.raises(ValueError, match=f"dmax .*{dmax!r}"):
            project_vector(self.U, 3, dmax)

    @pytest.mark.parametrize("dmax", [True, -1, 2.5])
    def test_pairing_rejects_the_order(self, dmax):
        with pytest.raises(ValueError, match=f"dmax .*{dmax!r}"):
            solver.helicity_pairing(self.U, dmax)

    def test_orders_above_the_default_limit_are_accepted(self):
        assert solver.DEFAULT_DMAX_LIMIT < 6
        assert project_vector(self.U, 3, 6) == self.U
        assert solver.helicity_pairing(self.U, 6) == \
            solver.helicity_pairing(self.U, 1)


# ---------------------------------------------------------------------------
# The order of a field: the lowest order whose exact check accepts each part


@pytest.fixture
def steps(monkeypatch):
    """Curl steps per block from now on, with the latest field forgotten."""
    monkeypatch.setattr(solver, "_latest", (None, None, {}))
    counts = collections.Counter()
    real_step = _Block._curl_step

    def counting(block, x, top):
        counts[block] += 1
        return real_step(block, x, top)

    monkeypatch.setattr(_Block, "_curl_step", counting)
    return counts


def _one_pass_per_parity(counts) -> bool:
    """One Krylov pass, |S| steps, on one block of each parity."""
    return (sorted(block.parity for block in counts) == [0, 1]
            and all(n == len(block.spectrum) for block, n in counts.items()))


class TestFieldOrder:
    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_atlas_fields_take_order_abs_mu_minus_two(self, mu):
        # E_{+m} has coefficient degree m - 2 and E_{-m} degree m.
        for F in explicit_basis(mu).fields:
            assert F.coefficient_degree() == abs(mu) - 2 + 2 * (mu < 0)
            assert field_dmax(F) == abs(mu) - 2

    def test_order_seven_fields(self):
        result = eigenspace_solve(5)
        plus, minus = (result.eigenspaces[mu].fields()[0] for mu in (7, -7))
        assert plus.coefficient_degree() == 5 and field_dmax(plus) == 5
        assert minus.coefficient_degree() == 7
        assert field_dmax(minus) == solver.DEFAULT_DMAX_LIMIT == 5
        assert project_vector(minus, -7, 5) == minus
        with pytest.raises(ValueError, match="coefficient degree 7"):
            field_dmax(minus, 4)
        with pytest.raises(ValueError, match="beyond the configured"):
            field_dmax(plus, 4)

    def test_refuses_a_high_degree_before_any_block(self, cold_solver,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(solver, "_Block", refuse)
        F = FrameField(SphereScalar(Poly4.variable(1) ** 8, Poly4.zero()),
                       SphereScalar.zero(), SphereScalar.zero())
        with pytest.raises(ValueError, match="coefficient degree 8"):
            field_dmax(F)

    def test_decompose_field_takes_one_pass_per_block(self, steps):
        F = (explicit_basis(2).fields[0] + explicit_basis(3).fields[0]
             + explicit_basis(-5).fields[2])
        components = eigen_decompose(F).components
        assert sorted(components) == [-5, 2, 3]
        assert field_dmax(F) == 3 and project_vector(F, -5, 5) == \
            explicit_basis(-5).fields[2]
        assert _one_pass_per_parity(steps)

    def test_helicity_combination_takes_one_pass_per_block(self, steps):
        rng = random.Random(811)
        F = FrameField.zero()
        for mu in SUPPORTED_EXPLICIT:
            for field in explicit_basis(mu).fields:
                F = F + field.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
        h = helicity(F)
        assert field_dmax(F) == 3
        assert solver.helicity_pairing(F, 3) == h
        assert _one_pass_per_parity(steps)

    def test_a_part_that_needs_its_degree(self, steps):
        # A random field of degree 3 has an E_{+5} part, outside order 1.
        # The rejected pass's Krylov powers are re-keyed into the higher
        # order, which adds only the steps its larger spectrum needs.
        F = rand_field(random.Random(821), 3, 4)
        components = eigen_decompose(F).components
        assert field_dmax(F) == 3 and 5 in components
        for parity in (0, 1):
            blocks = sorted((b for b in steps if b.parity == parity),
                            key=lambda b: b.coords.size)
            assert len(blocks) == 2
            assert sum(steps[b] for b in blocks) == len(blocks[1].spectrum)
        for mu, piece in components.items():
            assert curl(piece) == piece.scale(mu)
