"""Tests for the explicit eigenspace catalogue and exact spectral tools."""

from __future__ import annotations

import json
import random

import pytest

from beltrami.atlas import (
    NotExactFieldError,
    SUPPORTED_EXPLICIT,
    UnsupportedEigenvalueError,
    anti_hopf_frame,
    atlas_export,
    curl_inverse,
    eigen_decompose,
    explicit_basis,
    helicity,
    inverse_laplacian,
    project_eigen,
)
from beltrami.exactpoly import ExactScalar, Rat, SphereScalar, parse_exact
from beltrami.frames import (FrameField, curl, divergence, grad, hopf_frame,
                             laplace_beltrami)
from beltrami import atlas_table, frames, solver
from atlas_oracle import TABLE_EIGENVALUES, derived_entry, table_text
from conftest import rand_sphere_scalar


def pi2(c) -> ExactScalar:
    """The exact value c * pi^2 for a rational c."""
    return ExactScalar({2: Rat(c)})


# Expected exact squared norms of the stored (denominator-cleared) bases.
EXPECTED_NORMS = {
    2: [pi2(2)] * 3,
    3: [pi2(1)] * 4 + [pi2(3)] * 4,
    4: ([pi2("2/3")] * 4 + [pi2("1/3")] * 3
        + [pi2("28/3"), pi2(4), pi2(28), pi2("7/3"), pi2(28),
           pi2("1/3"), pi2("4/3"), pi2("4/3")]),
    5: ([pi2("1/6"), pi2("1/2"), pi2("1/2"), pi2("1/6"),
         pi2("1/6"), pi2("1/2"), pi2("1/6"), pi2("1/2"),
         pi2("15/32")]
        + [pi2("5/32")] * 4
        + [pi2("15/32")] * 3
        + [pi2("5/36"), pi2("5/12"), pi2("5/36"), pi2("5/36"),
           pi2("5/12"), pi2("5/12"), pi2("5/36"), pi2("5/12")]),
}


class TestExplicitBases:
    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_eigen_equation_and_divergence(self, mu):
        entry = explicit_basis(mu)
        for F in entry.fields:
            assert curl(F) == F.scale(mu)
            assert divergence(F).is_zero()

    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_dimension(self, mu):
        k = abs(mu) - 2
        assert explicit_basis(mu).dimension == (k + 1) * (k + 3)

    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_squared_norms(self, mu):
        entry = explicit_basis(mu)
        assert entry.squared_norms == EXPECTED_NORMS[abs(mu)]

    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_kept_norms_are_the_integrals(self, mu):
        # Reflected entries take their norms from the positive entry and the
        # eigenvalue 5 entry from its Gram-Schmidt; both equal the integrals.
        entry = explicit_basis(mu)
        assert entry.squared_norms == [f.l2_inner(f) for f in entry.fields]

    @pytest.mark.parametrize("mu", SUPPORTED_EXPLICIT)
    def test_gram_diagonal(self, mu):
        # Pairwise exact orthogonality; this pins down the one recursive
        # tail coefficient that the basis relations force to be 8/48.
        fields = explicit_basis(mu).fields
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert fields[i].l2_inner(fields[j]).is_zero()

    def test_anti_hopf_frame(self):
        for F in anti_hopf_frame():
            assert curl(F) == F.scale(-2)
        b1, b2, b3 = anti_hopf_frame()
        assert b1.dot(b2).is_zero()
        assert b1.norm_sq() == SphereScalar.const(1)

    def test_unsupported_eigenvalue(self):
        with pytest.raises(UnsupportedEigenvalueError):
            explicit_basis(6)
        with pytest.raises(UnsupportedEigenvalueError):
            explicit_basis(0)

    def test_orthonormal_float_fields(self):
        entry = explicit_basis(3)
        for F in entry.orthonormal_float_fields():
            assert float(F.l2_inner(F)) == pytest.approx(1.0, rel=1e-12)


def _terms(field: FrameField) -> list:
    """The terms of each parity part of each frame slot, in term order."""
    return [(list(c.even_part.terms.items()), list(c.odd_part.terms.items()))
            for c in field.f]


class TestTable:
    @pytest.mark.parametrize("mu", TABLE_EIGENVALUES)
    def test_entry_is_its_derivation(self, mu):
        # Gram-Schmidt for eigenvalue 5, the reflection for -2..-5: the
        # same fields in the same term order, the same norms and label.
        label, fields, norms = derived_entry(mu)
        entry = explicit_basis(mu)
        assert entry.label == label
        assert entry.squared_norms == norms
        assert [_terms(f) for f in entry.fields] == [_terms(f) for f in fields]

    def test_module_is_the_oracle_output(self):
        with open(atlas_table.__file__, encoding="utf-8") as handle:
            assert handle.read() == table_text()

    def test_builds_without_a_derivation(self, monkeypatch):
        # No pushforward and no Gram-Schmidt coefficient; a pushforward
        # bound under another name still needs cartesian_components.
        def refuse(*args):
            raise AssertionError("a table entry was derived")

        monkeypatch.setattr(frames, "isometry_pushforward", refuse)
        monkeypatch.setattr(FrameField, "cartesian_components", refuse)
        monkeypatch.setattr(ExactScalar, "as_rational", refuse)
        explicit_basis.cache_clear()
        try:
            for mu in SUPPORTED_EXPLICIT:
                assert explicit_basis(mu).dimension == (abs(mu) - 1) * (
                    abs(mu) + 1)
        finally:
            explicit_basis.cache_clear()


def sample_exact_field() -> FrameField:
    """A fixed combination of eigenfields across four eigenvalues."""
    B1, _, _ = hopf_frame()
    u = explicit_basis(3).fields[4]
    v = explicit_basis(4).fields[7]
    wneg = explicit_basis(-5).fields[16]
    return B1.scale(2) + u + v.scale(Rat(1, 3)) + wneg.scale(5)


class TestEigenDecompose:
    def test_components_sum_and_project(self):
        F = sample_exact_field()
        decomposition = eigen_decompose(F)
        assert sorted(decomposition.components) == [-5, 2, 3, 4]
        assert sum(decomposition.components.values(), FrameField.zero()) == F
        B1, _, _ = hopf_frame()
        assert decomposition.component(2) == B1.scale(2)
        assert decomposition.component(-3).is_zero()
        assert project_eigen(F, 3) == explicit_basis(3).fields[4]

    def test_one_krylov_pass_per_parity_block(self, monkeypatch):
        # A pass of |S| + 1 Krylov powers takes |S| curl steps per block.
        F = sample_exact_field()
        eigen_decompose(F)
        dmax = solver.field_dmax(F)
        monkeypatch.setattr(solver, "_latest", (None, None, {}))
        calls = []
        real_step = solver._Block._curl_step

        def counting(block, x, top):
            calls.append(block)
            return real_step(block, x, top)

        monkeypatch.setattr(solver._Block, "_curl_step", counting)
        eigen_decompose(F)
        blocks = [solver._block(dmax, p) for p in (0, 1)]
        for block in blocks:
            assert sum(b is block for b in calls) == len(block.spectrum)
        assert len(calls) == sum(len(block.spectrum) for block in blocks)

    def test_goes_through_project_vector(self, monkeypatch):
        # The benchmark's trace counts these calls as solver.project_calls.
        calls = []
        real_project = solver.project_vector

        def counting(field, mu, dmax):
            calls.append(mu)
            return real_project(field, mu, dmax)

        monkeypatch.setattr(solver, "project_vector", counting)
        eigen_decompose(sample_exact_field())
        dmax = solver.field_dmax(sample_exact_field())
        assert sorted(calls) == sorted(
            [0] + [s * m for m in range(2, dmax + 3) for s in (1, -1)])

    def test_gradient_part_detected(self):
        s = rand_sphere_scalar(random.Random(97), 3)
        F = sample_exact_field() + grad(s)
        decomposition = eigen_decompose(F)
        assert not decomposition.component(0).is_zero()


class TestHelicity:
    def test_hopf_field(self):
        B1, _, _ = hopf_frame()
        assert helicity(B1) == pi2(1)

    def test_linear_combination(self):
        # H(F) = sum over eigenvalues of |P_mu F|^2 / mu.
        F = sample_exact_field()
        expected = (pi2(2 * 4) / Rat(2) + pi2(3) / Rat(3)
                    + pi2("28/27") / Rat(4) - pi2("5/36") * Rat(25) / Rat(5))
        assert helicity(F) == expected

    def test_rejects_gradient_part(self):
        B1, _, _ = hopf_frame()
        with pytest.raises(NotExactFieldError):
            helicity(B1 + grad(SphereScalar.coordinate(1)))


class TestCurlInverse:
    def test_inverts_curl(self):
        F = sample_exact_field()
        A = curl_inverse(F)
        assert curl(A) == F
        assert curl_inverse(curl(F)) == F

    def test_rejects_gradient_part(self):
        with pytest.raises(NotExactFieldError):
            curl_inverse(grad(SphereScalar.coordinate(2)))


class TestExactFieldsOnly:
    def test_rejects_hopf_plus_gradient(self):
        # Divergence-carrying: rejected from the mu = 0 part alone.
        B1, _, _ = hopf_frame()
        F = B1 + grad(SphereScalar.coordinate(1) * SphereScalar.coordinate(2))
        assert not divergence(F).is_zero()
        with pytest.raises(NotExactFieldError):
            helicity(F)
        with pytest.raises(NotExactFieldError):
            curl_inverse(F)


class TestInverseLaplacian:
    @pytest.mark.parametrize("degree", range(8))
    def test_exact_inverse_away_from_the_mean(self, degree):
        rng = random.Random(300 + degree)
        for _ in range(3):
            s = rand_sphere_scalar(rng, degree, n_terms=8)
            phi = inverse_laplacian(s)
            mean = s.integral().terms.get(2, Rat(0)) / 2
            assert laplace_beltrami(phi) == s - SphereScalar.const(mean)
            assert phi.integral().is_zero()

    def test_float_scalars(self):
        rng = random.Random(311)
        for degree in range(1, 8):
            s = rand_sphere_scalar(rng, degree, n_terms=8)
            phi = inverse_laplacian(s.to_float())
            terms = (phi - inverse_laplacian(s).to_float()).representative()
            scale = max(abs(float(c))
                        for c in s.representative().terms.values())
            assert all(isinstance(c, float)
                       for c in phi.representative().terms.values())
            assert all(abs(c) <= 1e-12 * scale for c in terms.terms.values())


class TestExport:
    def test_round_trip_norms(self):
        payload = json.loads(atlas_export())
        assert {entry["eigenvalue"] for entry in payload} == set(SUPPORTED_EXPLICIT)
        for entry in payload:
            assert len(entry["fields"]) == entry["dimension"]
            for field in entry["fields"]:
                norm = parse_exact(field["squared_norm"])
                assert not norm.is_zero()
