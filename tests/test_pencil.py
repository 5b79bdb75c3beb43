"""Tests for the symmetric-definite pencil kernels."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from beltrami.pencil import (checked_diagonal, eigvalsh_diagonal,
                             inverse_cholesky)
from conftest import cholesky_reduction


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal((n, n))
    return x @ x.T / n + 0.5 * np.eye(n)


class TestInverseCholesky:
    def test_whitens(self):
        b = random_spd(np.random.default_rng(1), 9)
        w = inverse_cholesky(b)
        np.testing.assert_allclose(w @ b @ w.T, np.eye(9), atol=1e-12)

    def test_is_lower_triangular_exactly(self):
        # The Cholesky factor of this matrix has entries below the diagonal
        # larger than the diagonal, so a pivoted inverse of it leaves
        # residues of order 1e-16 above the diagonal.
        x = np.random.default_rng(1).standard_normal((30, 30))
        b = x @ x.T + 1e-3 * np.eye(30)
        w = inverse_cholesky(b)
        assert not np.any(np.triu(w, 1))
        np.testing.assert_allclose(w @ np.linalg.cholesky(b), np.eye(30),
                                   atol=1e-12)

    def test_indefinite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            inverse_cholesky(np.diag([1.0, -1.0]))


class TestDiagonalPencil:
    @pytest.mark.parametrize("zeros", [0, 1, 5])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_whole_pencil_reduction(self, zeros, seed):
        # Reference: Cholesky reduction of the whole pencil, where the
        # zero block's eigenvalues appear only up to rounding.
        rng = np.random.default_rng(seed)
        count = 11
        mu = rng.choice((-1, 1), count) * rng.uniform(0.5, 7.0, count)
        diagonal = np.concatenate([mu, np.zeros(zeros)])
        b = random_spd(rng, count + zeros)
        reference = cholesky_reduction(np.diag(diagonal), b)
        small = np.abs(reference) < 1e-8
        assert np.sum(small) == zeros
        spectrum = eigvalsh_diagonal(diagonal, b, zeros)
        assert np.all(np.diff(spectrum) >= 0)
        assert np.sum(spectrum == 0.0) == zeros
        np.testing.assert_allclose(spectrum[spectrum != 0.0],
                                   reference[~small], rtol=1e-9)

    def test_identity_mass_returns_the_diagonal(self):
        # 1 / (1 / mu) == mu holds for every integer |mu| < 49.
        mu = np.array([3.0, -2.0, 5.0, 2.0, -7.0, 4.0, -3.0, 0.0, 0.0])
        spectrum = eigvalsh_diagonal(mu, np.eye(mu.size), 2)
        assert np.array_equal(spectrum, np.sort(mu))
        assert spectrum[spectrum > 0][0] == 2.0

    def test_only_zeros(self):
        spectrum = eigvalsh_diagonal(np.zeros(3),
                                     random_spd(np.random.default_rng(4), 3),
                                     3)
        assert np.array_equal(spectrum, np.zeros(3))

    @pytest.mark.parametrize("entry,match", [
        ((0, 1), "not a vector"),
        ((3, 3), "gradient block"),
        ((1, 1), "zero on the eigenfield diagonal"),
    ])
    def test_malformed_curl_matrix_raises(self, entry, match):
        # The off-diagonal case passes the coupled matrix itself: a pencil
        # carries only the diagonal of its curl matrix.
        a = np.diag([2.0, 3.0, -2.0, 0.0, 0.0])
        a[entry] = 0.0 if entry == (1, 1) else 1e-3
        mu = a if entry == (0, 1) else np.diag(a).copy()
        with pytest.raises(RuntimeError, match=match):
            eigvalsh_diagonal(mu, np.eye(5), 2)
        with pytest.raises(RuntimeError, match=match):
            checked_diagonal(mu, 2)

    @pytest.mark.parametrize("zeros", [True, False, 1.0, "1", None, -1, 4])
    def test_rejects_a_zero_count_out_of_range(self, zeros):
        # A count above len(mu) must not pad the spectrum with extra zeros.
        mu = np.array([1.0, 2.0, 0.0])
        for entry in (lambda: checked_diagonal(mu, zeros),
                      lambda: eigvalsh_diagonal(mu, np.eye(3), zeros)):
            with pytest.raises(ValueError, match=f"got {zeros!r}"):
                entry()

    @pytest.mark.parametrize("mu,b", [
        (np.array([2.0, 0.0]), np.eye(3)),
        (np.array([2.0, 3.0, 0.0]), np.eye(2)),
        (np.array([2.0, 3.0, 0.0]), np.eye(3)[:, :2]),
        (np.array([2.0, 3.0, 0.0]), np.ones(3)),
    ])
    def test_rejects_a_mass_matrix_of_another_order(self, monkeypatch, mu,
                                                    b):
        # [2, 0] against I_3 used to give three eigenvalues, the corner of b
        # broadcasting against the one nonzero entry.
        def refuse(*args):
            raise AssertionError("a mismatched pencil reached LAPACK")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(ValueError, match=re.escape(
                f"mass matrix {b.shape} does not match the curl diagonal "
                f"{mu.shape}")):
            eigvalsh_diagonal(mu, b, 1)

    def test_check_forms_no_matrix(self):
        # The check reads the vector alone: its allocations stay far below
        # one n x n float matrix (8 MB here).
        n = 1000
        mu = np.concatenate([np.arange(1.0, n - 99.0), np.zeros(100)])
        tracemalloc.start()
        try:
            assert checked_diagonal(mu, 100) is mu
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8
