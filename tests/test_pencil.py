"""Tests for the symmetric-definite pencil kernels."""

from __future__ import annotations

import numpy as np
import pytest

from beltrami.pencil import CheckedCurl, eigvalsh_diagonal, inverse_cholesky
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
        a = np.diag(np.concatenate([mu, np.zeros(zeros)]))
        b = random_spd(rng, count + zeros)
        reference = cholesky_reduction(a, b)
        small = np.abs(reference) < 1e-8
        assert np.sum(small) == zeros
        spectrum = eigvalsh_diagonal(a, b, zeros)
        assert np.all(np.diff(spectrum) >= 0)
        assert np.sum(spectrum == 0.0) == zeros
        np.testing.assert_allclose(spectrum[spectrum != 0.0],
                                   reference[~small], rtol=1e-9)

    def test_identity_mass_returns_the_diagonal(self):
        # 1 / (1 / mu) == mu holds for every integer |mu| < 49.
        mu = np.array([3.0, -2.0, 5.0, 2.0, -7.0, 4.0, -3.0, 0.0, 0.0])
        spectrum = eigvalsh_diagonal(np.diag(mu), np.eye(mu.size), 2)
        assert np.array_equal(spectrum, np.sort(mu))
        assert spectrum[spectrum > 0][0] == 2.0

    def test_only_zeros(self):
        spectrum = eigvalsh_diagonal(np.zeros((3, 3)),
                                     random_spd(np.random.default_rng(4), 3),
                                     3)
        assert np.array_equal(spectrum, np.zeros(3))

    def test_checked_curl_gives_the_same_spectrum(self):
        rng = np.random.default_rng(5)
        a = np.diag([3.0, -2.0, 5.0, 0.0, 0.0])
        b = random_spd(rng, 5)
        curl = CheckedCurl(a, 2)
        assert np.array_equal(eigvalsh_diagonal(curl, b, 2),
                              eigvalsh_diagonal(a, b, 2))
        with pytest.raises(ValueError, match="checked with 2 zeros"):
            eigvalsh_diagonal(curl, b, 1)

    @pytest.mark.parametrize("entry,match", [
        ((0, 1), "off-diagonal"),
        ((3, 3), "gradient block"),
        ((1, 1), "zero on the eigenfield diagonal"),
    ])
    def test_malformed_curl_matrix_raises(self, entry, match):
        a = np.diag([2.0, 3.0, -2.0, 0.0, 0.0])
        a[entry] = 0.0 if entry == (1, 1) else 1e-3
        with pytest.raises(RuntimeError, match=match):
            eigvalsh_diagonal(a, np.eye(5), 2)
