"""Eigenvalues of symmetric-definite generalized pencils, in numpy alone.

eigvalsh_diagonal solves every curl pencil, on S^3, RP^3 and T^3: in an
orthonormal trial basis A is diagonal with an exactly zero trailing block
(the gradients; none on T^3).  It takes one Cholesky factor of B and one
symmetric eigensolve of the reciprocal pencil, with no inverse and no
Schur-complement solve.
"""

from __future__ import annotations

import numpy as np


def inverse_cholesky(b: np.ndarray) -> np.ndarray:
    """The inverse W of the lower Cholesky factor of b, so W b W^T = I.

    W is lower triangular exactly (the residues a pivoted inverse leaves
    above the diagonal are dropped).  b must be symmetric positive
    definite; otherwise numpy.linalg.LinAlgError is raised.
    """
    return np.tril(np.linalg.inv(np.linalg.cholesky(b)))


def checked_diagonal(a: np.ndarray, zeros: int) -> np.ndarray:
    """The diagonal mu of a = diag(mu), zero exactly on its last `zeros`
    entries and nonzero on the others; RuntimeError for any other a."""
    mu = np.diag(a)
    count = mu.size - zeros
    if np.count_nonzero(a) != np.count_nonzero(mu):
        raise RuntimeError("the curl matrix has an off-diagonal entry")
    if np.any(mu[count:]):
        raise RuntimeError("the curl matrix is nonzero on the gradient "
                           f"block of dimension {zeros}")
    if not np.all(mu[:count]):
        raise RuntimeError("the curl matrix has a zero on the eigenfield "
                           "diagonal")
    return mu


class CheckedCurl:
    """A curl matrix a that passed checked_diagonal, and its diagonal mu."""

    def __init__(self, a: np.ndarray, zeros: int):
        self.a, self.zeros = a, zeros
        self.mu = checked_diagonal(a, zeros).copy()


def eigvalsh_diagonal(a: np.ndarray | CheckedCurl, b: np.ndarray,
                      zeros: int) -> np.ndarray:
    """Eigenvalues, ascending, of diag(mu) c = lambda B c.

    a (a matrix or its CheckedCurl) must pass checked_diagonal with zeros,
    and a B not symmetric positive definite raises numpy.linalg.LinAlgError.

    The zero block g gives `zeros` exact zero eigenvalues.  The others are
    the eigenvalues of D c = lambda S c on the leading block e, where
    D = diag(mu_e) and S = B_ee - B_eg B_gg^-1 B_ge.  The Cholesky factor
    of B with its rows and columns reversed holds, in its trailing corner,
    a triangular U with S = U U^T (reversed), and the reciprocals
    nu = 1 / lambda are the eigenvalues of the symmetric U^T D^-1 U.
    No square root of mu is taken, so mu may have either sign.
    """
    curl = a if isinstance(a, CheckedCurl) else CheckedCurl(a, zeros)
    if curl.zeros != zeros:
        raise ValueError(f"a was checked with {curl.zeros} zeros, not {zeros}")
    corner = np.linalg.cholesky(b[::-1, ::-1])[zeros:, zeros:]
    reciprocal = corner.T @ (corner / curl.mu[::-1][zeros:, None])
    return np.sort(np.concatenate([np.zeros(zeros),
                                   1.0 / np.linalg.eigvalsh(reciprocal)]))
