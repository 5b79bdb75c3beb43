"""Eigenvalues of symmetric-definite generalized pencils, in numpy alone.

eigvalsh_diagonal solves every curl pencil, on S^3, RP^3 and T^3: in an
orthonormal trial basis A = diag(mu) with an exactly zero trailing block
(the gradients; none on T^3), so a pencil carries mu alone.  It takes one
Cholesky factor of B and one symmetric eigensolve of the reciprocal pencil,
with no inverse and no Schur-complement solve.
"""

from __future__ import annotations

import numpy as np

from beltrami.exactpoly import check_int


def inverse_cholesky(b: np.ndarray) -> np.ndarray:
    """The inverse W of the lower Cholesky factor of b, so W b W^T = I.

    W is lower triangular exactly (the residues a pivoted inverse leaves
    above the diagonal are dropped).  b must be symmetric positive
    definite; otherwise numpy.linalg.LinAlgError is raised.
    """
    return np.tril(np.linalg.inv(np.linalg.cholesky(b)))


def checked_diagonal(mu: np.ndarray, zeros: int) -> np.ndarray:
    """mu, if it is a vector zero exactly on its last `zeros` entries and
    nonzero on the others, in O(len(mu)); RuntimeError for any other mu,
    and ValueError for a zeros that is not an int from 0 to len(mu)."""
    if np.ndim(mu) != 1:
        raise RuntimeError(f"the curl diagonal {np.shape(mu)} is not a vector")
    check_int(zeros, "zeros", 0, len(mu))
    count = len(mu) - zeros
    if np.any(mu[count:]):
        raise RuntimeError("the curl matrix is nonzero on the gradient "
                           f"block of dimension {zeros}")
    if not np.all(mu[:count]):
        raise RuntimeError("the curl matrix has a zero on the eigenfield "
                           "diagonal")
    return mu


def check_mass(mu: np.ndarray, b: np.ndarray) -> None:
    """ValueError, naming both shapes, unless b is len(mu) x len(mu)."""
    if np.shape(b) != (len(mu),) * 2:
        raise ValueError(f"the mass matrix {np.shape(b)} does not match the "
                         f"curl diagonal {np.shape(mu)}")


def eigvalsh_diagonal(mu: np.ndarray, b: np.ndarray,
                      zeros: int) -> np.ndarray:
    """Eigenvalues, ascending, of diag(mu) c = lambda B c.

    mu must pass checked_diagonal with zeros and B check_mass, both on
    every call before any factorization, and a B not symmetric positive
    definite raises numpy.linalg.LinAlgError.

    The zero block g gives `zeros` exact zero eigenvalues.  The others are
    the eigenvalues of D c = lambda S c on the leading block e, where
    D = diag(mu_e) and S = B_ee - B_eg B_gg^-1 B_ge.  The Cholesky factor
    of B with its rows and columns reversed holds, in its trailing corner,
    a triangular U with S = U U^T (reversed), and the reciprocals
    nu = 1 / lambda are the eigenvalues of the symmetric U^T D^-1 U.
    No square root of mu is taken, so mu may have either sign.
    """
    checked_diagonal(mu, zeros)
    check_mass(mu, b)
    corner = np.linalg.cholesky(b[::-1, ::-1])[zeros:, zeros:]
    reciprocal = corner.T @ (corner / mu[::-1][zeros:, None])
    return np.sort(np.concatenate([np.zeros(zeros),
                                   1.0 / np.linalg.eigvalsh(reciprocal)]))
