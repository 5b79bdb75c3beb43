"""Eigenvalues of symmetric-definite generalized pencils, in numpy alone."""

from __future__ import annotations

import numpy as np


def eigvalsh_definite(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of A x = lambda B x.

    A must be symmetric and B symmetric positive definite.  The Cholesky
    factor B = L L^T turns the pencil into the standard symmetric problem
    L^-1 A L^-T (Golub & Van Loan, Matrix Computations, section 8.7).  A B
    that is not positive definite raises numpy.linalg.LinAlgError.
    """
    # numpy has no triangular solve; one inverse and two products beat the
    # two general solves that would form L^-1 A L^-T.
    inverse = np.linalg.inv(np.linalg.cholesky(b))
    return np.linalg.eigvalsh(inverse @ a @ inverse.T)
