"""Shared helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np

from beltrami.exactpoly import Poly4, Rat, SphereScalar, canonicalize


def rand_rational(rng: random.Random, bound: int = 6):
    """A small nonzero-ish rational with numerator in [-bound, bound]."""
    return Rat(rng.randint(-bound, bound), rng.randint(1, 4))


def rand_poly(rng: random.Random, max_degree: int, n_terms: int = 6) -> Poly4:
    """A random sparse exact polynomial of total degree <= max_degree."""
    terms = {}
    for _ in range(n_terms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(4)] += 1
        terms[tuple(e)] = terms.get(tuple(e), Rat(0)) + rand_rational(rng)
    return Poly4(terms)


def rand_sphere_scalar(rng: random.Random, max_degree: int,
                       n_terms: int = 6) -> SphereScalar:
    return canonicalize(rand_poly(rng, max_degree, n_terms))


def sphere_points(rng_seed: int, n: int) -> np.ndarray:
    """n uniform points on S^3 as an (n, 4) float array (seeded)."""
    gen = np.random.default_rng(rng_seed)
    pts = gen.standard_normal((n, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def cholesky_reduction(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a x = lambda b x for symmetric a and
    positive definite b = L L^T, as those of L^-1 a L^-T (Golub & Van Loan,
    Matrix Computations, section 8.7): a reference that shares no code with
    beltrami.pencil."""
    factor = np.linalg.cholesky(b)
    return np.linalg.eigvalsh(np.linalg.solve(factor,
                                              np.linalg.solve(factor, a).T))
