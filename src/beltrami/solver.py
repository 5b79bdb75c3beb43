"""Exact Galerkin curl eigensolver on polynomial frame fields.

The trial space V_D consists of the tangential projections of all Cartesian
monomial vector fields of degree at most D on R^4, restricted to S^3.  For a
monomial m and coordinate axis a the tangential projection has frame
coefficients f_i = m * (L_i x)_a, so V_D is spanned by explicit frame fields
with polynomial coefficients and is invariant under curl.  Calling
eigenspace_solve(dmax) uses D = dmax + 1, which makes the curl spectrum on
the trial space exactly the integers {0, +-2, ..., +-(dmax + 2)} (0 carrying
the gradient part).

All of the linear algebra is exact integer arithmetic, whatever the
rational backend:

* fields are sparse coefficient vectors over reduced monomials; each
  generator m * (L_i x)_a is a signed monomial, so its integer vector is
  read off the monomial normal form (frames._form_terms);
* curl acts on them as a precomputed sparse operator C whose entries are
  integers by construction: each column is read off the integer table of
  frame derivatives of monomials (frames.derivative_table);
* for each eigenvalue mu of a block's candidate spectrum S the Lagrange
  projector P_mu = prod_{nu != mu} (C - nu) / (mu - nu) is kept as the
  integer polynomial D_mu P_mu = sum_k n_{mu,k} C^k, where
  D_mu = prod_{nu != mu} (mu - nu);
* one Krylov pass b, C b, ..., C^|S| b gives every D_mu P_mu b at once, in
  increasing coordinate order; a slab of vectors passes together, in |S|
  gather-multiply-sum steps over C kept as padded integer rows (the last
  power serves the check);
* term order is no part of an exact result.  Float sums over
  frames.coefficient_tensor do not depend on it, since that tensor sorts
  its monomials; exactpoly.evaluate_polys and float curl still sum in each
  field's term order, so their values may round differently when it moves;
* the arrays are int64 while an exact bound stays below 2^62: the largest
  row sum of |C| times the largest entry for a step, sum_k |a_k| max|x_k|
  for a combination sum_k a_k x_k.  From the first operation whose bound
  fails they hold Python ints;
* the eigenbases come from fraction-free elimination of those vectors, and
  rationals appear only when an eigenvector is handed out as a field
  (normalised to pivot 1; SolverEigenspace.integer_rows hands out the
  integer rows and their pivots instead) or when project_vector, having
  cleared the denominators of its input with their lcm den, divides its
  result once by den * D_mu;
* helicity_pairing forms no projection at all: sum_mu |P_mu b|^2 / mu is
  the L^2 pairing of b with sum_mu P_mu b / mu, whose pieces fold into one
  integer vector over a common denominator, paired with b through the
  block's exact moment Gram (exactpoly.moment_gram) and divided once.

The solver has two parts.

* A bare block per order and parity (_Block, built on first use by
  _block): its coordinates, curl kept as padded rows, candidate spectrum
  and moment Gram.  project_vector and helicity_pairing read only this
  part, so a projection or a pairing runs no elimination.
* One growing elimination per parity (_Elimination): the fraction-free
  echelon of the generators, whose rows in insertion order are the trial
  basis, and the per-mu collectors of the eigenbases.  It stands in the
  coordinates of the highest order it has served, and after each
  Cartesian degree of generators it records the basis length and every
  collector's rank.

The generators of order d are those of every lower order followed by the
new degrees, and the coordinates are slot-major (slot i, monomial k at
i * n + k, the monomials listed by degree).  So moving a vector between
the n_top monomials per slot of a higher order and the n of a lower one,
j -> (j // n_top) * n + j % n_top, keeps the order of its coordinates and
moves no pivot, and a lower order's elimination is a prefix of a higher
one's: its basis is the first rows of the echelon, and each collector of
its spectrum holds the first rows of the collector of the same mu.  The
stored rows are primitive with a positive pivot, so the larger D_mu of a
higher order, which scales every piece, does not change them.

* A lower order is a prefix view: its rows are re-keyed as above, and the
  view checks exactly that every collector whose eigenvalue lies outside
  that order's spectrum had rank 0 at the prefix.  Otherwise it raises
  SpectrumError.
* A higher order extends the elimination: it re-keys the rows, inserts
  the generators of the new degrees and runs only the new basis rows
  through that order's checked pass.  It is committed only once every
  check passed.  Orders whose blocks are identical (their generators stop
  at the same degree) share one record and add no work.

An extension inserts no generator that closes an exact relation, one whose
other members came before it (_open_generators).  The tangential
projection of the radial field is zero and each L_i is antisymmetric, so
sum_b x_b (L_i x)_b = 0 and sum_b proj(x^(f + d_b) e_b) = 0 for every
monomial x^f of one degree less; and |x|^2 = 1 on S^3 gives
sum_c proj(x^(g + 2 d_c) e_a) = proj(x^g e_a) for x^g of two degrees less,
a generator of the step before.  The last member of either identity lies
in the span of the rows already inserted, so its insertion would return
None and leave the echelon as it is; at order 5 this skips 336 of the 371
dependent generators.

A degree step holds every collector mu != 0 that has a row already: its
pieces are neither read out nor inserted (_held).  The step is accepted
when the collector ranks sum to the basis length, and that count is a
proof that nothing was lost.  Both checks put every row of a collector in
E_mu, rows of different mu are independent, and the trial space V is the
direct sum of the E_mu in it (every basis row passed the first check), so
sum_mu rank_mu <= dim V, with equality only when each collector spans
E_mu in V; a held piece, which lies there, would then have reduced to
zero.  When the count falls short the step passes its new basis rows
again and feeds the held collectors their pieces in basis order, which
gives the rows of feeding every collector at once (fallbacks records
such steps; none occurs up to order 8).  mu = 0 is never held, since the
gradient part grows at every degree.

The exact checks run in _Block._krylov_pass, on every basis vector (in
the pass of the order that added it) and on every projected or paired
vector b.  With p(x) = prod_{nu in S} (x - nu) it requires p(C) b == 0,
which holds exactly when b is a sum of curl eigenvectors with eigenvalues
in S, and with L = lcm(D_mu) it requires the resolution of the identity
sum_mu (L / D_mu) (D_mu P_mu b) == L b.  A failure of the first makes the
pass return None, which _Block._checked_pieces raises as SpectrumError and
the order of a field (below) answers with a higher order; a failure of the
second raises SpectrumError.  The second check is an identity of the
Lagrange polynomials, so it guards the integer numerators; only the first
can detect an eigenvalue missing from S.  For another order's spectrum S'
the checks follow: if S' contains S, p_S divides p_S' and every piece
outside S is zero; if S' is a lower order's, the view's rank check says
that every basis row of the prefix has no piece outside S', so
p_S'(C) b == 0.

The trial space splits into two curl-invariant blocks by the total-degree
parity of the frame coefficients; each block only meets the eigenvalues of
matching parity, which roughly halves the work.

The order of a field (field_dmax).  The coordinates of order d hold every
field of coefficient degree at most d + 2, and curl keeps that degree.  An
E_{+m} eigenfield has coefficient degree m - 2, an E_{-m} eigenfield
degree m (the atlas entries +-2..+-5 and the solver's +-6, +-7 do), and a
gradient part is curl-free, so 0 in every spectrum resolves it.  A parity
part of coefficient degree D_p therefore lies in the spectrum of order
D_p - 2 unless it has an E_{+(D_p + 2)} component, which needs order D_p.
No classification decides which: each part is passed first at the order
D - 2 of the field's coefficient degree D (which resolves any part of
lower degree), and again at D_p only when the exact check p(C) b == 0
rejects that pass.  The lower order's coordinates span a curl-invariant
subspace of the higher order's (curl raises no degree), so the rejected
pass's Krylov powers carry over re-keyed, and the second pass adds only
the steps of its larger spectrum.  The field's order is the larger of its
parts' orders.  The projections and the pairing of the accepted passes
equal those of any higher order, since p_S divides p_S' when S' contains
S.  The accepted passes of the latest field are kept (_latest), so
field_dmax, project_vector and helicity_pairing on one field cost one
pass per parity block in all, with at most one rejected pass before it
for a part that needs its degree.
"""

from __future__ import annotations

import functools
from itertools import islice
from math import gcd, lcm
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from beltrami.exactpoly import (Exponent, ExactScalar, Poly4, Rat,
                                SphereScalar, check_int, integer_numerators,
                                moment_gram)
from beltrami.frames import FrameField, _form_terms, derivative_table

DEFAULT_DMAX_LIMIT = 5

# Vectors per slab of an elimination pass; keeps the transient arrays small.
_SLAB_WIDTH = 16
# Integer arithmetic stays in int64 while its exact bound is below this.
_INT64_SAFE = 1 << 62


class SpectrumError(RuntimeError):
    """The candidate integer spectrum does not exhaust the trial space."""


class NotExactFieldError(ValueError):
    """Raised when an operation requires an exact (coexact, mean-free) field."""


# ---------------------------------------------------------------------------
# Monomial coordinates


def _monomials(degree: int):
    """The exponents of all monomials of the given total degree."""
    for e1 in range(degree + 1):
        for e2 in range(degree + 1 - e1):
            for e3 in range(degree + 1 - e1 - e2):
                yield (e1, e2, e3, degree - e1 - e2 - e3)


def _reduced_monomials(max_degree: int, parity: int) -> List[Tuple[int, ...]]:
    """Reduced monomials (x4-exponent <= 1) of given total-degree parity."""
    return [e for d in range(parity, max_degree + 1, 2)
            for e in _monomials(d) if e[3] <= 1]


class _Coordinates:
    """Index of the sparse coordinates (frame slot, reduced monomial)."""

    def __init__(self, max_degree: int, parity: int):
        self.parity = parity
        self.monomials = _reduced_monomials(max_degree, parity)
        self.index = {e: k for k, e in enumerate(self.monomials)}
        self.size = 3 * len(self.monomials)

    def to_vector(self, field: FrameField) -> Dict[int, object]:
        vec: Dict[int, object] = {}
        n = len(self.monomials)
        for i, coefficient in enumerate(field.f):
            for part in (coefficient.even_part, coefficient.odd_part):
                for e, c in part.terms.items():
                    k = self.index.get(e)
                    if k is None:
                        raise ValueError("field leaves the coordinate space")
                    vec[i * n + k] = c
        return vec

    def to_field(self, vec: Dict[int, object]) -> FrameField:
        # One parity per block: each map is already a part of a normal form.
        n = len(self.monomials)
        parts = [({}, {}) for _ in range(3)]
        for j, c in vec.items():
            i, k = divmod(j, n)
            parts[i][self.parity][self.monomials[k]] = c
        return FrameField(*(SphereScalar(Poly4(even), Poly4(odd))
                            for even, odd in parts))


def _curl_operator(coords: _Coordinates) -> Dict[int, List[Tuple[int, int]]]:
    """Sparse integer columns of curl in the given coordinates.

    By the curl formula of beltrami.frames, the field with x^e in one slot
    and zeros elsewhere has curl 2 x^e in that slot, plus, in the next two
    slots cyclically, + B_k x^e and - B_j x^e, where j and k are those two
    slots' own frame indices (for f1 = x^e: + B3 x^e in slot 2 and
    - B2 x^e in slot 3).
    """
    columns: Dict[int, List[Tuple[int, int]]] = {}
    n = len(coords.monomials)
    index = coords.index
    for i in range(3):
        plus, minus = (i + 1) % 3, (i + 2) % 3
        for k, e in enumerate(coords.monomials):
            column = [(i * n + k, 2)]
            column += [(plus * n + index[f], c)
                       for f, c in derivative_table(e, minus + 1)]
            column += [(minus * n + index[f], -c)
                       for f, c in derivative_table(e, plus + 1)]
            columns[i * n + k] = sorted(column)
    return columns


def _max_abs(x: np.ndarray) -> int:
    return int(np.abs(x).max())


def _product(a: np.ndarray, b: np.ndarray):
    """a @ b for integer arrays: in int64 while max|a| max|b| times the
    inner dimension stays below 2^62, in Python ints otherwise."""
    if _max_abs(a) * _max_abs(b) * a.shape[-1] >= _INT64_SAFE:
        a, b = a.astype(object), b.astype(object)
    return a @ b


def _combination(coefficients: Sequence[int], arrays, tops) -> np.ndarray:
    """sum_k coefficients[k] * arrays[k] for integer arrays whose largest
    entries are tops[k]; in Python ints once the bound reaches 2^62."""
    terms = [(a, x) for a, x in zip(coefficients, arrays) if a]
    if sum(abs(a) * t for a, t in zip(coefficients, tops)) >= _INT64_SAFE:
        terms = [(a, x.astype(object)) for a, x in terms]
    return sum(a * x for a, x in terms)


@functools.cache
def _lagrange_numerators(spectrum: Tuple[int, ...]):
    """Integer Lagrange data of a candidate spectrum S.

    Returns (numerators, annihilator): numerators maps mu to the pair
    (n_mu, D_mu), where n_mu lists the coefficients (lowest degree first) of
    prod_{nu != mu} (x - nu) and D_mu = prod_{nu != mu} (mu - nu); the
    annihilator lists the coefficients of prod_{nu in S} (x - nu).
    """

    def times_linear(p, nu):
        # Coefficients of (x - nu) p(x) from those of p.
        return [a - nu * b for a, b in zip([0] + p, p + [0])]

    numerators = {}
    for mu in spectrum:
        coefficients, denominator = [1], 1
        for nu in spectrum:
            if nu != mu:
                coefficients = times_linear(coefficients, nu)
                denominator *= mu - nu
        numerators[mu] = (coefficients, denominator)
    annihilator = [1]
    for nu in spectrum:
        annihilator = times_linear(annihilator, nu)
    return numerators, annihilator


class _Echelon:
    """Incremental fraction-free elimination over the integers.

    Rows are primitive integer vectors keyed by their pivot (largest index),
    and every pivot is positive.  A vector is reduced against a row with
    pivot entries a (vector) and r (row) by vec <- (r/g) vec - (a/g) row,
    g = gcd(r, a), which keeps it integral and only scales it by r/g > 0.
    Each row is therefore a positive multiple of the row that rational
    elimination with pivot 1 would produce; _normalised recovers that row.
    """

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}

    def insert(self, vec: Dict[int, int]):
        """Reduce vec and store it; returns the new row, None if dependent.

        The first reduction step copies vec, and every step scales (when
        r/g != 1) and subtracts in that copy, so neither vec nor a stored
        row is ever modified.  The subtraction of (a/g) row drops the
        entries it cancels, so no entry is zero and the coordinates keep
        their order.
        """
        copied = False
        while vec:
            p = max(vec)
            row = self.rows.get(p)
            if row is None:
                content = gcd(*vec.values())
                if vec[p] < 0:
                    content = -content
                if content != 1 or not copied:
                    vec = {j: c // content for j, c in vec.items()}
                self.rows[p] = vec
                return vec
            g = gcd(row[p], vec[p])
            a, b = row[p] // g, vec[p] // g
            if not copied:
                vec, copied = dict(vec), True
            if a != 1:
                for j, c in vec.items():
                    vec[j] = a * c
            for j, c in row.items():
                s = vec.get(j, 0) - b * c
                if s:
                    vec[j] = s
                else:
                    del vec[j]
        return None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def prefix(self, count: int, keys) -> "_Echelon":
        """A new echelon of the first count rows, each coordinate j moved to
        keys[j] (see _key_map).  With keys None the rows themselves are
        shared: no stored row is ever modified."""
        out = _Echelon()
        for p, row in islice(self.rows.items(), count):
            if keys is not None:
                p, row = keys[p], {keys[j]: c for j, c in row.items()}
            out.rows[p] = row
        return out


def _key_map(n_from: int, n_to: int):
    """The coordinate i * n_to + k of each coordinate i * n_from + k, for
    n_from and n_to monomials per frame slot; None when they are equal."""
    if n_from == n_to:
        return None
    return [(j // n_from) * n_to + j % n_from for j in range(3 * n_from)]


def _normalised(row: Dict[int, int]) -> Dict[int, object]:
    """The rational multiple of an integer row whose pivot entry is 1."""
    pivot = row[max(row)]
    return {j: Rat(c, pivot) for j, c in row.items()}


# ---------------------------------------------------------------------------
# The solver


class SolverEigenspace:
    """One curl eigenspace produced by the exact solver."""

    def __init__(self, eigenvalue: int, vectors, coords: _Coordinates):
        self.eigenvalue = eigenvalue
        self._vectors = vectors
        self._coords = coords

    @property
    def dimension(self) -> int:
        return len(self._vectors)

    def fields(self) -> List[FrameField]:
        return [self._coords.to_field(_normalised(v)) for v in self._vectors]

    def integer_rows(self) -> Iterator[Tuple[int, Dict[Tuple[int, Exponent],
                                                       int]]]:
        """The basis vectors as the stored primitive integer rows, in the
        order of fields(): one (pivot, entries) pair per vector, entries
        mapping (frame slot, reduced monomial) to a nonzero int.  The
        field is entries / pivot; the pivot is the entry at the row's
        largest solver coordinate and is positive."""
        monomials = self._coords.monomials
        n = len(monomials)
        for v in self._vectors:
            yield v[max(v)], {(j // n, monomials[j % n]): c
                              for j, c in v.items()}


class SolverResult:
    """Outcome of eigenspace_solve: eigenspaces plus the gradient dimension."""

    def __init__(self, dmax: int, eigenspaces: Dict[int, SolverEigenspace],
                 gradient_dimension: int, trial_dimension: int):
        self.dmax = dmax
        self.eigenspaces = eigenspaces
        self.gradient_dimension = gradient_dimension
        self.trial_dimension = trial_dimension

    def dimension(self, eigenvalue: int) -> int:
        space = self.eigenspaces.get(eigenvalue)
        return space.dimension if space is not None else 0


class _Block:
    """The bare parity block of one order: coordinates, curl rows, spectrum
    and moment Gram, with its checked spectral passes.  It runs no
    elimination; its basis and eigenbases come from _Elimination."""

    def __init__(self, dmax: int, parity: int):
        self.parity = parity
        # The generators' Cartesian degrees have parity 1 - parity and stop
        # here; orders with the same top degree have the same block.
        self.top_degree = dmax + 1 - (dmax + parity) % 2
        self.coords = _Coordinates(dmax + 2, parity)
        self.curl_columns = _curl_operator(self.coords)
        # C as padded rows of (column, value) pairs; the padding (n, 0)
        # points to a zero coordinate that every slab carries last.
        n = self.coords.size
        rows: List[list] = [[] for _ in range(n + 1)]
        for j, column in self.curl_columns.items():
            for i, c in column:
                rows[i].append((j, c))
        width = max(map(len, rows))
        self.curl_index, self.curl_values = np.array(
            [row + [(n, 0)] * (width - len(row)) for row in rows]
        ).transpose(2, 0, 1).copy()
        self.row_bound = int(np.abs(self.curl_values).sum(axis=1).max())
        # Eigenvalues of this parity present up to dmax + 2 (plus 0 for the
        # gradient part, which lives in both blocks).
        self.spectrum = (0,) + tuple(
            s * m for m in range(2 + parity, dmax + 3, 2) for s in (1, -1))

    def _generator(self, e: Exponent, a: int) -> Dict[int, int]:
        """The integer coordinate vector of the tangential projection of
        x^e e_a, whose frame coefficients are x^e (L_i x)_a, of degree
        |e| + 1."""
        n = len(self.coords.monomials)
        index = self.coords.index
        return {i * n + index[f]: c for i in range(3)
                for f, c in _form_terms(e, i, a)}

    def _degree_generators(self, degree: int):
        """The generators of one Cartesian degree, monomial by monomial and
        axis by axis; the block of coefficient parity p takes the degrees of
        parity 1 - p."""
        for e in _monomials(degree):
            for a in range(4):
                yield self._generator(e, a)

    @functools.cached_property
    def basis(self) -> List[Dict[int, int]]:
        """The trial basis, the generator echelon's rows in insertion
        order, read from the parity's shared elimination."""
        return _elimination(self.parity).basis(self)

    def _curl_step(self, x: np.ndarray, top: int) -> np.ndarray:
        """C v for each vector v (a row) of a slab whose largest entry is
        top in absolute value: gather, multiply, sum."""
        if x.dtype != object and self.row_bound * top >= _INT64_SAFE:
            x = x.astype(object)
        return np.einsum("ik,vik->vi", self.curl_values,
                         np.take(x, self.curl_index, axis=1))

    def slab_pieces(self, vectors,
                    mus=None) -> List[Dict[int, Dict[int, int]]]:
        """D_mu P_mu v for each integer vector v and each mu of mus (by
        default the spectrum), from one checked pass of the whole spectrum.

        A slab holds one vector per row; each returned dict lists its
        coordinates in increasing order.
        """
        _, pieces, _ = self._checked_pieces(vectors)
        return self._piece_dicts(pieces, len(vectors), mus)

    def _piece_dicts(self, pieces, count: int,
                     mus=None) -> List[Dict[int, Dict[int, int]]]:
        """The slabs of pieces of a pass as one dict per vector, mapping each
        mu of mus (by default the spectrum) to its piece's nonzero
        coordinates in increasing order."""
        mus = self.spectrum if mus is None else mus
        out = [{} for _ in range(count)]
        for mu, piece in zip(self.spectrum, pieces):
            if mu not in mus:
                continue
            v, j = np.nonzero(piece)
            coordinates, entries = j.tolist(), piece[v, j].tolist()
            ends = np.cumsum(np.bincount(v, minlength=count)).tolist()
            for vec, start, end in zip(out, [0] + ends, ends):
                vec[mu] = dict(zip(coordinates[start:end], entries[start:end]))
        return out

    def _checked_pieces(self, vectors) -> Tuple[np.ndarray, List[np.ndarray],
                                                List[int]]:
        """The slab x of the integer vectors and, for each mu of the
        spectrum in order, the slab of their D_mu P_mu v and its largest
        entry: _krylov_pass, raising SpectrumError where it returns None."""
        checked = self._krylov_pass([self._slab(vectors)])
        if checked is None:
            raise SpectrumError(
                "curl has an eigenvalue outside the candidate spectrum "
                f"{sorted(self.spectrum)} on the trial space")
        return checked

    def _slab(self, vectors) -> np.ndarray:
        """The integer vectors as the rows of a slab, each with the zero
        coordinate last; int64 while every entry is below 2^62."""
        entries = [c for v in vectors for c in v.values()]
        small = max(map(abs, entries), default=0) < _INT64_SAFE
        x = np.zeros((len(vectors), self.coords.size + 1),
                     dtype=np.int64 if small else object)
        x[np.repeat(np.arange(len(vectors)), [len(v) for v in vectors]),
          [j for v in vectors for j in v]] = entries
        return x

    def _krylov_pass(self, powers: List[np.ndarray]):
        """(x, pieces, tops) for the slab x = powers[0]: for each mu of the
        spectrum in order, the slab of D_mu P_mu v for its vectors v, and
        the largest absolute entry of each slab, measured once for the
        second check and handed on to _pairing.  One Krylov pass, with both
        exact checks of the module docstring; powers may already hold the
        first of C x, C^2 x, ..., and is extended in place to C^|S| x.
        Returns None when the first check, p(C) v == 0, fails; the second
        raises."""
        spectrum = tuple(self.spectrum)  # hashable for the cached numerators
        numerators, annihilator = _lagrange_numerators(spectrum)
        x = powers[0]
        tops = [_max_abs(p) for p in powers]
        while len(powers) <= len(spectrum):
            powers.append(self._curl_step(powers[-1], tops[-1]))
            tops.append(_max_abs(powers[-1]))
        if np.count_nonzero(_combination(annihilator, powers, tops)):
            return None
        common = lcm(*(denominator for _, denominator in numerators.values()))
        pieces = [_combination(numerators[mu][0], powers, tops)
                  for mu in spectrum]
        piece_tops = [_max_abs(p) for p in pieces]
        if not np.array_equal(
                _combination([common // numerators[mu][1] for mu in spectrum],
                             pieces, piece_tops),
                _combination([common], powers, tops)):
            raise SpectrumError(
                "spectral projections do not resolve the identity on the "
                "trial space; the candidate spectrum is incomplete")
        return x, pieces, piece_tops

    @functools.cached_property
    def gram(self) -> Tuple[np.ndarray, int]:
        """The exact moment Gram of the block's monomials as integers over
        one denominator (exactpoly.moment_gram), built on first use; int64
        while its entries stay below 2^62."""
        gram, den = moment_gram(self.coords.monomials)
        return (gram.astype(np.int64) if _max_abs(gram) < _INT64_SAFE
                else gram), den

    def _pairing(self, x: np.ndarray, pieces: List[np.ndarray],
                 tops: List[int]) -> Rat:
        """The helicity pairing of the one-vector slab x of a checked pass,
        whose pieces have the largest absolute entries tops.

        With K = lcm(mu D_mu), the pieces fold into
        u = sum_mu (K / (mu D_mu)) D_mu P_mu vec = K sum_mu P_mu vec / mu,
        whose L^2 pairing with vec is sum_i u_i . G vec_i over the frame
        slots i (the frame is orthonormal), G the block's moment Gram; the
        projections are orthogonal, so <P_mu vec, vec> = |P_mu vec|^2.
        """
        numerators, _ = _lagrange_numerators(tuple(self.spectrum))
        weights = {mu: mu * numerators[mu][1] for mu in self.spectrum if mu}
        common = lcm(*weights.values())
        coefficients, folded, folded_tops = [], [], []
        for mu, piece, top in zip(self.spectrum, pieces, tops):
            if mu:
                coefficients.append(common // weights[mu])
                folded.append(piece)
                folded_tops.append(top)
            elif np.count_nonzero(piece):
                raise NotExactFieldError(
                    "field has a nonzero divergence or gradient part; "
                    "helicity is defined for exact fields only")
        u = _combination(coefficients, folded, folded_tops)
        gram, gram_den = self.gram
        n = len(self.coords.monomials)
        gv = _product(x[0, :-1].reshape(3, n), gram)  # G is symmetric
        return Rat(int(_product(u[0, :-1], gv.ravel())), common * gram_den)


class _Elimination:
    """The growing elimination of one parity (see the module docstring).

    size is the number of monomials per frame slot of the highest order
    served, in whose coordinates the generator echelon and the collectors
    stand; prefixes maps each top degree reached to the basis length and
    the collector ranks after the generators of that degree; fallbacks
    lists the degrees whose rank count fell short, so that their held
    collectors were fed as well.
    """

    def __init__(self, parity: int):
        self.parity = parity
        self.size = 0
        self.generators = _Echelon()
        self.collectors: Dict[int, _Echelon] = {}
        self.prefixes: Dict[int, Tuple[int, Dict[int, int]]] = {}
        self.fallbacks: List[int] = []

    def prefix(self, block: _Block) -> Tuple[int, Dict[int, int]]:
        """(basis length, collector ranks) of the block's order, extending
        the elimination first if it does not reach that order yet."""
        if block.top_degree not in self.prefixes:
            self._extend(block)
        return self.prefixes[block.top_degree]

    def basis(self, block: _Block) -> List[Dict[int, int]]:
        """The first rows of the generator echelon, re-keyed into the
        block's coordinates."""
        length, _ = self.prefix(block)
        return list(self.generators.prefix(
            length, _key_map(self.size, len(block.coords.monomials))
        ).rows.values())

    def view(self, block: _Block) -> Dict[int, _Echelon]:
        """The collectors of the block's order, re-keyed into its
        coordinates, after the exact check that no collector outside its
        spectrum holds a row of the prefix."""
        _, ranks = self.prefix(block)
        outside = sorted(mu for mu, rank in ranks.items()
                         if rank and mu not in block.spectrum)
        if outside:
            raise SpectrumError(
                f"curl has the eigenvalues {outside} outside the candidate "
                f"spectrum {sorted(block.spectrum)} on the trial space")
        keys = _key_map(self.size, len(block.coords.monomials))
        return {mu: self.collectors.get(mu, _Echelon()).prefix(
            ranks.get(mu, 0), keys) for mu in block.spectrum}

    def _extend(self, block: _Block):
        """Reach the block's order: re-key, insert the generators of the new
        degrees that close no relation (_open_generators) and pass only the
        new basis rows, with that order's checks.  A degree step feeds the
        collectors it does not hold (_held) and is accepted when the ranks
        sum to the basis length; otherwise it feeds the held ones too
        (module docstring).  Nothing is kept unless every check passed."""
        keys = _key_map(self.size, len(block.coords.monomials))
        generators = self.generators.prefix(self.generators.rank, keys)
        collectors = {mu: c.prefix(c.rank, keys)
                      for mu, c in self.collectors.items()}
        for mu in block.spectrum:
            collectors.setdefault(mu, _Echelon())
        basis = list(generators.rows.values())
        prefixes = dict(self.prefixes)
        fallbacks = list(self.fallbacks)
        lowest = max(self.prefixes) + 2 if self.prefixes else 1 - self.parity
        for degree in range(lowest, block.top_degree + 1, 2):
            start = len(basis)
            basis += filter(None, (generators.insert(block._generator(e, a))
                                   for e, a in _open_generators(degree)))
            new, held = basis[start:], _held(collectors)
            _collect(block, new, collectors, set(collectors) - held)
            if sum(c.rank for c in collectors.values()) < len(basis):
                fallbacks.append(degree)
                _collect(block, new, collectors, held)
            prefixes[degree] = (len(basis), {mu: c.rank for mu, c
                                             in collectors.items()})
        self.size = len(block.coords.monomials)
        self.generators, self.collectors = generators, collectors
        self.prefixes, self.fallbacks = prefixes, fallbacks


def _open_generators(degree: int) -> List[Tuple[Exponent, int]]:
    """The (e, a) of the generators x^e e_a of one Cartesian degree, in the
    order of _Block._degree_generators, less the last member of each radial
    identity sum_b proj(x^(f + d_b) e_b) = 0 (|f| = degree - 1) and of each
    sphere identity sum_c proj(x^(g + 2 d_c) e_a) = proj(x^g e_a)
    (|g| = degree - 2), whose right side is a generator of the step before
    (module docstring)."""
    monomials = list(_monomials(degree))
    # The position of x^e e_a in that order is 4 k + a, e the k-th monomial.
    position = {e: 4 * k for k, e in enumerate(monomials)}
    closing = {max(position[_shifted(f, b, 1)] + b for b in range(4))
               for f in _monomials(degree - 1)}
    for g in _monomials(degree - 2):
        top = max(position[_shifted(g, c, 2)] for c in range(4))
        closing.update(range(top, top + 4))
    return [(e, a) for k, e in enumerate(monomials) for a in range(4)
            if 4 * k + a not in closing]


def _shifted(e: Exponent, b: int, k: int) -> Exponent:
    return e[:b] + (e[b] + k,) + e[b + 1:]


def _held(collectors: Dict[int, _Echelon]) -> set:
    """The eigenvalues whose collectors a degree step holds: each mu != 0
    whose collector has a row already.  The gradient part (mu = 0) grows
    at every degree and is never held."""
    return {mu for mu, c in collectors.items() if mu and c.rank}


def _collect(block: _Block, vectors, collectors: Dict[int, _Echelon],
             mus) -> None:
    """Insert D_mu P_mu v into the collector of each mu of mus, for the
    vectors v in order, one checked pass per slab."""
    for lo in range(0, len(vectors), _SLAB_WIDTH):
        for pieces in block.slab_pieces(vectors[lo:lo + _SLAB_WIDTH], mus):
            for mu, piece in pieces.items():
                collectors[mu].insert(piece)


@functools.cache
def _block(dmax: int, parity: int) -> _Block:
    """The bare block of an order and parity, built on first use."""
    return _Block(dmax, parity)


@functools.cache
def _elimination(parity: int) -> _Elimination:
    """The one elimination of a parity that every order shares."""
    return _Elimination(parity)


@functools.cache
def _solved_block(dmax: int, parity: int):
    """(block, collectors) of an order: a view of the shared elimination."""
    block = _block(dmax, parity)
    return block, _elimination(parity).view(block)


def eigenspace_solve(dmax: int, limit: int = DEFAULT_DMAX_LIMIT) -> SolverResult:
    """Diagonalize curl exactly on the trial space of order dmax.

    Returns the eigenspaces for the integer spectrum {+-2, ..., +-(dmax+2)}
    together with the dimension of the gradient (curl-kernel) part.  Raises
    SpectrumError if that candidate spectrum fails to exhaust the trial
    space, and ValueError unless dmax and limit are ints (not bools) with
    0 <= dmax <= limit.
    """
    check_int(dmax, "dmax", 0, check_int(limit, "limit", 0))
    eigenspaces: Dict[int, SolverEigenspace] = {}
    gradient_dimension = trial_dimension = 0
    for parity in (0, 1):
        block, collectors = _solved_block(dmax, parity)
        trial_dimension += _elimination(parity).prefix(block)[0]
        for mu, collector in collectors.items():
            if mu == 0:
                gradient_dimension += collector.rank
            elif collector.rank:
                vectors = list(collector.rows.values())
                eigenspaces[mu] = SolverEigenspace(mu, vectors, block.coords)
    return SolverResult(dmax, eigenspaces, gradient_dimension, trial_dimension)


def _parity_parts(field: FrameField):
    """(parity, degree, part) for each nonzero coefficient-parity part of a
    field, degree being the part's coefficient degree."""
    for parity in (0, 1):
        polys = [c.odd_part if parity else c.even_part for c in field.f]
        degree = max(p.degree() for p in polys)
        if degree >= 0:
            yield parity, degree, FrameField(*(
                SphereScalar(Poly4.zero(), p) if parity
                else SphereScalar(p, Poly4.zero()) for p in polys))


def _rekeyed(powers: List[np.ndarray], source: _Block, target: _Block):
    """Slabs of a lower-order block moved into the coordinates of a
    higher-order block of the same parity (_key_map), the zero coordinate
    last.  The lower order's coordinates span a curl-invariant subspace of
    the higher order's (curl raises no degree), so its Krylov powers are
    the higher order's, re-keyed."""
    keys = np.array(_key_map(len(source.coords.monomials),
                             len(target.coords.monomials)))
    out = []
    for p in powers:
        q = np.zeros((len(p), target.coords.size + 1), dtype=p.dtype)
        q[:, keys] = p[:, :-1]
        out.append(q)
    return out


# The latest exact field resolved, as (field, parts, projections): for each
# nonzero parity part the (order, block, den, x, pieces, tops) of the checked
# pass that accepted it, and the projected fields once project_vector asked.
_latest = (None, None, {})


def _resolution(field: FrameField, cap: int):
    """The memo entry of an exact field, each part resolved at the lowest
    order of at most cap that its check accepts; None when a part needs a
    higher order.  The latest field is recognised by identity before it is
    compared term by term.

    Every part is first tried at the order max(D - 2, 0) of the field's
    coefficient degree D, which resolves any part of lower degree; a part
    of degree D_p above it whose pass that order rejects is tried once more
    at D_p, from the rejected pass's Krylov powers (see the module
    docstring).  No field is formed for a rejected pass.
    """
    global _latest
    # The latest field itself was checked exact; an equal float twin is not.
    if _latest[0] is not field and field._has_float():
        raise TypeError("the exact solver needs rational coefficients")
    if ((_latest[0] is field or _latest[0] == field)
            and all(part[0] <= cap for part in _latest[1])):
        return _latest
    parts = list(_parity_parts(field))
    lowest = max([degree - 2 for _, degree, _ in parts] + [0])
    resolved = []
    for parity, degree, part in parts:
        top = max(degree, lowest)
        previous = None
        for order in [d for d in sorted({lowest, top}) if d <= cap] or [cap]:
            block = _block(order, parity)
            if previous is None:
                den, (vec,) = integer_numerators(
                    [block.coords.to_vector(part)])
                powers = [block._slab([vec])]
            else:
                powers = _rekeyed(powers, previous, block)
            checked = block._krylov_pass(powers)
            if checked is not None:
                resolved.append((order, block, den, *checked))
                break
            previous = block
        else:
            return None
    _latest = (field, tuple(resolved), None)
    return _latest


def _resolution_within(field: FrameField, dmax: int):
    """_resolution with cap dmax, raising SpectrumError where it gives None:
    the order-dmax spectrum does not resolve the field."""
    check_int(dmax, "dmax", 0)
    latest = _resolution(field, dmax)
    if latest is None:
        raise SpectrumError(
            "curl has an eigenvalue outside the candidate spectrum of order "
            f"{dmax} on the field")
    return latest


def project_vector(field: FrameField, mu: int, dmax: int) -> FrameField:
    """Exact spectral projection of a polynomial frame field onto the
    eigenvalue mu (0 for the gradient part) of the order-dmax trial space.

    Each coefficient-parity part is resolved in the block of its parity at
    the lowest order (at most dmax) whose check accepts it (_resolution),
    which gives the same projections as order dmax: its denominators are
    cleared with one lcm, one checked Krylov pass gives den * D_nu * P_nu
    for every nu of the block, and each is divided once.  Every projection
    of the latest field is kept, so the calls of one decomposition cost one
    accepted pass per block.  Raises SpectrumError when no order up to dmax
    resolves the field and TypeError for float coefficients.
    """
    global _latest
    latest = _resolution_within(field, dmax)
    if latest[2] is None:
        fields: Dict[int, FrameField] = {}
        for _, block, den, _, pieces, _ in latest[1]:
            numerators, _ = _lagrange_numerators(tuple(block.spectrum))
            for nu, piece in block._piece_dicts(pieces, 1)[0].items():
                if piece:
                    scale = den * numerators[nu][1]
                    fields[nu] = fields.get(nu, FrameField.zero()) + \
                        block.coords.to_field({j: Rat(c, scale)
                                               for j, c in piece.items()})
        latest = _latest = (latest[0], latest[1], fields)
    return latest[2].get(mu, FrameField.zero())


def helicity_pairing(field: FrameField, dmax: int) -> ExactScalar:
    """Exact helicity sum_{mu != 0} |P_mu field|^2 / mu of a field with no
    gradient part.

    One checked Krylov pass per parity block, at the orders of up to dmax
    that project_vector uses and shared with it (_Block._pairing); no
    projected field is formed.  Raises NotExactFieldError for a nonzero
    mu = 0 part, SpectrumError when no order up to dmax resolves the field
    and TypeError for float coefficients.
    """
    total = Rat(0)
    for _, block, den, *checked in _resolution_within(field, dmax)[1]:
        total += block._pairing(*checked) / (den * den)
    return ExactScalar({2: total})


def field_dmax(field: FrameField, limit: int = DEFAULT_DMAX_LIMIT) -> int:
    """The smallest solver order whose spectrum resolves the field.

    A part of coefficient degree D_p holds eigencomponents of E_{+m} for
    m <= D_p + 2, of E_{-m} for m <= D_p and a gradient part; only the
    E_{+(D_p + 2)} component needs order D_p, the rest lie in order D_p - 2
    (module docstring).  The checked pass at the lower order decides which,
    exactly, and is kept for project_vector and helicity_pairing.  The
    field's order is the larger of its parts' orders.

    Raises ValueError, before any block is built, when the coefficient
    degree D has D - 2 > limit, and after the lower pass when a part needs
    an order above the limit; TypeError for float coefficients.  The limit
    must be a nonnegative int (not a bool).
    """
    check_int(limit, "limit", 0)
    degree = field.coefficient_degree()
    if degree - 2 > limit:
        raise ValueError(
            f"coefficient degree {degree} exceeds the configured solver "
            f"limit (dmax <= {limit})")
    latest = _resolution(field, limit)
    if latest is None:
        raise ValueError(
            "the field has a curl eigencomponent beyond the configured "
            f"solver limit (dmax <= {limit})")
    return max((part[0] for part in latest[1]), default=0)
