"""Exact polynomial arithmetic on R^4 and exact integration over the unit 3-sphere.

Three layers of exact values are provided:

  Poly4        sparse polynomial in x1..x4: maps exponent 4-tuples to
               arbitrary-precision rational coefficients.
  SphereScalar polynomial function on S^3 in canonical normal form modulo
               the sphere relation x4^2 = 1 - x1^2 - x2^2 - x3^2 (every
               monomial has x4-exponent at most 1; the rewrite is made only
               in _monomial_normal_form).  Two SphereScalars are equal as
               functions on S^3 iff their normal forms coincide.
  ExactScalar  finite Laurent combination of integer powers of pi with
               rational coefficients; the value domain of exact integrals.

Integrals over S^3 come from the closed-form monomial moments, each a
rational multiple of pi^2 (integrate_monomial).  An exact integral is one
integer moment sum over a common denominator (integrate_poly), and
integrate_products integrates a sum of products of exact SphereScalars
from those moments without forming the products.

pi is a formal transcendental symbol: no floating approximation enters the
exact backend.  Rationals come from gmpy2 when available (much faster) and
fall back to the stdlib Fraction otherwise; both are arbitrary precision.

Coefficients may alternatively be Python floats, which gives a floating
mirror of the polynomial calculus.  Its remaining users are functionals'
remainder_field/correction_field and HopfPerturbation.field, and float
l2_inner.  Every operation takes operands of one kind, exact or float:
to_float() converts, and so does scale by a float scalar.  Mixing kinds is
unsupported; under gmpy2, mpq + float is an mpfr, a third numeric type.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

try:
    from gmpy2 import mpq as _mpq

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _mpq

    RATIONAL_BACKEND = "fractions"

# Exponent tuple (a1, a2, a3, a4): degree of each coordinate in a monomial.
Exponent = Tuple[int, int, int, int]

_ZERO_EXP: Exponent = (0, 0, 0, 0)

# Points per block in evaluate_polys.  The rows of a block stay in cache;
# over all 55296 default-grid points coefficient_values took twice as long.
_POINT_BLOCK = 8192


def Rat(p, q=1):
    """Return the exact rational p/q in the selected backend.

    Accepts ints, floats (at their exact binary value), backend rationals,
    and strings like '151/90'.
    """
    return _mpq(p) if q == 1 else _mpq(p, q)


class Poly4:
    """Sparse polynomial in x1, x2, x3, x4.

    terms maps exponent 4-tuples to nonzero coefficients.  The zero
    polynomial is the empty map.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponent, object] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly4":
        return Poly4()

    @staticmethod
    def const(c) -> "Poly4":
        c = c if isinstance(c, float) else Rat(c)
        return Poly4({_ZERO_EXP: c})

    @staticmethod
    def variable(i: int) -> "Poly4":
        """The coordinate polynomial x_i for i in 1..4."""
        if not 1 <= i <= 4:
            raise ValueError(f"coordinate index must be 1..4, got {i}")
        e = [0, 0, 0, 0]
        e[i - 1] = 1
        return Poly4({tuple(e): Rat(1)})

    @staticmethod
    def monomial(e: Exponent, c=1) -> "Poly4":
        c = c if isinstance(c, float) else Rat(c)
        return Poly4({tuple(e): c})

    # ---- ring operations ----------------------------------------------

    def __add__(self, other: "Poly4") -> "Poly4":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly4(out)

    def __sub__(self, other: "Poly4") -> "Poly4":
        return self + (-other)

    def __neg__(self) -> "Poly4":
        return Poly4({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly4):
            out: Dict[Exponent, object] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                    s = out.get(e, 0) + ca * cb
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            return Poly4(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Poly4":
        """Multiply by a scalar; a float scalar converts all coefficients."""
        if s == 0:
            return Poly4()
        if isinstance(s, float):
            sf = float(s)  # a numpy float scalar becomes a Python float
            return Poly4({e: float(c) * sf for e, c in self.terms.items()})
        return Poly4({e: c * s for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly4":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base if n > 1 else base
            n >>= 1
        return Poly4.const(1) if out is None else out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly4) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Poly4 is unhashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly4(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{self.terms[e]}{'*' + mono if mono else ''}")
        return "Poly4(" + " + ".join(bits) + ")"

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max((sum(e) for e in self.terms), default=-1)

    # ---- calculus and substitution ------------------------------------

    def partial(self, i: int) -> "Poly4":
        """Partial derivative with respect to x_i (i in 1..4)."""
        out: Dict[Exponent, object] = {}
        j = i - 1
        for e, c in self.terms.items():
            k = e[j]
            if k == 0:
                continue
            e2 = list(e)
            e2[j] = k - 1
            out[tuple(e2)] = c * k
        return Poly4(out)

    def substitute_linear(self, m: Sequence[Sequence[object]]) -> "Poly4":
        """Return p(M x): substitute x_i -> sum_j M[i][j] x_j (0-based M)."""
        images = [
            Poly4({(0, 0, 0, 0)[:j] + (1,) + (0, 0, 0)[j:]: Rat(m[i][j])
                   for j in range(4) if m[i][j] != 0})
            for i in range(4)
        ]
        out = Poly4()
        for e, c in self.terms.items():
            term = Poly4.const(1)
            for i in range(4):
                if e[i]:
                    term = term * (images[i] ** e[i])
            out = out + term.scale(c)
        return out

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, 4) float array of points; returns shape (N,):
        the coefficient vector times the monomial rows of the terms."""
        return evaluate_polys([self], pts)[0]

    def to_float(self) -> "Poly4":
        return Poly4({e: float(c) for e, c in self.terms.items()})


def power_tables(pts: np.ndarray, exponents: Sequence[Exponent]) -> list:
    """x_i^k at (N, 4) points as tables[i][k] for k up to the largest i-th
    entry of the exponents: a (top_i + 1, N) array per coordinate, each
    power the one below it times x_i."""
    tables = []
    for i, x in enumerate(np.asarray(pts, dtype=float).T):
        tables.append(np.ones((1 + max((e[i] for e in exponents), default=0),
                               len(x))))
        for k in range(1, len(tables[-1])):
            np.multiply(tables[-1][k - 1], x, out=tables[-1][k])
    return tables


def monomial_rows(exponents: Sequence[Exponent], tables: list) -> np.ndarray:
    """The monomials x^e as an (m, N) array, one row per exponent, from the
    power_tables of the points; a row does not depend on the others."""
    rows = np.ones((len(exponents), tables[0].shape[1]))
    for row, e in zip(rows, exponents):
        for table, k in zip(tables, e):
            if k:
                row *= table[k]
    return rows


def evaluate_polys(polys: Sequence[Poly4], pts: np.ndarray) -> np.ndarray:
    """Values of several polynomials at (N, 4) points, shape (len(polys), N).

    Per block of points the power tables are built once; each polynomial is
    then its coefficient vector times its own monomial rows, in its own term
    order, so its values equal its single evaluation bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    exponents = [e for p in polys for e in p.terms]
    out = np.zeros((len(polys), pts.shape[0]))
    for start in range(0, pts.shape[0], _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        tables = power_tables(pts[block], exponents)
        for row, p in zip(out, polys):
            if p.terms:
                row[block] = np.array([float(c) for c in p.terms.values()]) \
                    @ monomial_rows(list(p.terms), tables)
    return out


@functools.cache
def _radial_complement_power(m: int) -> Tuple[Tuple[Exponent, int], ...]:
    """(1 - x1^2 - x2^2 - x3^2)^m as (exponent, int) pairs, Poly4 order."""
    base = Poly4.const(1) - (
        Poly4.variable(1) ** 2 + Poly4.variable(2) ** 2 + Poly4.variable(3) ** 2
    )
    return tuple((e, int(c)) for e, c in (base ** m).terms.items())


def _monomial_normal_form(e: Exponent) -> Tuple[Tuple[Exponent, int], ...]:
    """x^e on S^3 as (reduced exponent, int) pairs, from the rewrite
    x4^(2m + r) = x4^r (1 - x1^2 - x2^2 - x3^2)^m with r <= 1."""
    m, r = divmod(e[3], 2)
    if not m:
        return ((e, 1),)
    return tuple(((e[0] + f[0], e[1] + f[1], e[2] + f[2], r), k)
                 for f, k in _radial_complement_power(m))


def _reduce(p: Poly4) -> Poly4:
    """Map the terms of p through _monomial_normal_form; reduced terms are
    summed first and rewritten ones after, which fixes the float rounding."""
    out: Dict[Exponent, object] = {}
    pending: Dict[Exponent, object] = {}
    for e, c in p.terms.items():
        if e[3] < 2:
            target, terms = out, ((e, c),)
        else:
            target = pending
            terms = [(f, c * k) for f, k in _monomial_normal_form(e)]
        for f, v in terms:
            s = target.get(f, 0) + v
            if s == 0:
                target.pop(f, None)
            else:
                target[f] = s
    return Poly4(out) + Poly4(pending)


class SphereScalar:
    """A polynomial function on S^3 in canonical normal form.

    Stored as even_part + odd_part, graded by total degree parity of the
    representative (the sphere rewrite preserves that parity), each part
    reduced so every monomial has x4-exponent at most 1.
    """

    __slots__ = ("even_part", "odd_part")

    def __init__(self, even_part: Poly4, odd_part: Poly4):
        self.even_part = even_part
        self.odd_part = odd_part

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SphereScalar":
        return SphereScalar(Poly4(), Poly4())

    @staticmethod
    def const(c) -> "SphereScalar":
        return SphereScalar(Poly4.const(c), Poly4())

    @staticmethod
    def coordinate(i: int) -> "SphereScalar":
        return canonicalize(Poly4.variable(i))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other: "SphereScalar") -> "SphereScalar":
        return SphereScalar(self.even_part + other.even_part,
                            self.odd_part + other.odd_part)

    def __sub__(self, other: "SphereScalar") -> "SphereScalar":
        return SphereScalar(self.even_part - other.even_part,
                            self.odd_part - other.odd_part)

    def __neg__(self) -> "SphereScalar":
        return SphereScalar(-self.even_part, -self.odd_part)

    def __mul__(self, other):
        if isinstance(other, SphereScalar):
            return canonicalize(self.representative() * other.representative())
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "SphereScalar":
        return SphereScalar(self.even_part.scale(s), self.odd_part.scale(s))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SphereScalar)
                and self.even_part == other.even_part
                and self.odd_part == other.odd_part)

    def __hash__(self):
        raise TypeError("SphereScalar is unhashable")

    def __repr__(self) -> str:
        return f"SphereScalar({self.representative()!r})"

    # ---- queries -------------------------------------------------------

    def representative(self) -> Poly4:
        """The canonical polynomial representative (even + odd part)."""
        return self.even_part + self.odd_part

    def is_zero(self) -> bool:
        return self.even_part.is_zero() and self.odd_part.is_zero()

    def degree(self) -> int:
        return self.representative().degree()

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return self.representative().evaluate(pts)

    def to_float(self) -> "SphereScalar":
        return SphereScalar(self.even_part.to_float(), self.odd_part.to_float())

    def integral(self):
        """Integral over S^3: ExactScalar for exact coefficients, else float."""
        return integrate_poly(self)


def canonicalize(p: Poly4) -> SphereScalar:
    """Split p by total-degree parity and reduce each part to normal form.

    The returned SphereScalar equals p as a function on S^3.
    """
    even = Poly4({e: c for e, c in p.terms.items() if sum(e) % 2 == 0})
    odd = Poly4({e: c for e, c in p.terms.items() if sum(e) % 2 == 1})
    return SphereScalar(_reduce(even), _reduce(odd))


class ExactScalar:
    """A finite Laurent combination sum_k c_k * pi^k with rational c_k."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, object] | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar()

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return ExactScalar(out)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            out: Dict[int, object] = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    k = ka + kb
                    s = out.get(k, 0) + ca * cb
                    if s == 0:
                        out.pop(k, None)
                    else:
                        out[k] = s
            return ExactScalar(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "ExactScalar":
        if s == 0:
            return ExactScalar()
        return ExactScalar({k: c * Rat(s) for k, c in self.terms.items()})

    def __truediv__(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if len(other.terms) != 1:
                raise ZeroDivisionError(
                    "exact division only by a single pi-power term")
            (k, c), = other.terms.items()
            return ExactScalar({j - k: cj / c for j, cj in self.terms.items()})
        return ExactScalar({k: c / Rat(other) for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactScalar) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("ExactScalar is unhashable")

    def is_zero(self) -> bool:
        return not self.terms

    def __float__(self) -> float:
        return math.fsum(float(c) * math.pi ** k for k, c in self.terms.items())

    def as_rational(self):
        """The rational value when no pi power is present; raises otherwise."""
        if not self.terms:
            return Rat(0)
        if set(self.terms) == {0}:
            return self.terms[0]
        raise ValueError(f"{self} is not rational")

    def __repr__(self) -> str:
        return f"ExactScalar({format_exact(self)!r})"


def format_exact(x: ExactScalar) -> str:
    """Serialize as 'p/q * pi^k' terms joined by ' + ' ('0' when empty)."""
    if not x.terms:
        return "0"
    bits = []
    for k in sorted(x.terms, reverse=True):
        c = x.terms[k]
        num, den = c.numerator, c.denominator
        frac = f"{num}" if den == 1 else f"{num}/{den}"
        bits.append(frac if k == 0 else f"{frac} * pi^{k}")
    return " + ".join(bits)


def parse_exact(s: str) -> ExactScalar:
    """Inverse of format_exact."""
    s = s.strip()
    if s == "0":
        return ExactScalar()
    out = ExactScalar()
    for term in s.split(" + "):
        if "* pi^" in term:
            frac, power = term.split(" * pi^")
            k = int(power)
        else:
            frac, k = term, 0
        out = out + ExactScalar({k: Rat(frac.strip())})
    return out


def integrate_monomial(e: Iterable[int]) -> ExactScalar:
    """Integral of x1^a1 x2^a2 x3^a3 x4^a4 over the unit 3-sphere.

    Zero when any exponent is odd; otherwise, with a_i = 2 b_i and
    s = b1 + b2 + b3 + b4, the value is

        2 pi^2 * prod_i [(2 b_i)! / (4^{b_i} b_i!)] / (s + 1)!

    an exact rational multiple of pi^2.
    """
    e = tuple(e)
    if len(e) != 4 or any(a < 0 or not isinstance(a, int) for a in e):
        raise ValueError(f"exponents must be four nonnegative integers, got {e}")
    if any(a % 2 for a in e):
        return ExactScalar.zero()
    return ExactScalar({2: _even_moment(e)})


def _even_moment(e: Exponent):
    """The pi^2 coefficient of integrate_monomial(e) for all-even e.

    The exponents are not checked for evenness: callers skip odd ones.
    """
    return _half_moment(tuple(sorted(a // 2 for a in e)))


@functools.cache
def _half_moment(b: Tuple[int, ...]):
    # 2 prod_i [(2 b_i)! / (4^{b_i} b_i!)] / (s + 1)!, keyed by sorted b.
    num = Rat(2)
    for bi in b:
        num = num * Rat(math.factorial(2 * bi), 4 ** bi * math.factorial(bi))
    return num / math.factorial(sum(b) + 1)


@functools.cache
def _monomial_moment_float(e: Exponent) -> float:
    return float(integrate_monomial(e))


def integrate_poly(p):
    """Integral over S^3 of a Poly4 or SphereScalar.

    Linear; agrees with integrate_monomial on monomials.  A SphereScalar is
    integrated through its normal form (same value, the forms agree on S^3).
    Returns an ExactScalar for exact coefficients and a float when any
    coefficient is a float.
    """
    if isinstance(p, SphereScalar):
        p = p.representative()
    if any(isinstance(c, float) for c in p.terms.values()):
        return math.fsum(float(c) * _monomial_moment_float(e)
                         for e, c in p.terms.items())
    den = math.lcm(*(int(c.denominator) for c in p.terms.values()))
    return ExactScalar({2: _moment_sum(
        (e, int(c.numerator) * (den // int(c.denominator)))
        for e, c in p.terms.items()) / den})


def _moment_sum(terms: Iterable[Tuple[Exponent, int]]):
    """sum_e n_e * _even_moment(e) over integer terms (e, n_e), as a backend
    rational: the pi^2 coefficient of the integral of sum_e n_e x^e over
    S^3.  A term with an odd exponent entry has moment zero and is skipped.
    """
    return sum((n * _even_moment(e) for e, n in terms
                if not (e[0] | e[1] | e[2] | e[3]) & 1), Rat(0))


def _common_denominator(scalars: Iterable[SphereScalar]) -> int:
    return math.lcm(*(int(c.denominator) for s in scalars
                      for part in (s.even_part, s.odd_part)
                      for c in part.terms.values()))


def _integer_terms(s: SphereScalar, den: int):
    """The terms of s times den as (exponent, int) lists, keyed by the
    parities of the exponent entries."""
    classes: Dict[Tuple[int, ...], list] = {}
    for part in (s.even_part, s.odd_part):
        for e, c in part.terms.items():
            key = (e[0] & 1, e[1] & 1, e[2] & 1, e[3] & 1)
            classes.setdefault(key, []).append(
                (e, int(c.numerator) * (den // int(c.denominator))))
    return classes


def integrate_products(pairs: Iterable[Tuple[SphereScalar, SphereScalar]]
                       ) -> ExactScalar:
    """Integral over S^3 of sum_k p_k q_k for exact SphereScalars p_k, q_k.

    The products are never formed.  Each side's coefficients are cleared
    to ints with one lcm, the integer products c_a c_b are accumulated by
    exponent sum e_a + e_b, and each sum is weighted by its exact moment;
    the result is divided once.  A sum with an odd entry has moment zero,
    and e_a + e_b is all even exactly when e_a and e_b have the same entry
    parities, so only terms of the same parity class are paired (in
    particular, the even and odd parts of p_k and q_k never meet).
    """
    pairs = list(pairs)
    den_p = _common_denominator(p for p, _ in pairs)
    den_q = _common_denominator(q for _, q in pairs)
    sums: Dict[Exponent, int] = {}
    for p, q in pairs:
        right = _integer_terms(q, den_q)
        for key, left_terms in _integer_terms(p, den_p).items():
            right_terms = right.get(key)
            if right_terms is None:
                continue
            for ea, ca in left_terms:
                for eb, cb in right_terms:
                    e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2],
                         ea[3] + eb[3])
                    sums[e] = sums.get(e, 0) + ca * cb
    return ExactScalar({2: _moment_sum(sums.items()) / (den_p * den_q)})


def directional_derivative(p: SphereScalar, L: Sequence[Sequence[object]]) -> SphereScalar:
    """Derivative of p along the flow of the linear field x -> L x.

    L must be antisymmetric, so the field is tangent to S^3 and the
    derivation descends to the quotient by the sphere relation.
    """
    for i in range(4):
        for j in range(4):
            if Rat(L[i][j]) + Rat(L[j][i]) != 0:
                raise ValueError("matrix is not antisymmetric; "
                                 "the linear field is not tangent to S^3")
    rep = p.representative()
    out = Poly4()
    for j in range(4):
        row = Poly4()
        for m in range(4):
            if L[j][m] != 0:
                row = row + Poly4.variable(m + 1).scale(Rat(L[j][m]))
        if not row.is_zero():
            out = out + row * rep.partial(j + 1)
    return canonicalize(out)
