"""Exact Fourier calculus on the 3-torus and the conformal curl pencil.

T^3 = (R / 2 pi Z)^3 has coordinates (x, y, z) = (phi1, phi2, t), each of
period 2 pi.  A TorusScalar is a finite real Fourier series with rational
cos and sin coefficients; a TorusField has three of them as contravariant
components.  Products, derivatives, means, divergences and curls are exact,
so equality, zero mean and constant speed are exact decisions and no
tolerance decides a result.  The curl is that of the unimodular flat metric
diag(1/n, 1/n, n^2) of beltrami.annulus; n = 1 is the flat torus, where
curl acts on exp(i k . x) as i k x (.).

The conformal pencil is floating point.  Its Beltrami basis of helical
modes has irrational amplitudes, so each field is a plain (wavevector,
complex amplitude) pair, and the factor q enters through the complex
Fourier coefficients of TorusScalar.modes.  Integrals over the volume
(2 pi)^3 reduce to Fourier orthogonality.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .pencil import eigvalsh_diagonal

Wavevector = Tuple[int, int, int]

VOLUME = (2.0 * math.pi) ** 3

_NORM_SQ = 2.0 * VOLUME  # of each field of beltrami_basis (two unit modes)


def _as_wavevector(k: Iterable[int]) -> Wavevector:
    """k as three ints; ValueError unless they are integers, not bools."""
    k = tuple(k)
    if len(k) == 3 and all(type(a) is int for a in k):
        return k
    if len(k) != 3 or not all(isinstance(a, numbers.Integral)
                              and not isinstance(a, bool) for a in k):
        raise ValueError(
            f"wavevectors have three integer components, got {k!r}")
    return tuple(int(a) for a in k)


def _check_real(value, name: str):
    """value if it is a finite real number and not a bool; else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Rational)
                    or math.isfinite(value))):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


def _rational(value, name: str) -> Fraction:
    """A finite real number as its exact Fraction; floats keep every bit."""
    if type(value) is Fraction:
        return value
    _check_real(value, name)
    return Fraction(value if isinstance(value, numbers.Rational)
                    else float(value))


def _neg(k: Wavevector) -> Wavevector:
    return (-k[0], -k[1], -k[2])


def _check_parameter(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"the metric parameter must be a positive "
                         f"integer, got {n!r}")
    return n


def metric_diagonal(n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """The unimodular flat metric diag(1/n, 1/n, n^2), exactly; n = 1 is
    the flat torus."""
    n = _check_parameter(n)
    return Fraction(1, n), Fraction(1, n), Fraction(n * n)


class TorusScalar:
    """A real Fourier series on T^3 with exact rational coefficients.

    terms maps (kind, k) to a nonzero Fraction c, for the term c cos(k . x)
    or c sin(k . x) by kind.  Each k is stored with its first nonzero entry
    positive (cos is even, sin odd) and sin 0 is dropped, so two series are
    equal exactly when their terms are.  The constructor takes
    ((kind, k), c) pairs; a kind other than cos and sin, a wavevector that
    is not three ints, or a coefficient that is not a finite real number
    raises ValueError naming it.  Floats are taken at their exact value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: Dict[Tuple[str, Wavevector], Fraction] = {}
        for (kind, k), c in terms:
            if kind not in ("cos", "sin"):
                raise ValueError(
                    f"a term's kind must be 'cos' or 'sin', got {kind!r}")
            k, c = _as_wavevector(k), _rational(c, "coefficient")
            if k < (0, 0, 0):
                k, c = _neg(k), (-c if kind == "sin" else c)
            merged[kind, k] = merged.get((kind, k), 0) + c
        self.terms = {key: c for key, c in merged.items()
                      if c and (key[0] == "cos" or any(key[1]))}

    @staticmethod
    def zero() -> "TorusScalar":
        return TorusScalar()

    @staticmethod
    def const(c) -> "TorusScalar":
        return TorusScalar([(("cos", (0, 0, 0)), c)])

    @staticmethod
    def cosine(k: Iterable[int], amplitude=1) -> "TorusScalar":
        """amplitude * cos(k . x); the amplitude is a finite real number."""
        return TorusScalar([(("cos", k), _check_real(amplitude,
                                                     "amplitude"))])

    @staticmethod
    def sine(k: Iterable[int], amplitude=1) -> "TorusScalar":
        """amplitude * sin(k . x); the amplitude is a finite real number."""
        return TorusScalar([(("sin", k), _check_real(amplitude,
                                                     "amplitude"))])

    def __add__(self, other: "TorusScalar") -> "TorusScalar":
        return TorusScalar([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "TorusScalar") -> "TorusScalar":
        return self + -1 * other

    def __mul__(self, other) -> "TorusScalar":
        """The product with a TorusScalar, term by term by the
        product-to-sum formulas, or with a finite real number."""
        if not isinstance(other, TorusScalar):
            s = _rational(other, "factor")
            return TorusScalar((key, s * c) for key, c in self.terms.items())
        terms = []
        for (kind1, k1), c1 in self.terms.items():
            for (kind2, k2), c2 in other.terms.items():
                half = c1 * c2 / 2
                plus = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                minus = (k1[0] - k2[0], k1[1] - k2[1], k1[2] - k2[2])
                if kind1 == kind2:  # cos cos and sin sin
                    terms += [(("cos", minus), half), (("cos", plus),
                              half if kind1 == "cos" else -half)]
                else:  # sin cos and cos sin
                    terms += [(("sin", plus), half), (("sin", minus),
                              half if kind1 == "sin" else -half)]
        return TorusScalar(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        """Exact equality with another TorusScalar or a real constant."""
        if isinstance(other, numbers.Real):
            other = TorusScalar.const(other)
        if not isinstance(other, TorusScalar):
            return NotImplemented
        return self.terms == other.terms

    def derivative(self, j: int) -> "TorusScalar":
        """d/dx_j: cos(k.x) -> -k_j sin(k.x), sin(k.x) -> k_j cos(k.x)."""
        return TorusScalar(
            (("sin", k), -k[j] * c) if kind == "cos" else
            (("cos", k), k[j] * c) for (kind, k), c in self.terms.items())

    def mean(self) -> Fraction:
        """The exact mean over the torus: the coefficient of cos 0."""
        return self.terms.get(("cos", (0, 0, 0)), Fraction(0))

    def integral(self) -> float:
        """Integral over the torus: the mean times the volume (2 pi)^3."""
        return float(self.mean()) * VOLUME

    @property
    def modes(self) -> Dict[Wavevector, complex]:
        """The complex Fourier coefficients c_k of exp(i k . x) as floats,
        with c_{-k} = conj(c_k): c cos(k . x) puts c / 2 at k and -k, and
        c sin(k . x) puts c / 2i at k and its negative at -k."""
        out: Dict[Wavevector, complex] = {}
        for (kind, k), c in self.terms.items():
            half = 0.5 * float(c) if kind == "cos" else float(c) / 2j
            for key, value in ((k, half),
                               (_neg(k), half if kind == "cos" else -half)):
                out[key] = out.get(key, 0j) + value
        return out

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, 3) array of points."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for (kind, k), c in self.terms.items():
            wave = np.cos if kind == "cos" else np.sin
            out += float(c) * wave(pts @ np.array(k, dtype=float))
        return out


class TorusField:
    """A vector field on T^3 with three TorusScalar components.

    The components are contravariant, the coefficients of d/dx, d/dy and
    d/dz.  A field need not be divergence free: divergence() is exact.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[TorusScalar]):
        components = tuple(components)
        if len(components) != 3 or not all(
                isinstance(c, TorusScalar) for c in components):
            raise ValueError("a field has three TorusScalar components")
        self.components = components

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusField):
            return NotImplemented
        return self.components == other.components

    def curl(self, n: int = 1) -> "TorusField":
        """Curl in the metric diag(1/n, 1/n, n^2), computed exactly.

        The determinant is one, so over the cyclic (i, j, k) the components
        are (curl X)^i = d_j (g_kk X^k) - d_k (g_jj X^j).
        """
        omega = [g * x for g, x in zip(metric_diagonal(n), self.components)]
        return TorusField(
            omega[(i + 2) % 3].derivative((i + 1) % 3)
            - omega[(i + 1) % 3].derivative((i + 2) % 3) for i in range(3))

    def divergence(self) -> TorusScalar:
        """sum_j d_j X^j, the divergence in every metric of unit
        determinant, the whole family included."""
        return sum((x.derivative(j) for j, x in enumerate(self.components)),
                   TorusScalar())

    def eigen_residual(self, n: int, eigenvalue) -> Tuple[TorusScalar, ...]:
        """Components of curl X - eigenvalue X in the parameter-n metric,
        for a rational eigenvalue."""
        return tuple(c - eigenvalue * x
                     for c, x in zip(self.curl(n).components, self.components))

    def component_means(self) -> Tuple[TorusScalar, ...]:
        """Average of each component over one period of t: its k3 = 0
        terms."""
        return tuple(TorusScalar((key, c) for key, c in x.terms.items()
                                 if key[1][2] == 0) for x in self.components)

    def speed_sq(self) -> TorusScalar:
        """The flat squared speed sum_i (X^i)^2."""
        return sum((x * x for x in self.components), TorusScalar())

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, 3) array of points, shape (N, 3)."""
        return np.stack([x.evaluate(pts) for x in self.components], axis=1)


def abc_field(a, b, c) -> TorusField:
    """The field (a sin z + c cos y, b sin x + a cos z, c sin y + b cos x).

    A curl eigenfield of eigenvalue one for every choice of the three
    finite real amplitudes.
    """
    sin, cos = TorusScalar.sine, TorusScalar.cosine
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    return TorusField([sin(z, a) + cos(y, c), sin(x, b) + cos(z, a),
                       sin(y, c) + cos(x, b)])


def speed_is_constant(u: TorusField):
    """Whether |u|^2 is exactly constant, with a witness mode when it is not.

    Returns (True, None) for constant speed, otherwise (False, k) where k
    is the nonzero wavevector, first nonzero entry positive, whose Fourier
    coefficient of the squared speed is largest in modulus.
    """
    weights: Dict[Wavevector, Fraction] = {}
    for (_, k), c in u.speed_sq().terms.items():
        if any(k):
            weights[k] = weights.get(k, 0) + c * c
    return (False, max(weights, key=weights.get)) if weights else (True, None)


def first_variation(u: TorusField, phidot: TorusScalar) -> float:
    """Integral of phidot |u|^2: the volume response of the energy.

    phidot must have exactly zero mean (a volume-preserving deformation
    rate), else ValueError; the integral is the exact mean of the product
    times the volume (2 pi)^3.
    """
    if phidot.mean() != 0:
        raise ValueError("the deformation rate must have zero mean, got "
                         f"mean {phidot.mean()}")
    return (phidot * u.speed_sq()).integral()


def _helical_pair(k: Wavevector) -> Tuple[np.ndarray, np.ndarray]:
    """An orthonormal pair (e, f) normal to k with e x f = k / |k|."""
    kv = np.array(k, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(kv)))] = 1.0
    e = np.cross(axis, kv)
    e /= np.linalg.norm(e)
    f = np.cross(kv / np.linalg.norm(kv), e)
    return e, f


def beltrami_basis(kmax: int) -> Tuple[List[Tuple[Wavevector, np.ndarray]],
                                       List[float]]:
    """Real curl eigenfields spanning all shells with 0 < |k| <= kmax.

    A field (k, h) is h exp(i k . x) + conj(h) exp(-i k . x), with h a
    complex 3-vector normal to k.  For each wavevector (one per antipodal
    pair) and each helicity sign the two real parts of the helical mode are
    returned, along with the list of curl eigenvalues +-|k|.
    """
    if isinstance(kmax, bool) or not isinstance(kmax, int) or kmax < 1:
        raise ValueError(f"kmax must be an int >= 1, got {kmax!r}")
    fields: List[Tuple[Wavevector, np.ndarray]] = []
    eigenvalues: List[float] = []
    bound = kmax * kmax
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            for kz in range(-kmax, kmax + 1):
                k = (kx, ky, kz)
                norm_sq = kx * kx + ky * ky + kz * kz
                if norm_sq == 0 or norm_sq > bound:
                    continue
                if k < _neg(k):
                    continue
                e, f = _helical_pair(k)
                for sign in (1.0, -1.0):
                    h = (e + sign * 1j * f) / math.sqrt(2.0)
                    for amp in (h, 1j * h):
                        fields.append((k, amp))
                        eigenvalues.append(sign * math.sqrt(norm_sq))
    return fields, eigenvalues


@functools.lru_cache(maxsize=None, typed=True)
def _pair_tables(kmax: int):
    """The Beltrami basis, its read-only mus and pair tables, once per kmax.

    waves[:, s, r, i, j] sums the wavevectors of mode s of field i and mode r
    of field j, and products[s, r, i, j] dots their amplitudes; mode 0 of a
    field (k, h) is h at k and mode 1 conj(h) at -k."""
    fields, mus = beltrami_basis(kmax)
    mus = np.array(mus)
    mus.flags.writeable = False
    k = np.array([(k, _neg(k)) for k, _ in fields]).T
    waves = np.ascontiguousarray(k[:, :, None, :, None] +
                                 k[:, None, :, None, :])
    a = np.array([(h, h.conjugate()) for _, h in fields]).swapaxes(0, 1)
    a = a.reshape(-1, 3)
    products = (a @ a.T).reshape(2, len(fields), 2, -1).swapaxes(1, 2).copy()
    return fields, mus, waves, products


def _weighted_mass(waves, products, modes: Dict[Wavevector, complex]):
    """The matrix of integral q <e_i, e_j> for q with the given modes."""
    total = np.zeros(products.shape[2:], dtype=complex)
    for k, c in modes.items():
        match = np.all(waves == np.reshape(_neg(k), (3, 1, 1, 1, 1)), axis=0)
        total += c * np.where(match, products, 0).sum(axis=(0, 1))
    return total.real * VOLUME


class TorusPencil:
    """The pencil A c = mu b(t) c for the metric (1 + t q)^2 delta on T^3.

    The Beltrami basis is orthogonal with every squared norm N = 2 (2 pi)^3,
    so in the normalized basis A = diag(mus), mus read-only, and b(t) =
    I + t mass_q / N, where mass_q holds integral q <e_i, e_j>: the
    orthonormal form of the conformal pencil on S^3, with no zero block.
    q must be a TorusScalar (TypeError otherwise), t a finite real, no bool.
    """

    def __init__(self, q: TorusScalar, t: float, kmax: int):
        if not isinstance(q, TorusScalar):
            raise TypeError("q must be a TorusScalar")
        self.q = q
        self.t = _check_real(t, "t")
        self.kmax = kmax
        self.fields, self.mus, waves, products = _pair_tables(kmax)
        self.mass_q = _weighted_mass(waves, products, q.modes)
        self.b = np.eye(len(self.mus)) + (t / _NORM_SQ) * self.mass_q

    def eigenvalues(self) -> np.ndarray:
        return eigvalsh_diagonal(self.mus, self.b, 0)

    def mu1_group_derivatives(self) -> np.ndarray:
        """First-order t-derivatives of the smallest positive eigenvalue
        group at t = 0.

        The group at mu = 1 is degenerate, so the derivatives are the
        eigenvalues of the whitened mass block -mass_q / (2 (2 pi)^3) on
        the columns with mu == 1.0 (exact, as sqrt(1) is 1.0): no pencil
        is solved.
        """
        group = np.nonzero(self.mus == 1.0)[0]
        if group.size == 0:
            raise RuntimeError("the basis carries no eigenvalue-one group")
        return np.linalg.eigvalsh(-self.mass_q[np.ix_(group, group)]
                                  / _NORM_SQ)


def torus_pencil(q: TorusScalar, t: float = 0.0,
                 kmax: int = 1) -> TorusPencil:
    """Assemble the conformal curl pencil on the torus."""
    return TorusPencil(q, t, kmax)
