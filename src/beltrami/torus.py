"""Beltrami fields and conformal eigenvalue perturbation on the flat torus.

Fields on T^3 = (R / 2 pi Z)^3 are finite Fourier series

    u(x) = sum_k a_k exp(i k . x),    a_{-k} = conj(a_k),  k . a_k = 0,

with integer wavevectors.  Curl acts mode by mode as i k x (.), so each
shell |k| = const carries curl eigenfields of eigenvalues +-|k| spanned by
helical polarization vectors.  All integrals reduce to Fourier
orthogonality over the volume (2 pi)^3 and are therefore exact up to float
rounding.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .pencil import eigvalsh_diagonal

Wavevector = Tuple[int, int, int]

VOLUME = (2.0 * math.pi) ** 3

_NORM_SQ = 2.0 * VOLUME  # of each field of beltrami_basis (two unit modes)

_SYMMETRY_TOLERANCE = 1e-12


def _as_wavevector(k: Iterable[int]) -> Wavevector:
    """k as three ints; ValueError unless they are integers, not bools."""
    k = tuple(k)
    if len(k) != 3 or not all(isinstance(a, numbers.Integral)
                              and not isinstance(a, bool) for a in k):
        raise ValueError(
            f"wavevectors have three integer components, got {k!r}")
    return tuple(int(a) for a in k)


def _check_real(value, name: str):
    """value if it is a finite real number and not a bool; else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


def _neg(k: Wavevector) -> Wavevector:
    return (-k[0], -k[1], -k[2])


class TorusScalar:
    """A real trigonometric polynomial on T^3 as a Fourier coefficient map.

    modes maps wavevectors to complex coefficients with the reality
    constraint coeff(-k) = conj(coeff(k)).
    """

    __slots__ = ("modes",)

    def __init__(self, modes: Dict[Wavevector, complex]):
        cleaned: Dict[Wavevector, complex] = {}
        for k, c in modes.items():
            c = complex(c)
            if c != 0:
                cleaned[_as_wavevector(k)] = c
        for k, c in cleaned.items():
            mirror = cleaned.get(_neg(k), 0j)
            if abs(mirror - c.conjugate()) > _SYMMETRY_TOLERANCE:
                raise ValueError(
                    f"coefficients at {k} and {_neg(k)} violate the "
                    "reality constraint")
        self.modes = cleaned

    @staticmethod
    def zero() -> "TorusScalar":
        return TorusScalar({})

    @staticmethod
    def const(c: float) -> "TorusScalar":
        return TorusScalar({(0, 0, 0): complex(c)})

    @staticmethod
    def cosine(k: Iterable[int], amplitude: float = 1.0) -> "TorusScalar":
        """amplitude * cos(k . x); the amplitude is a finite real number."""
        k = _as_wavevector(k)
        amplitude = _check_real(amplitude, "amplitude")
        if k == (0, 0, 0):
            return TorusScalar.const(amplitude)
        return TorusScalar({k: 0.5 * amplitude, _neg(k): 0.5 * amplitude})

    @staticmethod
    def sine(k: Iterable[int], amplitude: float = 1.0) -> "TorusScalar":
        """amplitude * sin(k . x); the amplitude is a finite real number."""
        k = _as_wavevector(k)
        amplitude = _check_real(amplitude, "amplitude")
        if k == (0, 0, 0):
            return TorusScalar.zero()
        half = amplitude / 2j
        return TorusScalar({k: half, _neg(k): -half})

    def __add__(self, other: "TorusScalar") -> "TorusScalar":
        out = dict(self.modes)
        for k, c in other.modes.items():
            out[k] = out.get(k, 0j) + c
        return TorusScalar(out)

    def __sub__(self, other: "TorusScalar") -> "TorusScalar":
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "TorusScalar":
        return TorusScalar({k: s * c for k, c in self.modes.items()})

    def mean(self) -> float:
        return self.modes.get((0, 0, 0), 0j).real

    def integral(self) -> float:
        """Integral over the torus: the mean times the volume (2 pi)^3."""
        return self.mean() * VOLUME

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, 3) array of points."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0], dtype=complex)
        for k, c in self.modes.items():
            out += c * np.exp(1j * pts @ np.array(k, dtype=float))
        return out.real


class TorusField:
    """A real divergence-free trigonometric vector field on T^3.

    modes maps wavevectors to complex 3-component amplitudes with
    amp(-k) = conj(amp(k)) and k . amp(k) = 0, so the field is real and
    divergence free mode by mode.
    """

    __slots__ = ("modes",)

    def __init__(self, modes: Dict[Wavevector, Sequence[complex]]):
        cleaned: Dict[Wavevector, np.ndarray] = {}
        for k, amp in modes.items():
            amp = np.asarray(amp, dtype=complex)
            if amp.shape != (3,):
                raise ValueError("amplitudes must have three components")
            if np.any(amp != 0):
                cleaned[_as_wavevector(k)] = amp
        for k, amp in cleaned.items():
            mirror = cleaned.get(_neg(k))
            mirror = np.zeros(3, dtype=complex) if mirror is None else mirror
            if np.max(np.abs(mirror - amp.conjugate())) > \
                    _SYMMETRY_TOLERANCE:
                raise ValueError(
                    f"amplitudes at {k} and {_neg(k)} violate the reality "
                    "constraint")
            divergence = np.dot(np.array(k, dtype=float), amp)
            if abs(divergence) > _SYMMETRY_TOLERANCE:
                raise ValueError(f"mode {k} is not divergence free")
        self.modes = cleaned

    def __add__(self, other: "TorusField") -> "TorusField":
        out = {k: a.copy() for k, a in self.modes.items()}
        for k, a in other.modes.items():
            out[k] = out.get(k, np.zeros(3, dtype=complex)) + a
        return TorusField(out)

    def scale(self, s: float) -> "TorusField":
        return TorusField({k: s * a for k, a in self.modes.items()})

    def curl(self) -> "TorusField":
        """Curl acts per mode as i k x amplitude."""
        return TorusField({
            k: 1j * np.cross(np.array(k, dtype=float), a)
            for k, a in self.modes.items()})

    def dot(self, other: "TorusField") -> TorusScalar:
        """The pointwise inner product as a trigonometric polynomial."""
        out: Dict[Wavevector, complex] = {}
        for k1, a1 in self.modes.items():
            for k2, a2 in other.modes.items():
                m = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[m] = out.get(m, 0j) + complex(np.dot(a1, a2))
        return TorusScalar(out)

    def speed_sq(self) -> TorusScalar:
        return self.dot(self)

    def l2_inner(self, other: "TorusField") -> float:
        return self.dot(other).integral()

    def norm_sq(self) -> float:
        return self.l2_inner(self)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, 3) array of points, shape (N, 3)."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros((pts.shape[0], 3), dtype=complex)
        for k, a in self.modes.items():
            out += np.exp(1j * pts @ np.array(k, dtype=float))[:, None] \
                * a[None, :]
        return out.real


def abc_field(a: float, b: float, c: float) -> TorusField:
    """The field (a sin z + c cos y, b sin x + a cos z, c sin y + b cos x).

    A curl eigenfield of eigenvalue one for every choice of the three
    amplitudes.
    """
    modes: Dict[Wavevector, np.ndarray] = {}

    def add(k: Wavevector, amp: Sequence[complex]) -> None:
        amp = np.asarray(amp, dtype=complex)
        modes[k] = modes.get(k, np.zeros(3, dtype=complex)) + amp
        mk = _neg(k)
        modes[mk] = modes.get(mk, np.zeros(3, dtype=complex)) + \
            amp.conjugate()

    half, skew = 0.5, 0.5 / 1j
    add((0, 0, 1), (a * skew, a * half, 0))
    add((0, 1, 0), (c * half, 0, c * skew))
    add((1, 0, 0), (0, b * skew, b * half))
    return TorusField(modes)


def speed_is_constant(u: TorusField,
                      tolerance: float = 1e-12):
    """Whether |u|^2 is constant, with a witness mode when it is not.

    Returns (True, None) for constant speed, otherwise (False, k) where k
    is the nonzero wavevector carrying the largest Fourier coefficient of
    the squared speed.
    """
    speed = u.speed_sq()
    worst_k, worst = None, tolerance
    for k, c in speed.modes.items():
        if k != (0, 0, 0) and abs(c) > worst:
            worst_k, worst = k, abs(c)
    return (worst_k is None), worst_k


def first_variation(u: TorusField, phidot: TorusScalar) -> float:
    """Integral of phidot |u|^2: the volume response of the energy.

    phidot must have zero mean (a volume-preserving deformation rate); the
    integral is exact by Fourier orthogonality.
    """
    if abs(phidot.mean()) > _SYMMETRY_TOLERANCE:
        raise ValueError("the deformation rate must have zero mean")
    speed = u.speed_sq()
    total = 0j
    for k, c in phidot.modes.items():
        partner = speed.modes.get(_neg(k))
        if partner is not None:
            total += c * partner
    return total.real * VOLUME


def _helical_pair(k: Wavevector) -> Tuple[np.ndarray, np.ndarray]:
    """An orthonormal pair (e, f) normal to k with e x f = k / |k|."""
    kv = np.array(k, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(kv)))] = 1.0
    e = np.cross(axis, kv)
    e /= np.linalg.norm(e)
    f = np.cross(kv / np.linalg.norm(kv), e)
    return e, f


def beltrami_basis(kmax: int) -> Tuple[List[TorusField], List[float]]:
    """Real curl eigenfields spanning all shells with 0 < |k| <= kmax.

    For each wavevector (one per antipodal pair) and each helicity sign the
    two real parts of the helical mode are returned, along with the list of
    curl eigenvalues +-|k|.
    """
    if isinstance(kmax, bool) or not isinstance(kmax, int) or kmax < 1:
        raise ValueError(f"kmax must be an int >= 1, got {kmax!r}")
    fields: List[TorusField] = []
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
                        fields.append(TorusField({
                            k: amp, _neg(k): amp.conjugate()}))
                        eigenvalues.append(sign * math.sqrt(norm_sq))
    return fields, eigenvalues


@functools.lru_cache(maxsize=None, typed=True)
def _pair_tables(kmax: int):
    """The Beltrami basis, its read-only mus and pair tables, once per kmax.

    waves[:, s, r, i, j] sums the wavevectors of mode s of field i and mode r
    of field j, and products[s, r, i, j] dots their amplitudes."""
    fields, mus = beltrami_basis(kmax)
    mus = np.array(mus)
    mus.flags.writeable = False
    k = np.array([list(f.modes) for f in fields]).T
    waves = np.ascontiguousarray(k[:, :, None, :, None] +
                                 k[:, None, :, None, :])
    a = np.array([list(f.modes.values()) for f in fields]).swapaxes(0, 1)
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
