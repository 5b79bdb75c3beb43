"""Host-speed probe: rescales measured times to the reference speed.

The reference machine is a VM on a shared host whose speed switches, for
half a minute to several minutes at a time, between modes in which the same
code runs up to 1.9 times slower.  Process CPU time slows just as much, and
no steal time shows, so no clock of the guest can tell the modes apart.  A
run is too short to average over them, so raw times from one run to the
next spread by more than any useful bound.

The probe measures the host's speed while the workload runs.  A timer
signal interrupts the workload every ``INTERVAL_S`` seconds, and the handler
times three fixed kernels of the benchmark's own:

- ``python``: exact-rational dictionary arithmetic in pure Python, the kind
  of code of the exact layer, the float series and the torus pencils;
- ``grid``: numpy arithmetic on arrays of the quadrature grid's size, the
  kind of code of the energy and its differences;
- ``lapack``: a dense generalized symmetric eigensolve, the kind of code of
  the conformal scans.

The modes slow the kinds by different amounts: on the reference machine
the python kernel ran 1.9 times slower at worst and the grid kernel 1.4
times.  A stretch of the workload is rescaled by the mean over the samples
taken during it of the kernel's reference time over its measured time, with
the kernel of the kind of code the stretch spends its time in.  The result
is in reference seconds: the time the stretch would have taken with each
kernel at its reference time.  The handler's own time is taken out of every
stretch first.

A change to the library cannot change the kernels, so a change that makes
the library faster lowers the rescaled time by the same share as the raw
one.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PYTHON, GRID, LAPACK = "python", "grid", "lapack"
# Seconds between two samples of the host speed.
INTERVAL_S = 0.25
# One sample is the fastest of this many runs of each kernel, so that an
# interrupt during one of them does not count as a slow host.
REPEATS = 2
# Each kernel's time in the fast mode of the reference machine (2 vCPUs of
# an Intel Xeon host, one BLAS thread); they only fix the unit.
REFERENCE_S = {PYTHON: 2.8e-4, GRID: 1.02e-3, LAPACK: 4.5e-4}
# Stretches with fewer samples than this borrow samples from around them.
MIN_SAMPLES = 3
MARGIN_S = 1.0
GRID_POINTS = 55296
PENCIL_ORDER = 96


def python_kernel() -> int:
    """A fixed piece of exact-rational dictionary arithmetic."""
    terms = {}
    for i in range(1, 25):
        for j in range(1, 7):
            key = (i % 6, j % 4)
            terms[key] = terms.get(key, 0) + Fraction(i, j + 1)
    return len(terms) + sum(v.numerator % 7 for v in terms.values())


def array_kernels() -> dict:
    """The grid and lapack kernels, built once numpy and scipy are
    imported."""
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, GRID_POINTS))
    m = rng.standard_normal((2, PENCIL_ORDER, PENCIL_ORDER))
    a = m[0] @ m[0].T
    b = m[1] @ m[1].T + PENCIL_ORDER * np.eye(PENCIL_ORDER)

    def grid_kernel() -> float:
        return float(np.sum(np.maximum(x * y + x, 0.0) ** 0.75))

    def lapack_kernel() -> float:
        return float(scipy.linalg.eigh(a, b, eigvals_only=True)[0])

    return {GRID: grid_kernel, LAPACK: lapack_kernel}


class Probe:
    """Samples the host speed from a timer signal while it is started."""

    def __init__(self):
        self.kernels = {PYTHON: python_kernel}
        # midpoint and fastest kernel time of each sample, per kernel
        self.times = {code: [] for code in REFERENCE_S}
        self.seconds = {code: [] for code in REFERENCE_S}
        self.pauses = []     # (start, end) of each handler run
        self.clock = time.perf_counter

    def _sample(self, signum=None, frame=None) -> None:
        start = self.clock()
        for code, kernel in self.kernels.items():
            begin = self.clock()
            best = float("inf")
            for _ in range(REPEATS):
                t = self.clock()
                kernel()
                best = min(best, self.clock() - t)
            self.times[code].append(0.5 * (begin + self.clock()))
            self.seconds[code].append(best)
        self.pauses.append((start, self.clock()))

    def start(self) -> None:
        """Sample now and from the timer, the python kernel only."""
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def add_array_kernels(self) -> None:
        """Sample the grid and lapack kernels too, from after the set-up,
        so that the probe adds no import to the measured set-up."""
        self.kernels.update(array_kernels())
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def paused(self, start: float, end: float) -> float:
        """Seconds that handler runs took inside [start, end]."""
        first = bisect.bisect_left(self.pauses, (start, start))
        total = 0.0
        for p_start, p_end in self.pauses[max(first - 1, 0):]:
            if p_start >= end:
                break
            total += max(0.0, min(end, p_end) - max(start, p_start))
        return total

    def speed(self, start: float, end: float, code: str = PYTHON) -> float:
        """The host's speed for `code` during [start, end], against the
        reference: the trimmed mean of the samples taken inside it, or
        around it when it holds fewer than MIN_SAMPLES."""
        times, seconds = self.times[code], self.seconds[code]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi - lo < MIN_SAMPLES:
            lo = bisect.bisect_left(times, start - MARGIN_S)
            hi = bisect.bisect_right(times, end + MARGIN_S)
        if hi - lo >= MIN_SAMPLES:
            chosen = seconds[lo:hi]
        else:
            middle = 0.5 * (start + end)
            nearest = sorted(range(len(times)),
                             key=lambda i: abs(times[i] - middle))
            chosen = [seconds[i] for i in nearest[:MIN_SAMPLES]]
        speeds = sorted(REFERENCE_S[code] / s for s in chosen)
        cut = len(speeds) // 10
        kept = speeds[cut:len(speeds) - cut]
        return sum(kept) / len(kept)

    def raw(self, start: float, end: float) -> float:
        """Seconds of [start, end] that were not the probe's own."""
        return end - start - self.paused(start, end)

    def scaled(self, start: float, end: float, code: str = PYTHON) -> float:
        """Reference seconds of [start, end] for code of kind `code`."""
        return self.raw(start, end) * self.speed(start, end, code)
