"""The benchmark workloads: seeded inputs, timed operations and their checks.

A workload has a set-up, run once in each fresh interpreter before timing,
and a generator of operations.  An operation is one timed call into the
library; its check runs untimed right after it.  The generator receives the
value of each call, so later inputs can be built from earlier outputs.  The
runner calls and checks an operation before it resumes the generator, so the
closures below may refer to loop variables directly.

A run may split its operations between several fresh interpreters; part i
of a run draws every input from ``numpy.random.default_rng([seed, i])``, so
``--seed`` fixes the inputs.  The library sees only the generated inputs.
The number of operations is fixed per workload and size, so that it can be
checked exactly.  Each operation names the kind of code it spends its time
in, python, grid or lapack, so that its time is rescaled by the matching
kernel of the host-speed probe (hostspeed.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from beltrami import (annulus, atlas, conformal, exactpoly, frames,
                      functionals, quadrature, torus)
from hostspeed import GRID, LAPACK, PYTHON

ATLAS = (2, -2, 3, -3, 4, -4, 5, -5)

# Exact counts of the seed tree; any other value fails the run.
SOLVER_DIMS = {0: (19, 13), 1: (51, 29), 2: (106, 54), 3: (190, 90),
               4: (309, 139), 5: (469, 203)}
PENCIL_ORDERS = {("s3", 2): (81, 29), ("s3", 3): (154, 54),
                 ("s3", 4): (260, 90), ("rp3", 2): (45, 9),
                 ("rp3", 3): (70, 34), ("rp3", 4): (140, 34)}
DEFAULT_GRID_POINTS = 55296
TORUS_KMAX = 2
TORUS_BASIS_SIZE = 64
FLAT_TORUS_MULTIPLICITY = 6

# Identity-report rows that compare against published constants known to be
# wrong; they must keep failing.
KNOWN_DISCREPANCIES = frozenset({"d6f-z2-leading-reference",
                                 "degenerate-sixth-order-leading-reference"})

ROUND_S3 = 2.0 * (2.0 * math.pi ** 2) ** (1.0 / 3.0)
ROUND_RP3 = 2.0 * math.pi ** (2.0 / 3.0)


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark size ("full" or "smoke")."""

    atlas: Tuple[int, ...]
    solve_orders: Tuple[int, ...]
    decompose_parts: Tuple[int, ...]   # atlas eigenvalues of the summands
    decompose_order: int               # solver order the decompose needs
    helicity_ops: int
    helicity_atlas: Tuple[int, ...]
    conformal_dmax: int
    conformal_rounds: int              # keeps >= 10 op samples beyond p90
    hopf_rounds: int                   # likewise
    identity_draws: int
    scan_samples: int


SIZES = {
    "full": Size(atlas=ATLAS, solve_orders=(0, 1, 2, 3),
                 decompose_parts=(2, 3, -5), decompose_order=5,
                 helicity_ops=16, helicity_atlas=ATLAS,
                 conformal_dmax=3, conformal_rounds=22,
                 hopf_rounds=9, identity_draws=20, scan_samples=20),
    "smoke": Size(atlas=(2, -2, 3), solve_orders=(0, 1),
                  decompose_parts=(2, 3), decompose_order=1,
                  helicity_ops=2, helicity_atlas=(2, -2, 3),
                  conformal_dmax=2, conformal_rounds=2,
                  hopf_rounds=2, identity_draws=2, scan_samples=5),
}


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # Pure-Python loops (exact layer, float series, torus pencils), numpy
    # on the quadrature grid, or dense eigensolves (conformal scans).
    code: str = PYTHON


def _dimension(mu: int) -> int:
    k = abs(mu) - 2
    return (k + 1) * (k + 3)


def _solver_ok(result, d: int) -> bool:
    dims_ok = all(result.dimension(s * m) == _dimension(m)
                  for m in range(2, d + 3) for s in (1, -1))
    return dims_ok and (result.trial_dimension,
                        result.gradient_dimension) == SOLVER_DIMS[d]


def _share(total: int, part: int, parts: int) -> range:
    """The rounds of `total` that child `part` of `parts` runs."""
    return range(part * total // parts, (part + 1) * total // parts)


def _share_list(items: list, part: int, parts: int) -> list:
    return [items[i] for i in _share(len(items), part, parts)]


# ---------------------------------------------------------------------------
# exact-cold: one cold pass of the exact pipeline


def exact_setup(size: Size) -> Dict[str, object]:
    return {}


def exact_setup_ok(counts, size: Size) -> bool:
    return True


def exact_op_count(size: Size, part: int, parts: int) -> int:
    if part:
        return 0
    # atlas, curl checks, decompose, order-5 solve, solves, helicities, annulus
    return (1 + sum(_dimension(mu) for mu in size.atlas) + 1 + 1
            + len(size.solve_orders) + size.helicity_ops + 1)


def exact_traced(size: Size) -> Tuple[str, ...]:
    orders = (*size.solve_orders, size.decompose_order)
    return ("exactpoly.mul_calls", "exactpoly.canonicalize_calls",
            "frames.curl_calls", "solver.project_calls",
            *(f"solver.{name}.d{d}" for d in orders
              for name in ("solve_s", "trial_dim", "gradient_dim")),
            "atlas.explicit_s", "atlas.decompose_s", "atlas.helicity_s",
            "annulus.eigenfields_s",
            *(f"{layer}.self_s" for layer in ("exactpoly", "frames", "solver",
                                              "atlas", "annulus")))


def _curl_op(mu: int, f) -> Op:
    return Op("curl-check", lambda: frames.curl(f), lambda g: g == f.scale(mu))


def _solve_op(d: int) -> Op:
    return Op("solve", lambda: atlas.eigenspace_solve(d),
              lambda r: _solver_ok(r, d))


def _decompose_op(size: Size) -> Op:
    """The acceptance field B1 + u_1 + (third -5 field)."""
    parts = {mu: atlas.explicit_basis(mu).fields[2 if mu == -5 else 0]
             for mu in size.decompose_parts}
    field = frames.FrameField.zero()
    for part in parts.values():
        field = field + part
    return Op("decompose", lambda: atlas.eigen_decompose(field),
              lambda dec: set(dec.components) == set(parts)
              and all(dec.component(mu) == p for mu, p in parts.items()))


def _helicity_op(rng: np.random.Generator, size: Size) -> Op:
    """Helicity of an integer combination of every atlas field, checked
    exactly against sum c^2 |f|^2 / mu (the basis is orthogonal).  Only the
    coefficients are drawn, so the cost of an op hardly depends on the seed.
    """
    combo = frames.FrameField.zero()
    expected = exactpoly.ExactScalar.zero()
    for mu in size.helicity_atlas:
        entry = atlas.explicit_basis(mu)
        for field, norm in zip(entry.fields, entry.squared_norms):
            c = int(rng.choice((-3, -2, -1, 1, 2, 3)))
            combo = combo + field.scale(c)
            expected = expected + norm.scale(exactpoly.Rat(c * c, mu))
    return Op("helicity", lambda: atlas.helicity(combo),
              lambda h: h == expected)


def _annulus_op(n: int) -> Op:
    def eigen_residuals():
        mu = annulus.first_eigenvalue(n)
        return [v.eigen_residual(n, mu) for v in annulus.first_eigenfields(n)]

    return Op("annulus", eigen_residuals,
              lambda res: all(c == 0 for r in res for c in r))


def exact_ops(rng: np.random.Generator, size: Size, seed: int,
              part: int, parts: int) -> Iterator[Op]:
    """One cold pass, in the first interpreter of the run only: a cold pass
    cannot repeat in the same interpreter.  The others time the set-up.

    The atlas is built first, then the acceptance field is decomposed and
    the order-5 solve is read back.  Today the decompose builds the order-5
    blocks and the solve finds them cached; a solver that picks a lower
    order for the decompose leaves that build to the solve op, so the
    pass times it either way.  The smaller solves, the helicities and the
    annulus follow, interleaved, with the per-field curl checks spread
    evenly between them.  So the median and the 90th-percentile op each
    sample a long stretch of the pass, all of it after the large blocks
    exist, rather than one short burst.
    """
    if part:
        return
    entries = yield Op(
        "atlas-build", lambda: [atlas.explicit_basis(mu) for mu in size.atlas],
        lambda es: [e.dimension for e in es]
        == [_dimension(mu) for mu in size.atlas])
    checks = [_curl_op(mu, f) for mu, entry in zip(size.atlas, entries)
              for f in entry.fields]
    yield _decompose_op(size)
    yield _solve_op(size.decompose_order)
    helicities = [_helicity_op(rng, size) for _ in range(size.helicity_ops)]
    steps = []
    for i, d in enumerate(size.solve_orders):
        steps.append(_solve_op(d))
        steps += _share_list(helicities, i, len(size.solve_orders))
    steps.append(_annulus_op(int(rng.integers(1, 11))))
    for i, step in enumerate(steps):
        yield step
        for check in _share_list(checks, i, len(steps)):
            yield check


# ---------------------------------------------------------------------------
# conformal-sweep: optimality scans on S^3 and RP^3, plus torus pencils


def _monomials(degrees):
    return [(a, b, c, d - a - b - c) for d in degrees
            for a in range(d + 1) for b in range(d + 1 - a)
            for c in range(d + 1 - a - b)]


def _factor_degrees(manifold: str):
    return (1, 2) if manifold == "s3" else (2,)


def _normalized_factor(coefficients) -> exactpoly.SphereScalar:
    """sum c_e x^e / sum |c_e|, so |q| <= 1 on the sphere."""
    total = sum(abs(c) for c in coefficients.values())
    poly = exactpoly.Poly4.zero()
    for e, c in coefficients.items():
        if c:
            poly = poly + exactpoly.Poly4.monomial(e, exactpoly.Rat(c, total))
    return exactpoly.canonicalize(poly)


def _random_factor(rng, manifold: str) -> exactpoly.SphereScalar:
    monomials = _monomials(_factor_degrees(manifold))
    while True:
        coefficients = dict(zip(monomials, (int(c) for c in rng.integers(
            -9, 10, size=len(monomials)))))
        if any(coefficients.values()):
            return _normalized_factor(coefficients)


def _random_torus_factor(rng) -> "torus.TorusScalar":
    amplitudes = rng.standard_normal(3)
    amplitudes /= np.sum(np.abs(amplitudes))
    q = torus.TorusScalar.zero()
    for amplitude in amplitudes:
        k = (0, 0, 0)
        while k == (0, 0, 0):
            k = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        mode = torus.TorusScalar.cosine if rng.random() < 0.5 else \
            torus.TorusScalar.sine
        q = q + mode(k, float(amplitude))
    return q


def conformal_setup(size: Size) -> Dict[str, object]:
    """Fill the trial bases and moment tables of both pencil orders.

    The factor uses every monomial a sweep factor can contain, so the
    per-monomial moment tables are built here and not in the first ops.
    """
    orders, solver_dims = {}, {}
    for manifold in ("s3", "rp3"):
        q = _normalized_factor({e: 1 for e in _monomials(
            _factor_degrees(manifold))})
        for d in (size.conformal_dmax, size.conformal_dmax + 1):
            pencil = conformal.assemble_pencil(
                manifold, conformal.ConformalFactor(q, 0.01), d)
            pencil.mu1_normalized()
            orders[f"{manifold}.d{d}"] = (pencil.a.shape[0],
                                          pencil.gradient_count)
    # The bases hold the solves of both orders; reading them back is cheap.
    for d in (size.conformal_dmax, size.conformal_dmax + 1):
        result = atlas.eigenspace_solve(d)
        solver_dims[f"d{d}"] = (result.trial_dimension,
                                result.gradient_dimension)
    return {"pencil_orders": orders, "solver_dims": solver_dims}


def conformal_setup_ok(counts, size: Size) -> bool:
    orders = (size.conformal_dmax, size.conformal_dmax + 1)
    return (all(tuple(counts["pencil_orders"][f"{m}.d{d}"])
                == PENCIL_ORDERS[(m, d)] for m in ("s3", "rp3")
                for d in orders)
            and all(tuple(counts["solver_dims"][f"d{d}"]) == SOLVER_DIMS[d]
                    for d in orders))


def conformal_traced(size: Size) -> Tuple[str, ...]:
    orders = (size.conformal_dmax, size.conformal_dmax + 1)
    return (*(f"solver.solve_s.d{d}" for d in orders),
            # the tracer keeps basis times for orders 3 and 4 only
            *(f"conformal.{name}.{m}.d{d}" for m in ("s3", "rp3")
              for d in orders if d in (3, 4)
              for name in ("basis_s", "pencil_order")),
            "conformal.factor_ms", "conformal.assemble_ms",
            "conformal.eigh_ms", "conformal.pencils", "torus.pencil_ms",
            "torus.basis_size", "solver.self_s", "conformal.self_s",
            "torus.self_s")


def _scan_ok(rows, manifold: str) -> bool:
    base = ROUND_S3 if manifold == "s3" else ROUND_RP3
    zero = [r for r in rows if r["t"] == 0.0]
    return (len(rows) == len(conformal.DEFAULT_AMPLITUDES)
            and all(r["pass"] for r in rows) and len(zero) == 1
            and abs(zero[0]["mu1_normalized"] - base) <= 1e-10 * base)


def _torus_ok(result) -> bool:
    eigenvalues, derivatives, basis_size = result
    # |t q| <= 0.05 moves the unit group by far less than the gap to
    # sqrt(2), so the group keeps its six eigenvalues below 1.2.
    group = int(np.sum((eigenvalues > 0) & (eigenvalues < 1.2)))
    return (basis_size == TORUS_BASIS_SIZE
            and group == FLAT_TORUS_MULTIPLICITY
            and len(derivatives) == FLAT_TORUS_MULTIPLICITY
            and abs(float(np.sum(derivatives))) <= 1e-12)


# One round: s3 and rp3 scans alternate, and every third op is a t3 pencil.
CONFORMAL_ROUND = ("s3", "rp3", "t3", "s3", "rp3", "t3")


def conformal_op_count(size: Size, part: int, parts: int) -> int:
    return len(CONFORMAL_ROUND) * len(_share(size.conformal_rounds, part,
                                             parts))


def conformal_ops(rng: np.random.Generator, size: Size, seed: int,
                  part: int, parts: int) -> Iterator[Op]:
    for r in _share(size.conformal_rounds, part, parts):
        for manifold in CONFORMAL_ROUND:
            if manifold == "t3":
                q = _random_torus_factor(rng)
                t = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.05))

                def pencil():
                    p = torus.torus_pencil(q, t, kmax=TORUS_KMAX)
                    return (p.eigenvalues(), p.mu1_group_derivatives(),
                            len(p.fields))

                yield Op("t3", pencil, _torus_ok)
            else:
                q = _random_factor(rng, manifold)
                yield Op(manifold, lambda: conformal.optimality_scan(
                    [(f"q{r}", q)], manifold, dmax=size.conformal_dmax),
                    lambda rows: _scan_ok(rows, manifold), LAPACK)


# ---------------------------------------------------------------------------
# hopf-functionals: derivative series, energies and scans at the Hopf field

F_AT_HOPF = (2.0 * math.pi ** 2) ** (4.0 / 3.0) / math.pi ** 2
# Steps h of the central differences; each takes F at +-h and +-2h.
STEPS = (1e-3, 2e-3)
# D^2..D^6 E, D^1..D^6 F, and one central difference per step.  A difference
# (four values of F) costs two to three series ops, and the differences are
# 15 % of the ops, so the 90th-percentile op lies inside them.  Otherwise it
# would be the slowest series op, which a few seconds of slower host move.
HOPF_ROUND_OPS = 5 + 6 + len(STEPS)


def hopf_op_count(size: Size, part: int, parts: int) -> int:
    rounds = _share(size.hopf_rounds, part, parts)
    return 2 * (part == 0) + HOPF_ROUND_OPS * len(rounds)


def hopf_setup(size: Size) -> Dict[str, object]:
    grid = quadrature.default_grid()
    functionals.HopfPerturbation(a=[1.0] + [0.0] * 7).field()
    return {"default_grid_points": grid.size}


def hopf_setup_ok(counts, size: Size) -> bool:
    return counts["default_grid_points"] == DEFAULT_GRID_POINTS


def hopf_traced(size: Size) -> Tuple[str, ...]:
    return ("exactpoly.mul_calls", "quadrature.integrate_calls",
            "quadrature.grid_points", "functionals.series_ms",
            "functionals.energy_ms", "functionals.identity_report_s",
            "functionals.local_max_scan_s", "quadrature.self_s",
            "functionals.self_s")


def _random_perturbation(rng) -> "functionals.HopfPerturbation":
    beta, a, b = (rng.standard_normal(n) for n in (3, 8, 15))
    norm = math.sqrt(sum(float(np.dot(v, v)) for v in (beta, a, b)))
    return functionals.HopfPerturbation(beta=beta / norm, a=a / norm,
                                        b=b / norm)


def _series_mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _composed_dF(dE: Dict[int, float], helicity: float):
    """D^k F(B1)(W..W), k = 0..6, from D^k E and H(W) by series algebra.

    Along B1 + tW the energy has value 2 pi^2 and no linear term (W is
    orthogonal to B1), and the helicity is pi^2 + t^2 H(W).  F is E^{4/3}/H.
    """
    e0 = 2.0 * math.pi ** 2
    x = [0.0, 0.0] + [dE[k] / math.factorial(k) / e0 for k in range(2, 7)]
    power, term, binomial = [1.0] + [0.0] * 6, [1.0] + [0.0] * 6, 1.0
    for j in range(1, 7):
        term = _series_mul(term, x)
        binomial *= (4.0 / 3.0 - (j - 1)) / j
        power = [p + binomial * s for p, s in zip(power, term)]
    h = [math.pi ** 2, 0.0, helicity] + [0.0] * 4
    series = []
    for n in range(7):
        acc = e0 ** (4.0 / 3.0) * power[n]
        acc -= sum(h[j] * series[n - j] for j in range(1, n + 1))
        series.append(acc / h[0])
    return [math.factorial(k) * c for k, c in enumerate(series)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _identity_ok(rows) -> bool:
    failing = {r["identity"] for r in rows if not r["pass"]}
    return failing == KNOWN_DISCREPANCIES


def _differences_ok(f, step: float, dF) -> bool:
    """Richardson central differences of F at +-h, +-2h against DF, D^2F.

    f holds F(B1 + t W) for t = h, -h, 2h, -2h, in that order.
    """
    p1, m1, p2, m2 = f
    d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * step)
    d2 = (16.0 * (p1 + m1 - 2.0 * F_AT_HOPF)
          - (p2 + m2 - 2.0 * F_AT_HOPF)) / (12.0 * step ** 2)
    return _close(d1, dF[1], 1e-5) and _close(d2, dF[2], 1e-5)


def hopf_ops(rng: np.random.Generator, size: Size, seed: int,
             part: int, parts: int) -> Iterator[Op]:
    """The report and the scan run once per run, in the first child."""
    if part == 0:
        yield from _hopf_run_ops(size, seed)
    for _ in _share(size.hopf_rounds, part, parts):
        yield from _hopf_round(rng)


def _hopf_run_ops(size: Size, seed: int) -> Iterator[Op]:
    yield Op("identity-report",
             lambda: functionals.identity_report(seed, size.identity_draws),
             _identity_ok)
    yield Op("local-max-scan",
             lambda: functionals.local_max_scan(0.05, size.scan_samples,
                                                seed),
             lambda res: res["pass"]
             and len(res["results"]) == size.scan_samples, GRID)


def _hopf_round(rng: np.random.Generator) -> Iterator[Op]:
    W = _random_perturbation(rng)
    dE = {}
    for k in range(2, 7):
        dE[k] = yield Op("dE", lambda: functionals.dE_at_hopf(k, W),
                         math.isfinite)
    expected = _composed_dF(dE, W.helicity())
    dF = {}
    for k in range(1, 7):
        dF[k] = yield Op("dF", lambda: functionals.dF_at_hopf(k, W),
                         lambda v: _close(v, expected[k], 1e-9))
    for step in STEPS:
        yield Op("difference",
                 lambda: [functionals.f_perturbed(W, m * step)
                          for m in (1, -1, 2, -2)],
                 lambda f: _differences_ok(f, step, dF), GRID)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Size], Dict[str, object]]
    setup_ok: Callable[[Dict[str, object], Size], bool]
    op_count: Callable[[Size, int, int], int]
    ops: Callable[[np.random.Generator, Size, int, int, int], Iterator[Op]]
    # Per-layer metrics that a traced run must find non-zero, so that a
    # renamed or reshaped entry point fails the run instead of reading 0.
    traced: Callable[[Size], Tuple[str, ...]]


WORKLOADS = {
    "exact-cold": Workload(exact_setup, exact_setup_ok, exact_op_count,
                           exact_ops, exact_traced),
    "conformal-sweep": Workload(conformal_setup, conformal_setup_ok,
                                conformal_op_count, conformal_ops,
                                conformal_traced),
    "hopf-functionals": Workload(hopf_setup, hopf_setup_ok, hopf_op_count,
                                 hopf_ops, hopf_traced),
}
