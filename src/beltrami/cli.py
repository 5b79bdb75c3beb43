"""Command line driver producing machine-readable verification reports.

Each command runs a family of checks and emits a report of CheckRecord
rows in JSON or CSV.  The process exits 0 when every fatal check passes,
1 when a check fails, 2 on usage errors, and 3 with one line on standard
error when the program itself crashes.  Rows of the checks in
functionals.KNOWN_DISCREPANCIES are reported as failing but do not affect
the exit code; they document reference values that the derived constants
knowingly disagree with.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import annulus as _annulus
from . import conformal as _conformal
from . import functionals as _functionals
from . import torus as _torus
from .atlas import explicit_basis
from .exactpoly import Poly4, Rat, SphereScalar, canonicalize
from .frames import curl

FORMATS = ("json", "csv")

#: Accepted types and descriptions keyed by the annotation string, which
#: needs no name lookup (a lookup fails under a runner such as cProfile).
_FIELD_TYPES = {"int": (int, "an integer"), "float": (float, "a number"),
                "str": (str, "a string"),
                "Optional[str]": ((str, type(None)), "a string or null")}


@dataclass
class RunConfig:
    """Serializable configuration of one command invocation."""

    command: str
    seed: int = 0
    dmax: int = 3
    draws: int = 20
    samples: int = 50
    radius: float = 0.05
    manifold: str = "s3"
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        # Values from a config file arrive untyped; a wrong type is a usage
        # error, not a failed check.
        for field in dataclasses.fields(RunConfig):
            allowed, description = _FIELD_TYPES[field.type]
            value = getattr(self, field.name)
            if allowed is float and type(value) is int:
                value = float(value)
                setattr(self, field.name, value)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"configuration key {field.name!r} must be "
                                 f"{description}, got {value!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, "
                             f"got {self.format!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class CheckRecord:
    """One verified quantity: identifiers, values, errors, and timing."""

    check: str
    anchor: str
    expected_exact: str
    expected: float
    computed: float
    abs_error: float
    rel_error: float
    passed: bool
    note: str
    wall_time: float

    @classmethod
    def from_row(cls, row: dict) -> "CheckRecord":
        """The record of a functionals._report_row dict."""
        names = {"identity": "check", "pass": "passed"}
        return cls(**{names.get(k, k): v for k, v in row.items()})

    @classmethod
    def compare(cls, check: str, anchor: str, expected: float,
                computed: float, tolerance: float,
                expected_exact: str = "", note: str = "",
                wall_time: float = 0.0) -> "CheckRecord":
        return cls.from_row(_functionals._report_row(
            check, expected, computed, wall_time, anchor, expected_exact,
            tolerance, note))

    def is_fatal_failure(self) -> bool:
        return (not self.passed
                and self.check not in _functionals.KNOWN_DISCREPANCIES)


RECORD_FIELDS = [f.name for f in dataclasses.fields(CheckRecord)]

#: The normalized first eigenvalue N(0) of the round metric.  A t = 0 pencil
#: has mu1 = 2.0 exactly (the b = I path) and volume exactly 2 pi^2 (pi^2 on
#: RP^3), so a scan computes N(0) in these float operations, bit for bit.
ROUND_VALUES = {"s3": 2.0 * (2.0 * math.pi ** 2) ** (1.0 / 3.0),
                "rp3": 2.0 * (math.pi ** 2) ** (1.0 / 3.0)}


def _timer() -> Callable[[], float]:
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# ---------------------------------------------------------------------------
# Commands


def _cmd_verify_atlas(config: RunConfig) -> List[CheckRecord]:
    records = []
    for mu in (2, -2, 3, -3, 4, -4, 5, -5):
        elapsed = _timer()
        entry = explicit_basis(mu)
        k = abs(mu) - 2
        expected_dim = (k + 1) * (k + 3)
        records.append(CheckRecord.compare(
            f"atlas-dimension-{mu}",
            f"dimension of the curl eigenspace at {mu}",
            float(expected_dim), float(entry.dimension), 0.0,
            expected_exact=str(expected_dim), wall_time=elapsed()))
        elapsed = _timer()
        residual = 0.0
        for f in entry.fields:
            if curl(f) != f.scale(mu):
                residual = 1.0
        records.append(CheckRecord.compare(
            f"atlas-exactness-{mu}",
            f"every listed field satisfies curl X = {mu} X exactly",
            0.0, residual, 0.0, expected_exact="0",
            wall_time=elapsed()))
    return records


def _cmd_verify_identities(config: RunConfig) -> List[CheckRecord]:
    rows = _functionals.identity_report(seed=config.seed, draws=config.draws)
    return [CheckRecord.from_row(row) for row in rows]


def _central_difference(f: Callable[[float], float], order: int,
                        step: float) -> float:
    total = 0.0
    for i in range(order + 1):
        weight = math.comb(order, i) * (-1.0) ** i
        total += weight * f((order / 2.0 - i) * step)
    return total / step ** order


def _richardson(f: Callable[[float], float], order: int,
                step: float) -> float:
    fine = _central_difference(f, order, step / 2.0)
    coarse = _central_difference(f, order, step)
    return (4.0 * fine - coarse) / 3.0


def _cmd_taylor_check(config: RunConfig) -> List[CheckRecord]:
    rng = np.random.default_rng(config.seed)
    W = _functionals.HopfPerturbation(
        beta=rng.standard_normal(3), a=rng.standard_normal(8),
        b=rng.standard_normal(15))
    scale = 1.0 / math.sqrt(W.norm_sq())
    W = _functionals.HopfPerturbation(
        beta=[scale * x for x in W.beta], a=[scale * x for x in W.a],
        b=[scale * x for x in W.b])
    records, differences = [], []
    f = lambda t: _functionals.f_perturbed(W, t)
    for k in range(1, 7):
        elapsed = _timer()
        derivative = _functionals.dF_at_hopf(k, W)
        step = (k * 1e-13) ** (1.0 / (k + 4))
        difference = _richardson(f, k, step)
        differences.append(difference)
        tolerance = 1e-5 if k <= 3 else 1e-3
        span = max(abs(derivative), abs(difference), 1.0)
        records.append(CheckRecord.compare(
            f"taylor-derivative-{k}",
            f"order-{k} derivative of F at the Hopf field against a "
            "Richardson-extrapolated stencil",
            derivative / span, difference / span, tolerance,
            wall_time=elapsed()))
    elapsed = _timer()
    combination = _functionals.taylor6_combination(W)
    stencil = sum(weight * difference for weight, difference in
                  zip((6.0, 3.0, 1.0, 0.25, 0.05, 1.0 / 120.0), differences))
    span = max(abs(combination), abs(stencil), 1.0)
    records.append(CheckRecord.compare(
        "taylor-combination",
        "weighted sum of the first six derivatives of F",
        combination / span, stencil / span, 1e-3, wall_time=elapsed()))
    return records


def _cmd_local_max_scan(config: RunConfig) -> List[CheckRecord]:
    elapsed = _timer()
    result = _functionals.local_max_scan(
        radius=config.radius, samples=config.samples, seed=config.seed)
    total = elapsed()
    return [CheckRecord.compare(
        "local-max-violations",
        f"no sampled perturbation of radius {config.radius} raises the "
        "Rayleigh quotient above the Hopf value",
        0.0, float(len(result["violations"])), 0.0, expected_exact="0",
        note="" if result["pass"] else "scan failed",
        wall_time=total)]


def _scan_factors(manifold: str) -> List[Tuple[str, object]]:
    x = Poly4.variable
    factors = [
        ("x1^2-x2^2", canonicalize(x(1) * x(1) - x(2) * x(2))),
        ("x1*x2", canonicalize(x(1) * x(2))),
        ("x3*x4", canonicalize(x(3) * x(4))),
        ("x1^2-1/4", canonicalize(x(1) * x(1) - Poly4.const(Rat(1, 4)))),
    ]
    if manifold == "s3":
        factors += [("x1", canonicalize(x(1))), ("x3", canonicalize(x(3))),
                    ("x4", canonicalize(x(4)))]
    return factors


def _cmd_optimality_scan(config: RunConfig) -> List[CheckRecord]:
    if config.manifold == "t3":
        return _cmd_torus_scan(config)
    if config.manifold not in ("s3", "rp3"):
        raise ValueError(f"unsupported scan manifold {config.manifold!r}")
    rows = _conformal.optimality_scan(
        _scan_factors(config.manifold), config.manifold, dmax=config.dmax)
    records = []
    for row in rows:
        # A t = 0 row is N(0) exactly; a t != 0 row rests on the scan's flag.
        expected = ROUND_VALUES[config.manifold] if row["t"] == 0.0 \
            else row["mu1_normalized"]
        record = CheckRecord.compare(
            f"mu1-{row['q']}-t{row['t']:+.2f}",
            f"normalized first eigenvalue on {row['manifold']} under the "
            f"factor (1 + t {row['q']})^2",
            expected, row["mu1_normalized"], 0.0,
            note=f"refinement delta {row['refinement_delta']:.2e}",
            wall_time=row["wall_time"])
        record.passed = bool(record.passed and row["pass"])
        records.append(record)
    return records


def _cmd_torus_scan(config: RunConfig) -> List[CheckRecord]:
    records = []
    elapsed = _timer()
    flat = _torus.torus_pencil(_torus.TorusScalar.zero(), 0.0, 1)
    spectrum = flat.eigenvalues()
    # At t = 0 the factor is 1 exactly: b = I and the unit eigenvalues are 1.0.
    group = int(np.sum(spectrum == 1.0))
    records.append(CheckRecord.compare(
        "torus-flat-multiplicity",
        "multiplicity of the smallest positive eigenvalue of the flat "
        "torus", 6.0, float(group), 0.0, expected_exact="6",
        wall_time=elapsed()))
    elapsed = _timer()
    axis = _torus.torus_pencil(_torus.TorusScalar.cosine((2, 0, 0)))
    flat_derivatives = axis.mu1_group_derivatives()
    records.append(CheckRecord.compare(
        "torus-axis-factor-derivatives",
        "largest first-order eigenvalue response to the factor cos(2 x)",
        0.0, float(np.max(np.abs(flat_derivatives))), 1e-12,
        expected_exact="0", wall_time=elapsed()))
    elapsed = _timer()
    diagonal = _torus.torus_pencil(
        _torus.TorusScalar.sine((1, 1, 0), 0.5)
        + _torus.TorusScalar.sine((1, -1, 0), -0.5))
    split = diagonal.mu1_group_derivatives()
    records.append(CheckRecord.compare(
        "torus-diagonal-factor-minimum",
        "minimum first-order eigenvalue response to the factor "
        "cos(x) sin(y)", -0.25, float(np.min(split)), 1e-12,
        expected_exact="-1/4", wall_time=elapsed()))
    return records


def _cmd_annulus(config: RunConfig) -> List[CheckRecord]:
    records = []
    for n in range(1, 11):
        elapsed = _timer()
        mu1 = _annulus.first_eigenvalue(n)
        records.append(CheckRecord.compare(
            f"annulus-mu1-{n}",
            f"smallest positive eigenvalue of the parameter-{n} metric",
            1.0 / n, float(mu1), 0.0, expected_exact=str(mu1),
            wall_time=elapsed()))
        records.append(CheckRecord.compare(
            f"annulus-determinant-{n}",
            "unimodularity of the metric",
            1.0, float(_annulus.metric_determinant(n)), 0.0,
            expected_exact="1"))
        floor = _torus.curl_spectrum_sq((1, 0, 0), n)
        records.append(CheckRecord.compare(
            f"annulus-twisted-floor-{n}",
            "the lowest twisted mode has lambda^2 = n >= 1",
            float(n), float(floor), 0.0, expected_exact=str(n)))
    elapsed = _timer()
    residual = 0.0
    for n in (1, 2, 5):
        for v in _annulus.first_eigenfields(n):
            if any(r != 0 for r in v.eigen_residual(n, Fraction(1, n))):
                residual = 1.0
    records.append(CheckRecord.compare(
        "annulus-eigenfields",
        "the explicit field pair satisfies the eigen system symbolically",
        0.0, residual, 0.0, expected_exact="0", wall_time=elapsed()))
    return records


def _cmd_bounds(config: RunConfig) -> List[CheckRecord]:
    constants = _annulus.bound_constants()
    round_pencil = _conformal.mu1_normalized(
        "s3", _conformal.ConformalFactor(SphereScalar.zero(), 0.0), 0)
    return [
        CheckRecord.compare(
            "bound-round-sphere",
            "normalized first eigenvalue of the round sphere",
            ROUND_VALUES["s3"], round_pencil, 0.0),
        CheckRecord.compare(
            "bound-sphere-exceeds-ball",
            "the sphere value exceeds the ball volume cube root",
            1.0,
            1.0 if constants["round_sphere"] >
            constants["ball_volume_cbrt"] + 1e-12 else 0.0, 0.0,
            expected_exact="1"),
        CheckRecord.compare(
            "bound-conformal-floor",
            "the conformal lower bound sits below the projective value",
            1.0, 1.0 if constants["conformal_lower_bound"] <
            ROUND_VALUES["rp3"] else 0.0, 0.0, expected_exact="1"),
    ]


COMMANDS: Dict[str, Callable[[RunConfig], List[CheckRecord]]] = {
    "verify-atlas": _cmd_verify_atlas,
    "verify-identities": _cmd_verify_identities,
    "taylor-check": _cmd_taylor_check,
    "local-max-scan": _cmd_local_max_scan,
    "optimality-scan": _cmd_optimality_scan,
    "annulus": _cmd_annulus,
    "bounds": _cmd_bounds,
}


# ---------------------------------------------------------------------------
# Report serialization


def render_json(config: RunConfig, records: Sequence[CheckRecord]) -> str:
    payload = {
        "command": config.command,
        "config": config.to_dict(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "pass": not any(r.is_fatal_failure() for r in records),
        "records": [dataclasses.asdict(r) for r in records],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(records: Sequence[CheckRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(RECORD_FIELDS)
    for record in records:
        row = dataclasses.asdict(record)
        writer.writerow([row[name] for name in RECORD_FIELDS])
    return out.getvalue()


def write_report(path: str, text: str) -> None:
    """Atomic write: the report appears complete or not at all."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, staging = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.replace(staging, path)
    except BaseException:
        if os.path.exists(staging):
            os.unlink(staging)
        raise


def run(config: RunConfig) -> Tuple[List[CheckRecord], int]:
    """Execute a command and return its records and exit code."""
    command = COMMANDS.get(config.command)
    if command is None:
        raise ValueError(f"unknown command {config.command!r}")
    if config.out:
        directory = os.path.dirname(os.path.abspath(config.out))
        if not os.path.isdir(directory):
            raise ValueError(f"output directory does not exist: {directory}")
        if os.path.isdir(config.out):
            raise ValueError(f"output path is a directory: {config.out}")
    records = command(config)
    text = render_json(config, records) if config.format == "json" else \
        render_csv(records)
    if config.out:
        write_report(config.out, text)
    else:
        sys.stdout.write(text)
    return records, (1 if any(r.is_fatal_failure() for r in records)
                     else 0)


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on standard
    error, as every other usage error is."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beltrami",
        description="verification reports for the curl eigenvalue "
                    "computations")
    parser.add_argument("--command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dmax", type=int)
    parser.add_argument("--manifold", choices=("s3", "rp3", "t3"))
    parser.add_argument("--samples", type=int)
    parser.add_argument("--radius", type=float)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    settings: dict = {}
    if args.config:
        try:
            with open(args.config) as stream:
                settings = json.load(stream)
        except (OSError, json.JSONDecodeError) as error:
            parser.exit(2, f"cannot read configuration: {error}\n")
        if not isinstance(settings, dict):
            parser.exit(2, "the configuration must be a JSON object\n")
    for name, value in vars(args).items():
        if name != "config" and value is not None:
            settings[name] = value
    if "command" not in settings:
        parser.exit(2, "a command is required (--command or config file)\n")
    try:
        config = RunConfig.from_dict(settings)
        _, code = run(config)
    except ValueError as error:
        parser.exit(2, f"{error}\n")
    except Exception as error:
        frame = traceback.extract_tb(error.__traceback__)[-1]
        parser.exit(3, f"beltrami: crashed at {frame.filename}:"
                       f"{frame.lineno}: {error!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
