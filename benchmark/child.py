"""One fresh-interpreter run of a workload; prints one JSON line.

Started by run.py with the package sources on ``PYTHONPATH``.  It times the
set-up, then runs its part of the workload's operations (``--part`` of
``--parts``) and, with ``--trace 1``, traces the layers.  The host-speed
probe runs from before ``import beltrami`` to the end, and every time is
reported both raw and in reference seconds (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import hostspeed

PROBE = hostspeed.Probe()
PROBE.start()
T0 = time.perf_counter()
import beltrami  # noqa: E402  (the import is part of the measured set-up)

T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    import scipy
    import sympy
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "rational_backend": beltrami.RATIONAL_BACKEND,
    }


def run_ops(ops, tracer) -> list:
    """Run each operation, time its call and check its value.

    Returns one (kind, code, start, end, ok) row per operation.  A call or
    check that raises counts as a failed operation; an error in the
    generator itself ends the run early, which the op-count check then
    reports.
    """
    rows = []
    value = None
    clock = time.perf_counter
    while True:
        try:
            op = ops.send(value)
        except StopIteration:
            return rows
        except Exception as exc:  # the workload could not build its next op
            print(f"workload error: {exc!r}", file=sys.stderr)
            return rows
        if tracer is not None:
            tracer.start_op(len(rows), op.kind)
        start = clock()
        try:
            value = op.call()
            end = clock()
        except Exception as exc:
            end = clock()
            value = None
            print(f"{op.kind} raised {exc!r}", file=sys.stderr)
        if tracer is not None:
            tracer.end_op()
        try:
            ok = value is not None and bool(op.check(value))
        except Exception as exc:
            print(f"{op.kind} check raised {exc!r}", file=sys.stderr)
            ok = False
        rows.append((op.kind, op.code, start, end, ok))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--spans", help="file for the trace spans")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    counts = workload.setup(size)
    t_setup = time.perf_counter()
    PROBE.add_array_kernels()
    part = (args.part, args.parts)
    rng = np.random.default_rng([args.seed, args.part])
    rows = run_ops(workload.ops(rng, size, args.seed, *part), tracer)
    PROBE.stop()
    out = {
        "setup_s": PROBE.scaled(T0, t_setup),
        "setup_raw_s": PROBE.raw(T0, t_setup),
        "import_s": PROBE.raw(T0, T_IMPORTED),
        "counts": counts,
        "setup_ok": bool(workload.setup_ok(counts, size)),
        # kind, reference seconds, ok, raw seconds
        "ops": [(kind, PROBE.scaled(start, end, code), ok,
                 PROBE.raw(start, end))
                for kind, code, start, end, ok in rows],
        "host_speed": PROBE.speed(T0, time.perf_counter()),
        "host_speed_grid": PROBE.speed(t_setup, time.perf_counter(),
                                       hostspeed.GRID),
        "host_speed_lapack": PROBE.speed(t_setup, time.perf_counter(),
                                         hostspeed.LAPACK),
        "probe_samples": len(PROBE.pauses),
        "expected_ops": workload.op_count(size, *part),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    if tracer is not None:
        metrics = tracer.metrics()
        out["trace"] = {name: list(value) for name, value in metrics.items()}
        out["trace_problems"] = (
            [f"missing entry point {name}" for name in tracer.missing]
            + [f"hook error {error}" for error in tracer.hook_errors]
            + [f"{name} is 0" for name in workload.traced(size)
               if not metrics[name][0]])
        out["trace_calls"] = sum(tracer.calls.values())
        out["trace_spans"] = len(tracer.spans)
        with open(args.spans, "w") as handle:
            json.dump(tracer.dump(), handle)
    print(json.dumps(out, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
