"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload exact-cold --seed 1 --seconds 25 \\
        --trace 0

Every run starts fresh interpreters (child.py) one after another, so module
caches start empty.  Each times its set-up and then runs its share of the
operations.  A traced run runs all of them in one untraced interpreter and
then in one traced interpreter, and compares the two for the overhead.

Every time in the metrics is in reference seconds: the raw time rescaled by
the host speed that hostspeed.py measured during it.  The raw times are
printed and written alongside.

The number of operations is fixed per workload, so that it can be checked
exactly; ``--seconds`` is recorded with the result but sets nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics with their units, the environment and the checks.  With
``--trace 1`` the metrics are the per-layer ones of a traced run.  Full
results and trace spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src" / "beltrami"
OUT = ROOT / ".bench_out"
# Fresh interpreters per untraced run; each times the set-up, and setup_s is
# their median.  conformal-sweep has two because its set-up is ~10 s; the
# others have five, since theirs takes about a second.
PARTS = {"exact-cold": 5, "conformal-sweep": 2, "hopf-functionals": 5}
SIZES = ("full", "smoke")
SMOKE_PARTS = 2
# Each run must end within 180 s; children share what is left of it.
RUN_LIMIT_S = 175.0
# Timings are only comparable with the backend the baseline used.
BASELINE_BACKEND = "fractions"
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(args, part: int, parts: int, trace: int, deadline: float,
              spans: Path | None = None) -> dict:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(trace),
               "--size", args.size, "--part", str(part),
               "--parts", str(parts)]
    if spans is not None:
        command += ["--spans", str(spans)]
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"child {part} of {parts} exited with "
                           f"{completed.returncode}")
    if completed.stderr:
        sys.stderr.write(completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCES.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(child: dict) -> dict:
    env = dict(child["environment"])
    env.update({
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "comparable": env["rational_backend"] == BASELINE_BACKEND,
    })
    return env


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


# An op row is (kind, reference seconds, ok, raw seconds).
def wall_per_op(ops) -> float:
    return sum(op[1] for op in ops) / len(ops)


def end_to_end(children, ops) -> dict:
    """The end-to-end metrics of an untraced run, as name -> (value, unit)."""
    latencies = [op[1] for op in ops]
    wall = sum(latencies)
    verified = sum(1 for op in ops if op[2])
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (verified / wall, "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mib": (max(c["maxrss_kib"] for c in children) / 1024.0,
                         "MiB"),
    }


def per_layer(child, untraced) -> dict:
    """The per-layer metrics of a traced child, with the tracing overhead
    against the untraced child of the same inputs that ran just before."""
    metrics = {name: tuple(value) for name, value in child["trace"].items()}
    overhead = wall_per_op(child["ops"]) / wall_per_op(untraced["ops"]) - 1.0
    metrics.update({
        "setup.import_s": (child["import_s"], "s"),
        "trace.wall_s": (sum(op[1] for op in child["ops"]), "s"),
        "host.speed": (child["host_speed"], "1"),
        "trace.overhead_frac": (overhead, "1"),
        "trace.wrapped_calls": (child["trace_calls"], "count"),
        "trace.spans": (child["trace_spans"], "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="recorded only; the op count is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'smoke' runs tiny sizes for the self-test")
    args = parser.parse_args(argv)

    if not (SOURCES / "__init__.py").is_file():
        print(f"error: no package sources at {SOURCES.relative_to(ROOT)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(str(SOURCES), quiet=1)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}"

    if args.trace:
        untraced = run_child(args, 0, 1, 0, deadline)
        children = [run_child(args, 0, 1, 1, deadline,
                              OUT / f"{stem}-spans.json")]
    else:
        parts = PARTS[args.workload] if args.size == "full" else SMOKE_PARTS
        children = [run_child(args, part, parts, 0, deadline)
                    for part in range(parts)]

    ops = [op for child in children for op in child["ops"]]
    if len(ops) < 2:
        print("error: the run completed fewer than two ops", file=sys.stderr)
        return 1
    expected_ops = sum(child["expected_ops"] for child in children)
    # Operations the run never reached count as attempted and failed.
    attempted = max(len(ops), expected_ops)
    failed = attempted - sum(1 for op in ops if op[2])
    checks = {
        "ops_pass": failed == 0,
        "op_count": len(ops) == expected_ops,
        "setup_counts": all(c["setup_ok"] for c in children),
        "setup_counts_repeat": all(c["counts"] == children[0]["counts"]
                                   for c in children),
    }
    if args.trace:
        metrics = per_layer(children[0], untraced)
        checks["untraced_pass"] = all(op[2] for op in untraced["ops"])
        checks["trace_ok"] = not children[0]["trace_problems"]
        for problem in children[0]["trace_problems"]:
            print(f"trace problem: {problem}", file=sys.stderr)
    else:
        metrics = end_to_end(children, ops)
        # A percentile is reported only with ten samples beyond it.
        beyond_p90 = sum(1 for op in ops
                         if 1e3 * op[1] > metrics["op_p90_ms"][0])
        if args.size == "full":
            checks["ten_beyond_p90"] = beyond_p90 >= 10
    correct = all(checks.values())
    env = environment(children[0])

    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "size": args.size, "trace": args.trace,
        "correct": correct, "checks": checks, "environment": env,
        "setup_counts": children[0]["counts"],
        "setup_s_samples": [c["setup_s"] for c in children],
        "setup_raw_s_samples": [c["setup_raw_s"] for c in children],
        "host_speed": [c["host_speed"] for c in children],
        "ops": ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  ops {len(ops)}  samples beyond p90 "
          f"{'-' if args.trace else beyond_p90}")
    print("environment " + json.dumps(env, sort_keys=True))
    if not env["comparable"]:
        print(f"WARNING: rational backend {env['rational_backend']} differs "
              f"from the baseline's {BASELINE_BACKEND}; timings are not "
              "comparable")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<36} {failed / attempted:>14.6g} 1")
    print(f"  {'raw_wall_s':<36} {sum(op[3] for op in ops):>14.6g} s")
    print(f"  {'raw_setup_s':<36} "
          f"{statistics.median(c['setup_raw_s'] for c in children):>14.6g} s")
    for code in ("", "_grid", "_lapack"):
        print(f"host speed {code[1:] or 'python'} " + " ".join(
            f"{c['host_speed' + code]:.4f}" for c in children))
    print(f"probe samples {sum(c['probe_samples'] for c in children)}")
    print("checks " + json.dumps(checks))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
