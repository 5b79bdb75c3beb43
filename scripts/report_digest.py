"""Print one sha256 per CLI report, with the timing fields removed.

Runs every command of the CI "Installed console script" step, each in a
fresh interpreter on the package in the `src/` next to this directory, and
prints `<sha256>  <exit code>  <arguments>` per command.  JSON reports lose
their `timestamp` and every `wall_time`; CSV reports lose the `wall_time`
column.  Two checkouts produce the same lines exactly when their reports
agree apart from timing:

    python3 scripts/report_digest.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

SOURCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

COMMANDS = (
    ("bounds",),
    ("optimality-scan",),
    ("optimality-scan", "--dmax", "4"),
    ("optimality-scan", "--manifold", "rp3"),
    ("optimality-scan", "--manifold", "t3"),
    ("local-max-scan",),
    ("verify-atlas",),
    ("verify-identities",),
    ("taylor-check",),
    ("annulus",),
    ("annulus", "--format", "csv"),
)

RUN = "import sys; from beltrami.cli import main; sys.exit(main())"


def _without_wall_time(value):
    if isinstance(value, dict):
        return {k: _without_wall_time(v) for k, v in value.items()
                if k != "wall_time"}
    if isinstance(value, list):
        return [_without_wall_time(v) for v in value]
    return value


def timeless(text: str, csv_format: bool) -> str:
    """The report text with its timing fields removed."""
    if csv_format:
        rows = list(csv.reader(io.StringIO(text)))
        keep = [i for i, name in enumerate(rows[0]) if name != "wall_time"]
        out = io.StringIO()
        csv.writer(out).writerows([[row[i] for i in keep] for row in rows])
        return out.getvalue()
    payload = json.loads(text)
    payload.pop("timestamp")
    return json.dumps(_without_wall_time(payload), indent=2, sort_keys=True)


def main() -> int:
    path = os.pathsep.join(filter(None, [SOURCE,
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for args in COMMANDS:
        result = subprocess.run(
            [sys.executable, "-c", RUN, "--command", *args],
            capture_output=True, text=True, env=env)
        if result.returncode not in (0, 1):
            sys.stderr.write(result.stderr)
            return result.returncode
        text = timeless(result.stdout, "csv" in args)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{digest}  {result.returncode}  {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
