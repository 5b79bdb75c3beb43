"""Tests for scripts/traffic_lines.py, the list of statements that no report
and no benchmark workload runs."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_traffic_lists_the_oracle_and_not_curl():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "traffic_lines.py"),
         "--size", "smoke"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1].startswith("# ") and "size smoke" in lines[-1]
    listed = {line.split()[1]: line for line in lines[:-1]}
    # A test oracle: no report or workload calls it.
    assert listed["laplace_beltrami_homogeneous"].endswith("(never called)")
    assert "curl" not in listed
