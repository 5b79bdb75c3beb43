"""List the statements of src/beltrami that no report and no workload runs.

In one interpreter under sys.settrace, runs every CLI command of
scripts/report_digest.py (its COMMANDS, output discarded) and every
operation of every workload of benchmark/workloads.py, with its check, at
the size given.  Then prints one line per function of src/beltrami that has
a statement none of them executed:

    <file>:<def line>  <qualified name>  <unexecuted statement lines>

with "(never called)" appended when no statement of the function ran, and
a closing "#" line of totals.  A statement counts as executed when a line
event fired on any line of it (of its header, for a compound statement).
Module and class bodies are left out: importing runs them.  A command that
exits 2 (usage) or 3 (crash), a workload whose setup is not the expected
one or that runs another number of operations, or an operation that
raises, returns None or fails its check, makes the script exit 1, since
the traffic is then not the real one.

    python3 scripts/traffic_lines.py [--size full|smoke]

Nothing is written under benchmark/: its modules are imported without
bytecode caching.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "beltrami")

# The seed of the workloads' operations.
SEED = 0

# Statements that compile to no instruction, so no line event marks them.
_SILENT = (ast.Global, ast.Nonlocal)


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement's own code: the header of a compound
    statement, all of a simple one."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return body[0].lineno - 1
    return node.end_lineno


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


class _Functions(ast.NodeVisitor):
    """Every function of a module as a _Function, with the (first line,
    last line) span of each statement's own code."""

    def __init__(self, path: str):
        self.path = path
        self.functions = []
        self._names = []

    def visit_ClassDef(self, node):
        self._names.append(node.name)
        self.generic_visit(node)
        self._names.pop()

    def visit_FunctionDef(self, node):
        self._names.append(node.name)
        spans = []
        body = node.body[1:] if _is_docstring(node.body[0]) else node.body
        self._statements(body, spans)
        self.functions.append(_Function(self.path, ".".join(self._names),
                                        node, spans))
        self._names.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _statements(self, body, spans):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                spans.append((_first_line(node), _header_end(node)))
                self.visit(node)
                continue
            if isinstance(node, ast.Try):
                # "try:" runs nothing of its own; each handler's header does.
                for handler in node.handlers:
                    spans.append((handler.lineno, _header_end(handler)))
                    self._statements(handler.body, spans)
                for part in (node.body, node.orelse, node.finalbody):
                    self._statements(part, spans)
                continue
            if not isinstance(node, _SILENT) and not (
                    isinstance(node, ast.AnnAssign) and node.value is None):
                spans.append((node.lineno, _header_end(node)))
            for part in ("body", "orelse"):
                if isinstance(getattr(node, part, None), list):
                    self._statements(getattr(node, part), spans)


def _first_line(node) -> int:
    """The line of a definition's first decorator, or of the def itself:
    its code object's co_firstlineno."""
    return min([d.lineno for d in node.decorator_list] + [node.lineno])


class _Function:
    """One function's statements and the ones not executed yet."""

    def __init__(self, path: str, name: str, node, spans):
        self.path, self.name, self.line = path, name, node.lineno
        self.key = (path, node.name, _first_line(node))
        self.spans = spans
        self.statement = {line: k for k, (first, last) in enumerate(spans)
                          for line in range(first, last + 1)}
        self.missed = set(range(len(spans)))


def _lines(numbers) -> str:
    """Sorted line numbers as "3, 5-7"."""
    runs = []
    for n in sorted(numbers):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


class _Recorder:
    """Marks the executed statements of the package's functions, from
    sys.settrace.  A frame is traced only while its function has a
    statement not executed yet, so a function once fully run costs one
    call event per call.  Comprehension, lambda and class-body frames are
    not traced: each runs inside a statement of its enclosing function,
    whose own line event marks it."""

    def __init__(self, functions):
        self.functions = {f.key: f for f in functions}

    def call(self, frame, event, arg):
        code = frame.f_code
        function = self.functions.get(
            (code.co_filename, code.co_name, code.co_firstlineno))
        if function is None or not function.missed:
            return None
        statement, missed = function.statement, function.missed

        def line(frame, event, arg):
            if event == "line":
                missed.discard(statement.get(frame.f_lineno))
                if not missed:
                    return None
            return line

        return line


def _run_commands() -> int:
    from report_digest import COMMANDS

    from beltrami.cli import main

    failures = 0
    for args in COMMANDS:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = main(["--command", *args])
            except SystemExit as exit_:
                code = exit_.code
        if code not in (0, 1):
            print(f"command {' '.join(args)} exited {code}:\n"
                  f"{sink.getvalue()}", file=sys.stderr)
            failures += 1
    return failures


def _run_workloads(size_name: str) -> int:
    import numpy as np
    import workloads

    size = workloads.SIZES[size_name]
    failures = 0
    for name, workload in workloads.WORKLOADS.items():
        if not workload.setup_ok(workload.setup(size), size):
            print(f"{name} setup is not the expected one", file=sys.stderr)
            failures += 1
        ops = workload.ops(np.random.default_rng([SEED, 0]), size, SEED, 0, 1)
        value = None
        run = 0
        while True:
            try:
                op = ops.send(value)
            except StopIteration:
                break
            run += 1
            try:
                value = op.call()
            except Exception:  # reported, then counted
                traceback.print_exc()
                value = None
            try:
                ok = value is not None and bool(op.check(value))
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"{name} {op.kind} failed", file=sys.stderr)
                failures += 1
        if run != workload.op_count(size, 0, 1):
            print(f"{name} ran {run} operations, not "
                  f"{workload.op_count(size, 0, 1)}", file=sys.stderr)
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    # The script's own directory, which holds report_digest, is on the path.
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]
    functions = []
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path) as handle:
                finder = _Functions(path)
                finder.visit(ast.parse(handle.read(), path))
            functions += sorted(finder.functions, key=lambda f: f.line)
    sys.settrace(_Recorder(functions).call)
    try:
        failures = _run_commands() + _run_workloads(args.size)
    finally:
        sys.settrace(None)

    unrun = total = listed = 0
    for function in functions:
        total += len(function.spans)
        if not function.missed:
            continue
        unrun += len(function.missed)
        listed += 1
        never = (" (never called)"
                 if len(function.missed) == len(function.spans) else "")
        lines = _lines(function.spans[k][0] for k in function.missed)
        print(f"{os.path.relpath(function.path, ROOT)}:{function.line}  "
              f"{function.name}  {lines}{never}")
    print(f"# {unrun} of {total} statements in {listed} functions not run "
          f"(size {args.size})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
