"""The benchmark tracer's entry points exist in the package.

benchmark/layertrace.py wraps a hand-kept list of names, and a traced run
fails on any name it cannot find.  This test loads the tracer by path, without
installing it, and looks each name up the way its wrappers do.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = (Path(__file__).resolve().parent.parent
              / "benchmark" / "layertrace.py")


def test_every_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert set(layertrace.ENTRY_POINTS) <= set(layertrace.LAYERS)
    missing = []
    for layer, points in layertrace.ENTRY_POINTS.items():
        module = importlib.import_module(f"beltrami.{layer}")
        for point in points:
            if isinstance(point, tuple):
                # _wrap_method: the class from the module namespace, then the
                # method from the class's own namespace.
                cls = module.__dict__.get(point[0])
                found = cls is not None and vars(cls).get(point[1]) is not None
            else:
                # _wrap_function: the name from the module namespace.
                found = module.__dict__.get(point) is not None
            if not found:
                missing.append((layer, point))
    assert missing == []
