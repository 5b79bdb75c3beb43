"""Runtime tracing of the beltrami layers, installed from outside the package.

The tracer wraps the public entry points of each layer module at run time.
A name that another module bound with ``from ... import`` is patched where it
is bound too, so ``beltrami.solver.curl`` and ``beltrami.conformal.assemble_pencil``
are traced like the originals.  Nothing under ``src/`` is edited.

Every wrapped call updates a call count and a self time per layer (its
duration minus the time covered by wrapped calls it made).  Calls of the
layers that run millions of times (``exactpoly`` and ``frames``) are counted
only; calls of the other layers are also kept as spans
``(name, start, end, parent, run id)`` in memory and written out at the end.
The run id is the index of the benchmark operation the call belongs to.
Entry points that are not found and errors raised in the hooks are kept in
``missing`` and ``hook_errors``; a traced run with any of them fails.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Callable, Dict, List

LAYERS = ("exactpoly", "frames", "solver", "atlas", "quadrature",
          "functionals", "conformal", "torus", "annulus")

# Layers whose calls are counted but not kept as spans (too many of them).
COUNTED_ONLY = ("exactpoly", "frames")

# Public entry points per layer: module functions, or (class, method) pairs.
ENTRY_POINTS = {
    "exactpoly": [
        "canonicalize", "integrate_monomial", "integrate_poly",
        "directional_derivative",
        *(("Poly4", m) for m in ("__mul__", "__add__", "__sub__", "__neg__",
                                 "scale", "__pow__", "partial", "evaluate",
                                 "substitute_linear", "to_float")),
        *(("SphereScalar", m) for m in ("__mul__", "__add__", "__sub__",
                                        "__neg__", "scale", "evaluate",
                                        "representative", "integral")),
        *(("ExactScalar", m) for m in ("__add__", "__sub__", "__mul__",
                                       "__truediv__", "scale")),
    ],
    "frames": [
        "curl", "divergence", "grad", "frame_derivative",
        "isometry_pushforward",
        *(("FrameField", m) for m in ("__add__", "__sub__", "scale",
                                      "__eq__", "dot", "norm_sq", "l2_inner",
                                      "evaluate", "to_float")),
    ],
    "solver": ["eigenspace_solve", "project_vector"],
    "atlas": ["explicit_basis", "eigenspace_solve", "eigen_decompose",
              "helicity", "project_eigen", "curl_inverse"],
    "quadrature": ["integrate_scalar", "default_grid", "grid_for_degree",
                   ("HopfGrid", "__init__")],
    "functionals": ["dF_at_hopf", "dE_at_hopf", "f_perturbed", "l32_energy",
                    "identity_report", "local_max_scan",
                    ("HopfPerturbation", "field")],
    "conformal": ["assemble_pencil", "mu1_normalized", "optimality_scan",
                  ("ConformalFactor", "__init__"),
                  ("GalerkinPencil", "eigenvalues")],
    "torus": ["torus_pencil", ("TorusPencil", "eigenvalues"),
              ("TorusPencil", "mu1_group_derivatives")],
    "annulus": ["first_eigenfields", ("AnnulusField", "eigen_residual")],
}

SOLVER_ORDERS = range(6)
CONFORMAL_CASES = [(m, d) for m in ("s3", "rp3") for d in (3, 4)]


def _order_argument(args, kwargs, position: int, name: str):
    value = kwargs.get(name, args[position] if len(args) > position else None)
    return value if isinstance(value, int) else None


class Tracer:
    """Spans, counts and self times of the wrapped layer entry points."""

    def __init__(self):
        self.run_id = -1
        self.spans: List[tuple] = []
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.function_calls: Dict[str, int] = {}
        self.missing: List[str] = []
        self.hook_errors: List[str] = []
        # Open wrapped calls as [time covered by wrapped children, start].
        self._stack: List[list] = []
        # Indices of the spans still open, innermost last.
        self._open_spans: List[int] = []
        # Open calls per layer, for "outermost call of the layer" timings.
        self._depth = {layer: 0 for layer in LAYERS}
        # Layer-specific observations, filled by the hooks below.
        self.solve_s = {d: 0.0 for d in SOLVER_ORDERS}
        self.trial_dim = {d: 0 for d in SOLVER_ORDERS}
        self.gradient_dim = {d: 0 for d in SOLVER_ORDERS}
        self.outer_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.basis_s = {case: 0.0 for case in CONFORMAL_CASES}
        self.pencil_order = {case: 0 for case in CONFORMAL_CASES}
        self.grid_points: List[int] = []
        self.torus_basis_size = 0
        self._hooks: Dict[str, Callable] = {
            "solver.eigenspace_solve": self._on_eigenspace_solve,
            "solver.project_vector": self._on_project_vector,
            "quadrature.integrate_scalar": self._on_integrate_scalar,
            "conformal.assemble_pencil": self._on_assemble_pencil,
            "torus.torus_pencil": self._on_torus_pencil,
        }

    # ---- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and rebind it wherever it is bound."""
        modules = {layer: importlib.import_module(f"beltrami.{layer}")
                   for layer in LAYERS}
        modules["package"] = importlib.import_module("beltrami")
        for layer, points in ENTRY_POINTS.items():
            module = modules[layer]
            for point in points:
                if isinstance(point, tuple):
                    self._wrap_method(layer, module, *point)
                else:
                    self._wrap_function(layer, module, point, modules)

    def _wrap_function(self, layer, module, name, modules) -> None:
        original = module.__dict__.get(name)
        if original is None:
            self.missing.append(f"{layer}.{name}")
            return
        wrapped = self._wrapper(layer, f"{layer}.{name}", original)
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)

    def _wrap_method(self, layer, module, cls_name, method) -> None:
        cls = module.__dict__.get(cls_name)
        original = vars(cls).get(method) if cls is not None else None
        if original is None:
            self.missing.append(f"{layer}.{cls_name}.{method}")
            return
        wrapped = self._wrapper(layer, f"{layer}.{cls_name}.{method}", original)
        # Aliases such as Poly4.__rmul__ = __mul__ share the original.
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, wrapped)

    def _wrapper(self, layer: str, name: str, original: Callable) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        function_calls = self.function_calls
        function_calls.setdefault(name, 0)
        keep_span = layer not in COUNTED_ONLY
        spans = self.spans
        open_spans = self._open_spans
        hook = self._hooks.get(name)
        outer = self.outer_s

        def traced(*args, **kwargs):
            calls[layer] += 1
            function_calls[name] += 1
            outermost = depth[layer] == 0
            depth[layer] += 1
            if keep_span:
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(len(spans))
                spans.append(None)
            frame = [0.0, clock()]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                duration = end - frame[1]
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    spans[open_spans.pop()] = (name, frame[1], end, parent,
                                               self.run_id)
                    self.durations.setdefault(name, []).append(duration)
                if outermost:
                    outer[name] = outer.get(name, 0.0) + duration
            if hook is not None:
                try:
                    hook(args, kwargs, result, duration)
                except (AttributeError, IndexError, TypeError) as exc:
                    # The traced call changed shape; keep the run going,
                    # and fail it at the end through hook_errors.
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # ---- benchmark operations --------------------------------------------

    def start_op(self, index: int, kind: str) -> None:
        """Open the root span of one benchmark operation."""
        self.run_id = index
        self._open_spans.append(len(self.spans))
        self.spans.append(None)
        self._op = (f"op.{kind}", time.perf_counter())

    def end_op(self) -> None:
        name, start = self._op
        self.spans[self._open_spans.pop()] = (name, start, time.perf_counter(),
                                              -1, self.run_id)

    # ---- layer hooks ----------------------------------------------------

    def _on_eigenspace_solve(self, args, kwargs, result, duration) -> None:
        d = _order_argument(args, kwargs, 0, "dmax")
        if d in self.solve_s:
            self.solve_s[d] += duration
            self.trial_dim[d] = result.trial_dimension
            self.gradient_dim[d] = result.gradient_dimension

    def _on_project_vector(self, args, kwargs, result, duration) -> None:
        d = _order_argument(args, kwargs, 2, "dmax")
        if d in self.solve_s:
            self.solve_s[d] += duration

    def _on_integrate_scalar(self, args, kwargs, result, duration) -> None:
        # Mean points per call, over the calls that name their grid.
        grid = next((a for a in (*args, *kwargs.values())
                     if hasattr(a, "points") and hasattr(a, "size")), None)
        if grid is not None:
            self.grid_points.append(grid.size)

    def _on_assemble_pencil(self, args, kwargs, result, duration) -> None:
        case = (result.manifold, result.dmax)
        if case in self.pencil_order and not self.pencil_order[case]:
            self.basis_s[case] = duration
            self.pencil_order[case] = result.a.shape[0]

    def _on_torus_pencil(self, args, kwargs, result, duration) -> None:
        self.torus_basis_size = len(result.fields)

    # ---- report ---------------------------------------------------------

    def _median_ms(self, *names: str) -> float:
        values = [d for n in names for d in self.durations.get(n, [])]
        return 1e3 * statistics.median(values) if values else 0.0

    def metrics(self) -> Dict[str, tuple]:
        """The per-layer metrics as name -> (value, unit)."""
        calls = self.function_calls
        outer = self.outer_s
        out: Dict[str, tuple] = {
            "exactpoly.mul_calls": (
                calls.get("exactpoly.Poly4.__mul__", 0)
                + calls.get("exactpoly.SphereScalar.__mul__", 0), "count"),
            "exactpoly.canonicalize_calls": (
                calls.get("exactpoly.canonicalize", 0), "count"),
            "frames.curl_calls": (calls.get("frames.curl", 0), "count"),
            "solver.project_calls": (
                calls.get("solver.project_vector", 0), "count"),
        }
        for d in SOLVER_ORDERS:
            out[f"solver.solve_s.d{d}"] = (self.solve_s[d], "s")
            out[f"solver.trial_dim.d{d}"] = (self.trial_dim[d], "count")
            out[f"solver.gradient_dim.d{d}"] = (self.gradient_dim[d], "count")
        out.update({
            "atlas.explicit_s": (outer.get("atlas.explicit_basis", 0.0), "s"),
            "atlas.decompose_s": (
                outer.get("atlas.eigen_decompose", 0.0), "s"),
            "atlas.helicity_s": (outer.get("atlas.helicity", 0.0), "s"),
            "quadrature.integrate_calls": (
                calls.get("quadrature.integrate_scalar", 0), "count"),
            "quadrature.grid_points": (
                statistics.fmean(self.grid_points) if self.grid_points
                else 0, "count"),
            "functionals.series_ms": (self._median_ms(
                "functionals.dF_at_hopf", "functionals.dE_at_hopf"), "ms"),
            "functionals.energy_ms": (
                self._median_ms("functionals.l32_energy"), "ms"),
            "functionals.identity_report_s": (
                outer.get("functionals.identity_report", 0.0), "s"),
            "functionals.local_max_scan_s": (
                outer.get("functionals.local_max_scan", 0.0), "s"),
        })
        for manifold, d in CONFORMAL_CASES:
            out[f"conformal.basis_s.{manifold}.d{d}"] = (
                self.basis_s[(manifold, d)], "s")
            out[f"conformal.pencil_order.{manifold}.d{d}"] = (
                self.pencil_order[(manifold, d)], "count")
        out.update({
            "conformal.factor_ms": (
                self._median_ms("conformal.ConformalFactor.__init__"), "ms"),
            "conformal.assemble_ms": (
                self._median_ms("conformal.assemble_pencil"), "ms"),
            "conformal.eigh_ms": (
                self._median_ms("conformal.GalerkinPencil.eigenvalues"), "ms"),
            "conformal.pencils": (
                calls.get("conformal.assemble_pencil", 0), "count"),
            "torus.pencil_ms": (self._median_ms("torus.torus_pencil"), "ms"),
            "torus.basis_size": (self.torus_basis_size, "count"),
            "annulus.eigenfields_s": (
                outer.get("annulus.first_eigenfields", 0.0)
                + outer.get("annulus.AnnulusField.eigen_residual", 0.0), "s"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "missing_entry_points": self.missing,
            "hook_errors": self.hook_errors,
            "layer_calls": self.calls,
            "layer_self_s": self.self_s,
            "function_calls": self.function_calls,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
        }
