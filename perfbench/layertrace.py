"""Per-layer tracing from outside the package.

Every traced public function is replaced, for the duration of a `Tracer`
context, by a wrapper that records one span per call.  The wrapper is put
at each module binding that holds the original function object (the
defining module, every torusgl module that imported the name, and the
package namespace), because that binding is where a caller looks the name
up at call time.  Nothing private is wrapped.

Spans are kept in memory as (function index, parent span, start, end) and
summarised when the traced pass ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# layer (module) -> public functions whose calls are timed
LAYERS: dict[str, tuple[str, ...]] = {
    "solve": ("minimize", "epsilon_sweep", "vortex_ansatz", "refine_section", "refine_cochain"),
    "fields": ("g_energy_hi", "g_gradient", "g_energy", "energy_density"),
    "bundle": ("covariant_difference", "curvature", "build_background"),
    "vortex": (
        "supercurrent", "vorticity", "jacobian", "london_residual",
        "h_minus1_distance", "chern_pairing",
    ),
    "hodge": ("solve_poisson", "solve_london", "hodge_decompose"),
    "gauge": ("apply_gauge", "coulomb_fix"),
    "lattice": ("exterior_derivative", "codifferential", "write_field", "read_field"),
    "cli": ("main",),
}

PACKAGE = "torusgl"

# lattices of the benchmark workloads, for fields.g_gradient.ms.<lattice>
LATTICES = ("20x20", "40x40", "80x80", "160x160", "256x256", "28x28x28", "64x64x64")


@dataclass
class Span:
    func: int          # index into Tracer.names
    parent: int        # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.summary()` afterwards."""

    names: list[tuple[str, str]] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    iterations: int = 0
    bytes_written: int = 0
    gradient_lattice: dict[int, str] = field(default_factory=dict)  # span -> lattice
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, funcs in LAYERS.items():
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in funcs:
                original = getattr(owner, fname)
                wrapper = self._wrap(len(self.names), original)
                self.names.append((layer, fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, index: int, original):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(index, parent, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                me = stack.pop()
            self._account(me, index, args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    def _account(self, span_index: int, func_index: int, args, result) -> None:
        layer, fname = self.names[func_index]
        if (layer, fname) == ("solve", "minimize"):
            self.iterations += int(result.iterations)
        elif (layer, fname) == ("fields", "g_gradient"):
            self.gradient_lattice[span_index] = "x".join(str(n) for n in args[0].geom.sites)
        elif (layer, fname) == ("lattice", "write_field"):
            self.bytes_written += os.path.getsize(args[0])

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        out = summarize(self.names, self.spans)
        calls_e = out["fields.g_energy_hi.calls"]
        calls_g = out["fields.g_gradient.calls"]
        out["fields.energy_per_grad"] = calls_e / calls_g if calls_g else 0.0
        per_lattice: dict[str, list[float]] = {key: [] for key in LATTICES}
        for span_index, key in self.gradient_lattice.items():
            span = self.spans[span_index]
            per_lattice.setdefault(key, []).append(span.end - span.start)
        for key in LATTICES:
            times = per_lattice[key]
            out[f"fields.g_gradient.ms.{key}"] = 1e3 * sum(times) / len(times) if times else 0.0
        out["solve.iterations"] = self.iterations
        out["lattice.write_field.mb"] = self.bytes_written / 1e6
        return out


def summarize(names: list[tuple[str, str]], spans: list[Span]) -> dict[str, float]:
    """Calls, inclusive seconds per function, and self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children; calls are nested, so the children never overlap.
    """
    calls = [0] * len(names)
    inclusive = [0.0] * len(names)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        calls[span.func] += 1
        inclusive[span.func] += duration
        layer_self[names[span.func][0]] += duration - children

    out: dict[str, float] = {}
    for (layer, fname), n, total in zip(names, calls, inclusive):
        if layer == "cli":
            continue  # the cli layer reports only its self time
        out[f"{layer}.{fname}.calls"] = n
        out[f"{layer}.{fname}.s"] = total
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total
    return out


def metric_units() -> dict[str, str]:
    """Unit of every metric `Tracer.summary` returns, plus the overhead."""
    units: dict[str, str] = {}
    for layer, funcs in LAYERS.items():
        if layer != "cli":
            for fname in funcs:
                units[f"{layer}.{fname}.calls"] = "count"
                units[f"{layer}.{fname}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units["solve.iterations"] = "count"
    units["fields.energy_per_grad"] = "ratio"
    for key in LATTICES:
        units[f"fields.g_gradient.ms.{key}"] = "ms"
    units["lattice.write_field.mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units
