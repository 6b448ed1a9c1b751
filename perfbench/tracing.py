"""In-memory span tracing around the pipeline's layer entry points.

Wrappers are installed at the caller's binding (see ``layers.BINDINGS``)
and removed after each traced pipeline call, so untraced calls run the
unmodified program.  Installing fails loudly when an entry point is missing
at its binding: a rename must not silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from layers import BINDINGS


class BindingError(RuntimeError):
    """A named entry point is missing at its caller's binding."""


class Bindings:
    """Replaces module attributes with wrappers; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def install(self, targets: Dict[str, List[str]],
                make_wrapper: Callable[[str, Callable], Callable]) -> None:
        """Wrap ``targets`` (caller module -> attribute names).  Nothing is
        installed unless every target resolves."""
        resolved = []
        missing = []
        for module_name, names in targets.items():
            # ``import repro.pgo.build as m`` would yield the re-exported
            # ``build`` function, so resolve the module itself.
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn) or getattr(fn, "__name__", None) != name:
                    missing.append(f"{module_name}.{name}")
                else:
                    resolved.append((module, name, fn))
        if missing:
            raise BindingError("entry points missing at their caller's "
                               "binding: " + ", ".join(missing))
        for module, name, fn in resolved:
            self._saved.append((module, name, fn))
            setattr(module, name, make_wrapper(name, fn))

    def restore(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run_id")

    def __init__(self, name: str, layer: str, parent: Optional[int],
                 run_id: int) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.run_id = run_id
        self.start = 0.0
        self.end = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "run_id": self.run_id}


def _ir_instrs(module) -> int:
    return sum(len(block.instrs) for fn in module.functions.values()
               for block in fn.blocks)


class Tracer:
    """Records one span per call into a layer entry point.

    Spans live in ``spans`` until the caller writes them out; ``parent`` is
    the index of the enclosing span.  Besides timing, a few wrappers note
    what the call produced (annotation coverage, IR and machine code size),
    outside the span.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.observed: Dict[str, int] = {}
        self.run_id = 0
        self._stack: List[int] = []

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _note(self, key: str, n: int) -> None:
        self.observed[key] = self.observed.get(key, 0) + n

    def wrapper_for(self, layer: str) -> Callable[[str, Callable], Callable]:
        def make(name: str, fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_name = f"{layer}.{name}"
                if name == "execute":
                    pmu = kwargs.get("pmu", args[2] if len(args) > 2 else None)
                    span_name += ".collect" if pmu is not None else ".measure"
                result = self.call(layer, span_name, fn, *args, **kwargs)
                if layer == "annotate" and hasattr(result, "annotated"):
                    self._note("annotate.annotated", len(result.annotated))
                    self._note("annotate.functions",
                               len(result.annotated)
                               + len(result.rejected_checksum)
                               + len(result.no_profile))
                elif name == "optimize_module":
                    self._note("opt.ir_instrs_out", _ir_instrs(args[0]))
                elif name == "link":
                    self._note("codegen.machine_instrs", len(result.instrs))
                return result
            return wrapper
        return make

    def install(self, bindings: Bindings) -> None:
        for layer, targets in BINDINGS.items():
            bindings.install(targets, self.wrapper_for(layer))


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover (calls are
    serial, so children never overlap)."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger(spans: List[Span], counters: Dict[Tuple[str, str], int],
           observed: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pipeline call.

    ``spans[0]`` is the call itself; ``counters`` are the call's
    ``repro.telemetry`` counters.
    """
    own = self_times(spans)
    by_layer: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, seconds in zip(spans, own):
        key = span.layer
        if span.layer == "hw":
            key = {"hw.decode_program": "hw.decode",
                   "hw.execute.collect": "hw.collect",
                   "hw.execute.measure": "hw.measure"}[span.name]
        by_layer[key] = by_layer.get(key, 0.0) + seconds
        calls[span.name] = calls.get(span.name, 0) + 1

    def counter(component: str, name: str) -> int:
        return counters.get((component, name), 0)

    instrs = counter("hw.exec", "instructions_retired")
    samples = counter("hw.pmu", "samples_taken")
    executing = by_layer.get("hw.collect", 0.0) + by_layer.get("hw.measure", 0.0)
    inferred = counter("inference", "functions_inferred")
    solves = inferred - counter("inference", "incremental_reuse")
    cache_hits = counter("inference", "solver_cache_hit")
    unwind_hits = counter("correlate.cache", "unwind_hits")
    correlate_s = by_layer.get("correlate", 0.0)
    return {
        "trace.wall_s": spans[0].end - spans[0].start,
        "pgo.self_s": by_layer.get("pgo", 0.0),
        "pgo.fallback_hops": sum(value for (component, _), value
                                 in counters.items()
                                 if component == "pgo.fallback"),
        "probes.self_s": by_layer.get("probes", 0.0),
        "annotate.self_s": by_layer.get("annotate", 0.0),
        "annotate.annotated_frac": _frac(observed.get("annotate.annotated", 0),
                                         observed.get("annotate.functions", 0)),
        "inference.self_s": by_layer.get("inference", 0.0),
        "inference.functions": inferred,
        "inference.fallback_frac": _frac(
            counter("inference", "solver_fallback"), solves),
        "inference.cache_hit_frac": _frac(
            cache_hits, cache_hits + counter("inference", "solver_cache_miss")),
        "opt.self_s": by_layer.get("opt", 0.0),
        "opt.calls": calls.get("opt.optimize_module", 0),
        "opt.ir_instrs_out": observed.get("opt.ir_instrs_out", 0),
        "codegen.self_s": by_layer.get("codegen", 0.0),
        "codegen.machine_instrs": observed.get("codegen.machine_instrs", 0),
        "hw.decode_s": by_layer.get("hw.decode", 0.0),
        "hw.decodes": counter("hw.decode", "decodes"),
        "hw.runs": counter("hw.exec", "runs"),
        "hw.collect_s": by_layer.get("hw.collect", 0.0),
        "hw.measure_s": by_layer.get("hw.measure", 0.0),
        "hw.instrs_retired": instrs,
        "hw.ns_per_instr": _frac(executing * 1e9, instrs),
        "hw.samples": samples,
        "correlate.self_s": correlate_s,
        "correlate.us_per_sample": _frac(correlate_s * 1e6, samples),
        "correlate.unique_frac": _frac(counter("correlate", "samples_unique"),
                                       counter("correlate", "samples_used")),
        "correlate.unwind_hit_frac": _frac(
            unwind_hits,
            unwind_hits + counter("correlate.cache", "unwind_misses")),
        "profile.trim_s": by_layer.get("profile", 0.0),
        "preinline.self_s": by_layer.get("preinline", 0.0),
        "quality.self_s": by_layer.get("quality", 0.0),
    }
