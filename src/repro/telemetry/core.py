"""Process-wide telemetry: statistics counters, hierarchical span timers,
and an optimization-remarks stream.

This is the reproduction's analogue of the introspection machinery the paper's
production deployment leans on:

* **counters** mirror LLVM's ``Statistic`` registry (``-stats``) and
  llvm-profgen's warning tallies — monotonically increasing named integers,
  keyed ``(component, name)``;
* **spans** mirror ``-time-passes`` / ``-ftime-trace``: wall-clock intervals
  with nesting, exportable as Chrome trace events;
* **remarks** mirror ``-fsave-optimization-record``: one record per
  optimization decision (inlined, unrolled, split, …) with a debug location.

Telemetry is *opt-in* and globally scoped.  The disabled path is
zero-overhead by construction: every module-level entry point checks one
global and returns immediately — no timestamps are taken, nothing is
allocated, and ``span()`` returns a shared no-op context manager.  Enabling
telemetry therefore cannot change any compilation or correlation result,
only observe it (single-threaded by design, like the rest of the simulator).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple


class Remark:
    """One optimization decision (``-fsave-optimization-record`` analogue).

    ``loc`` is either ``None`` or a dict with ``function``/``line``/
    ``discriminator`` keys (see :func:`remark` for the conversion from a
    :class:`~repro.ir.debug_info.DebugLoc`).
    """

    __slots__ = ("pass_name", "name", "function", "message", "loc", "args")

    def __init__(self, pass_name: str, name: str, function: str,
                 message: str, loc: Optional[Dict[str, Any]] = None,
                 args: Optional[Dict[str, Any]] = None):
        self.pass_name = pass_name
        self.name = name          # e.g. "Inlined", "Unrolled", "Missed"
        self.function = function  # function the decision applies to
        self.message = message
        self.loc = loc
        self.args = args or {}

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "Pass": self.pass_name,
            "Name": self.name,
            "Function": self.function,
            "Message": self.message,
        }
        if self.loc is not None:
            record["DebugLoc"] = {
                "Function": self.loc.get("function", self.function),
                "Line": self.loc.get("line", 0),
                "Discriminator": self.loc.get("discriminator", 0),
            }
        if self.args:
            record["Args"] = dict(self.args)
        return record

    def __repr__(self) -> str:
        return f"<Remark {self.pass_name}:{self.name} {self.function}>"


class SpanRecord:
    """One completed span: a named wall-clock interval with nesting depth."""

    __slots__ = ("name", "category", "start_us", "duration_us", "depth", "args")

    def __init__(self, name: str, category: str, start_us: float,
                 duration_us: float, depth: int, args: Dict[str, Any]):
        self.name = name
        self.category = category
        self.start_us = start_us
        self.duration_us = duration_us
        self.depth = depth
        self.args = args

    def __repr__(self) -> str:
        return (f"<SpanRecord {self.category}:{self.name} "
                f"{self.duration_us:.1f}us depth={self.depth}>")


class _Span:
    """Live span context manager; records a :class:`SpanRecord` on exit.

    The ``args`` dict is shared with the record, so ``set()`` after ``with``
    exit (e.g. to attach after-the-fact deltas) still lands in the export.
    """

    __slots__ = ("_session", "name", "category", "args", "_start", "_depth")

    def __init__(self, session: "TelemetrySession", name: str, category: str,
                 args: Dict[str, Any]):
        self._session = session
        self.name = name
        self.category = category
        self.args = args
        self._start = 0.0
        self._depth = 0

    def set(self, **kwargs: Any) -> "_Span":
        self.args.update(kwargs)
        return self

    def __enter__(self) -> "_Span":
        session = self._session
        self._depth = len(session._span_stack)
        session._span_stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        session = self._session
        if session._span_stack and session._span_stack[-1] is self:
            session._span_stack.pop()
        session.spans.append(SpanRecord(
            self.name, self.category,
            (self._start - session._epoch) * 1e6,
            (end - self._start) * 1e6,
            self._depth, self.args))
        return False


class _NullSpan:
    """Shared no-op span for the disabled path (never allocates)."""

    __slots__ = ()

    def set(self, **kwargs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class TelemetrySession:
    """All telemetry collected between :func:`enable` and :func:`disable`."""

    def __init__(self) -> None:
        #: (component, name) -> monotonically increasing int.
        self.counters: Counter = Counter()
        self.spans: List[SpanRecord] = []
        self.remarks: List[Remark] = []
        self._span_stack: List[_Span] = []
        self._epoch = time.perf_counter()

    # -- direct (session-bound) API -----------------------------------------
    def count(self, component: str, name: str, n: int = 1) -> None:
        self.counters[(component, name)] += n

    def span(self, name: str, category: str = "", **args: Any) -> _Span:
        return _Span(self, name, category, args)

    def counter(self, component: str, name: str) -> int:
        return self.counters.get((component, name), 0)

    def merge(self, other: "TelemetrySession") -> None:
        """Fold another session into this one: counters add, spans and
        remarks append (how pool workers' telemetry rejoins the parent)."""
        self.counters.update(other.counters)
        self.spans.extend(other.spans)
        self.remarks.extend(other.remarks)

    def __repr__(self) -> str:
        return (f"<TelemetrySession counters={len(self.counters)} "
                f"spans={len(self.spans)} remarks={len(self.remarks)}>")


#: The active session, or None (telemetry disabled — the default).
_session: Optional[TelemetrySession] = None


def enable(session: Optional[TelemetrySession] = None) -> TelemetrySession:
    """Install ``session`` as the process-wide collector.

    Called with no argument while a session is already active, the active
    session is **kept** — a library enabling telemetry under a CLI that is
    already collecting must not clobber the counters and spans registered
    so far (they would silently vanish from every later export).  Passing
    an explicit ``session`` always installs it.
    """
    global _session
    if session is not None:
        _session = session
    elif _session is None:
        _session = TelemetrySession()
    return _session


def disable() -> None:
    """Stop collecting; subsequent telemetry calls become no-ops."""
    global _session
    _session = None


def current() -> Optional[TelemetrySession]:
    return _session


def enabled() -> bool:
    return _session is not None


def count(component: str, name: str, n: int = 1) -> None:
    """Bump counter ``(component, name)`` by ``n``; no-op when disabled."""
    session = _session
    if session is not None:
        session.counters[(component, name)] += n


def span(name: str, category: str = "", **args: Any):
    """Open a timing span; returns a context manager.  When telemetry is
    disabled this returns a shared no-op object and takes no timestamps."""
    session = _session
    if session is None:
        return _NULL_SPAN
    return _Span(session, name, category, args)


def _loc_dict(function: str, loc: Any) -> Optional[Dict[str, Any]]:
    """Normalize a debug location: DebugLoc-like object, dict, or None."""
    if loc is None:
        return None
    if isinstance(loc, dict):
        return loc
    line = getattr(loc, "line", None)
    if line is None:
        return None
    return {"function": function, "line": line,
            "discriminator": getattr(loc, "discriminator", 0)}


def remark(pass_name: str, name: str, function: str, message: str,
           loc: Any = None, **args: Any) -> None:
    """Record one optimization remark; no-op when disabled.

    ``loc`` may be a :class:`~repro.ir.debug_info.DebugLoc` (duck-typed via
    ``.line``/``.discriminator``), a prebuilt dict, or None.
    """
    session = _session
    if session is not None:
        session.remarks.append(Remark(pass_name, name, function, message,
                                      _loc_dict(function, loc), args))
