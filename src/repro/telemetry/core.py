"""The process-wide observability session: statistics counters, gauges,
hierarchical span timers, an optimization-remarks stream and, optionally,
a durable event log.

This is the reproduction's analogue of the introspection machinery the paper's
production deployment leans on:

* **counters** mirror LLVM's ``Statistic`` registry (``-stats``) and
  llvm-profgen's warning tallies — monotonically increasing named integers,
  keyed ``(component, name)``;
* **spans** mirror ``-time-passes`` / ``-ftime-trace``: wall-clock intervals
  with an ``id`` and a ``parent`` id, exportable as Chrome trace events;
* **remarks** mirror ``-fsave-optimization-record``: one record per
  optimization decision (inlined, unrolled, split, …) with a debug location;
* the **event log** (:class:`~repro.obs.events.EventLog`, when attached)
  receives :func:`emit` events and :func:`snapshot` rollups of the counters
  and gauges, so a run leaves a self-contained JSONL record.

There is one session and one install (:func:`enable`).  Collection is
*opt-in*, and the disabled path is zero-overhead by construction: every
module-level entry point checks one global and returns immediately — no
timestamps are taken, nothing is allocated, and ``span()`` returns a shared
no-op context manager.  :func:`emit` and :func:`snapshot` are likewise
no-ops while no session, or a session without a log, is installed.
Enabling collection therefore cannot change any compilation or correlation
result, only observe it (single-threaded by design, like the rest of the
simulator).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from ..obs.events import EventLog


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
    """One completed span: a named wall-clock interval.

    ``id`` is unique within the session (spans are numbered as they open)
    and ``parent`` is the id of the span it was opened in (``None`` at the
    top level), so the tree survives export.  ``tid`` is the trace thread:
    1 for spans recorded in this process, a fresh one per merged session,
    whose spans may overlap this process's in time.
    """

    __slots__ = ("name", "category", "start_us", "duration_us", "depth",
                 "args", "id", "parent", "tid")

    def __init__(self, name: str, category: str, start_us: float,
                 duration_us: float, depth: int, args: Dict[str, Any],
                 id: Optional[int] = None, parent: Optional[int] = None,
                 tid: int = 1):
        self.name = name
        self.category = category
        self.start_us = start_us
        self.duration_us = duration_us
        self.depth = depth
        self.args = args
        self.id = id
        self.parent = parent
        self.tid = tid

    def __repr__(self) -> str:
        return (f"<SpanRecord {self.category}:{self.name} "
                f"{self.duration_us:.1f}us depth={self.depth}>")


class _Span:
    """Live span context manager; records a :class:`SpanRecord` on exit.

    The ``args`` dict is shared with the record, so ``set()`` after ``with``
    exit (e.g. to attach after-the-fact deltas) still lands in the export.
    """

    __slots__ = ("_session", "name", "category", "args", "_start", "_depth",
                 "_id", "_parent")

    def __init__(self, session: "TelemetrySession", name: str, category: str,
                 args: Dict[str, Any]):
        self._session = session
        self.name = name
        self.category = category
        self.args = args
        self._start = 0.0
        self._depth = 0
        self._id = 0
        self._parent: Optional[int] = None

    def set(self, **kwargs: Any) -> "_Span":
        self.args.update(kwargs)
        return self

    def __enter__(self) -> "_Span":
        session = self._session
        stack = session._span_stack
        self._depth = len(stack)
        self._parent = stack[-1]._id if stack else None
        self._id = session._span_ids
        session._span_ids += 1
        stack.append(self)
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
            self._depth, self.args, self._id, self._parent))
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
    """Everything collected between :func:`enable` and :func:`disable`.

    ``log`` is the durable half: with an :class:`~repro.obs.events.EventLog`
    attached, :func:`emit` and :func:`snapshot` write to it; without one
    (the default) they do nothing.
    """

    def __init__(self, log: Optional["EventLog"] = None) -> None:
        #: (component, name) -> monotonically increasing int.
        self.counters: Counter = Counter()
        #: Spelled key (``name{label=value,...}``) -> latest value.
        self.gauges: Dict[str, float] = {}
        self.spans: List[SpanRecord] = []
        self.remarks: List[Remark] = []
        self.log = log
        self._span_stack: List[_Span] = []
        self._span_ids = 0
        self._tids = 1
        self._epoch = time.perf_counter()

    # -- direct (session-bound) API -----------------------------------------
    def count(self, component: str, name: str, n: int = 1) -> None:
        self.counters[(component, name)] += n

    def span(self, name: str, category: str = "", **args: Any) -> _Span:
        return _Span(self, name, category, args)

    def counter(self, component: str, name: str) -> int:
        return self.counters.get((component, name), 0)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name{a=1,b=2}`` (labels sorted, no braces when
        unlabelled); snapshots carry its latest value."""
        if labels:
            name += "{" + ",".join(f"{key}={labels[key]}"
                                   for key in sorted(labels)) + "}"
        self.gauges[name] = float(value)

    def snapshot(self, label: str = "", drop_timings: bool = False) -> None:
        """Write every counter (as ``component.name``) and gauge to the log
        as one ``metrics_snapshot`` event.

        ``drop_timings`` omits wall-clock duration counters (``*_ns``/
        ``*_us``) — they vary run to run, and a deterministic producer (the
        fleet simulation) needs its log byte-reproducible.
        """
        totals = {f"{component}.{name}": float(value)
                  for (component, name), value in self.counters.items()}
        totals.update(self.gauges)
        if drop_timings:
            totals = {name: value for name, value in totals.items()
                      if not name.endswith(("_ns", "_us"))}
        self.log.emit("metrics_snapshot", label=label, totals=totals)

    def merge(self, other: "TelemetrySession") -> None:
        """Fold a finished session (a pool worker's) into this one.

        Counters add; spans append on a trace thread of their own, with
        their ids re-based past this session's, their start times moved to
        this session's epoch, and their roots hung under this session's
        innermost open span (the tree a serial run records); remarks
        append; and the other session's events are re-emitted into this
        log, re-stamped with this log's sequence numbers and clock.
        """
        self.counters.update(other.counters)
        stack = self._span_stack
        root_parent = stack[-1]._id if stack else None
        shift_us = (other._epoch - self._epoch) * 1e6
        for record in other.spans:
            if record.parent is None:
                record.parent = root_parent
            else:
                record.parent += self._span_ids
            record.id += self._span_ids
            record.depth += len(stack)
            record.start_us += shift_us
            record.tid += self._tids
        self._span_ids += other._span_ids
        self._tids += other._tids
        self.spans.extend(other.spans)
        self.remarks.extend(other.remarks)
        if self.log is not None and other.log is not None:
            for event in other.log.events:
                self.log.emit(event.type, **event.fields)

    def __repr__(self) -> str:
        return (f"<TelemetrySession counters={len(self.counters)} "
                f"spans={len(self.spans)} remarks={len(self.remarks)} "
                f"log={self.log!r}>")


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


def emit(etype: str, **fields: Any) -> None:
    """Append one event to the active session's log; no-op without one."""
    session = _session
    if session is not None and session.log is not None:
        session.log.emit(etype, **fields)


def snapshot(label: str = "", drop_timings: bool = False) -> None:
    """Write a ``metrics_snapshot`` of the active session to its log; no-op
    without one (see :meth:`TelemetrySession.snapshot`)."""
    session = _session
    if session is not None and session.log is not None:
        session.snapshot(label, drop_timings)


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
