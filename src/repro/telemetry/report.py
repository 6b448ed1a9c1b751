"""Telemetry exporters: human-readable stats report, Chrome trace-event
JSON (``chrome://tracing`` / Perfetto), and optimization-remarks JSON.

Format fidelity:

* :func:`render_stats_report` mimics LLVM's ``-stats`` footer (value,
  component, name) followed by a ``-time-passes``-style table aggregated
  from spans with category ``"pass"``;
* :func:`chrome_trace` emits complete ("ph": "X") trace events, the same
  shape ``-ftime-trace`` produces, so the full PGO cycle nests visually per
  variant / iteration / stage / pass (a merged worker session's spans on a
  thread of their own);
* :func:`remarks_to_json` serializes remarks the way
  ``-fsave-optimization-record`` does (Pass/Name/Function/DebugLoc/Args).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .core import SpanRecord, TelemetrySession


def _self_times(spans: List[SpanRecord], category: str
                ) -> List[Tuple[SpanRecord, float]]:
    """``(span, self µs)`` for every span of ``category``: its duration minus
    the ``category`` spans nested in it (the nearest ones; theirs are
    already net of their own).

    Spans are recorded as they close, so a span's descendants are the run of
    deeper spans listed right before it (a merged worker session's spans
    are appended whole, its roots one level below the span open at merge).
    """
    out: List[Tuple[SpanRecord, float]] = []
    #: (depth, µs of ``category`` spans inside it) awaiting an enclosing span.
    pending: List[Tuple[int, float]] = []
    for record in spans:
        nested = 0.0
        while pending and pending[-1][0] > record.depth:
            nested += pending.pop()[1]
        if record.category == category:
            out.append((record, record.duration_us - nested))
            pending.append((record.depth, record.duration_us))
        elif nested:
            pending.append((record.depth, nested))
    return out


def _aggregate_spans(session: TelemetrySession, category: str
                     ) -> List[Tuple[str, float, int]]:
    """(name, total self seconds, runs) for every span of ``category``,
    hottest first.  Self time keeps a nested span of the same category
    (a stage inside ``iteration:N``) from being counted twice."""
    totals: Dict[str, List[float]] = {}
    for record, duration_us in _self_times(session.spans, category):
        entry = totals.setdefault(record.name, [0.0, 0])
        entry[0] += duration_us / 1e6
        entry[1] += 1
    rows = [(name, total, int(runs)) for name, (total, runs) in totals.items()]
    rows.sort(key=lambda row: -row[1])
    return rows


def _timing_table(rows: List[Tuple[str, float, int]], title: str) -> List[str]:
    lines = [f"=== {title} ===",
             f"  {'wall (s)':>12s} {'%':>6s} {'runs':>6s}  name"]
    total = sum(row[1] for row in rows) or 1.0
    for name, seconds, runs in rows:
        lines.append(f"  {seconds:12.6f} {100.0 * seconds / total:6.1f} "
                     f"{runs:6d}  {name}")
    return lines


def render_stats_report(session: TelemetrySession) -> str:
    """LLVM ``-stats`` + ``-time-passes`` style plain-text report."""
    lines: List[str] = []
    bar = "===" + "-" * 66 + "==="
    lines.append(bar)
    lines.append("                    ... Statistics Collected ...")
    lines.append(bar)
    if session.counters:
        width = max(len(str(v)) for v in session.counters.values())
        for (component, name), value in sorted(session.counters.items()):
            lines.append(f"  {value:{width}d} {component:20s} - {name}")
    else:
        lines.append("  (no counters recorded)")
    lines.append("")

    pass_rows = _aggregate_spans(session, "pass")
    if pass_rows:
        lines.extend(_timing_table(pass_rows, "Pass execution timing "
                                              "(-time-passes analogue)"))
        lines.append("")
    stage_rows = _aggregate_spans(session, "stage")
    if stage_rows:
        lines.extend(_timing_table(stage_rows, "Pipeline stage timing "
                                               "(self time)"))
        lines.append("")
    pgo_rows = _aggregate_spans(session, "pgo")
    if pgo_rows:
        lines.extend(_timing_table(pgo_rows, "PGO cycle timing (per variant)"))
        lines.append("")

    if session.remarks:
        by_pass: Dict[str, int] = {}
        for rem in session.remarks:
            by_pass[rem.pass_name] = by_pass.get(rem.pass_name, 0) + 1
        summary = ", ".join(f"{name} {count}"
                            for name, count in sorted(by_pass.items()))
        lines.append(f"=== Optimization remarks: {len(session.remarks)} "
                     f"({summary}) ===")
        lines.append("")
    return "\n".join(lines)


def chrome_trace(session: TelemetrySession) -> Dict[str, Any]:
    """Chrome trace-event JSON object (the ``-ftime-trace`` shape)."""
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": "repro PGO pipeline"},
    }]
    for record in sorted(session.spans, key=lambda r: r.start_us):
        event: Dict[str, Any] = {
            "name": record.name,
            "cat": record.category or "span",
            "ph": "X",
            "ts": record.start_us,
            "dur": record.duration_us,
            "pid": 1,
            "tid": record.tid,
        }
        if record.args:
            event["args"] = {key: value for key, value in record.args.items()
                             if isinstance(value, (str, int, float, bool))}
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def remarks_to_json(session: TelemetrySession) -> List[Dict[str, Any]]:
    return [rem.to_dict() for rem in session.remarks]


def write_chrome_trace(session: TelemetrySession, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(session), handle, indent=1)


def write_remarks(session: TelemetrySession, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(remarks_to_json(session), handle, indent=1)
