"""The observability session: counters, gauges, span timers, remarks,
an optional event log, and the in-process exporters.

See DESIGN.md sec. 7 for the module map and the
counter -> LLVM-analogue fidelity table.  Import as::

    from repro import telemetry
    telemetry.count("correlate", "samples_broken")
    with telemetry.span("profile-generation", "stage"):
        ...
    telemetry.emit("fallback_taken", from_variant="csspgo",
                   to_variant="autofdo", reason="ProfileStaleError")

Every entry point is a no-op while no session is installed (the default);
``emit`` and ``snapshot`` also while the session has no event log.
"""

from .core import (Remark, SpanRecord, TelemetrySession, count, current,
                   disable, emit, enable, enabled, remark, snapshot, span)
from .report import (chrome_trace, remarks_to_json, render_stats_report,
                     write_chrome_trace, write_remarks)

__all__ = [
    "Remark", "SpanRecord", "TelemetrySession",
    "count", "current", "disable", "emit", "enable", "enabled", "remark",
    "snapshot", "span",
    "chrome_trace", "remarks_to_json", "render_stats_report",
    "write_chrome_trace", "write_remarks",
]
