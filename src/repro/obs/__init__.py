"""Durable observability formats and their offline readers (DESIGN.md
sec. 7).

Collection lives in one place, the :mod:`repro.telemetry` session; this
package holds what outlives the process:

* :mod:`~repro.obs.events` — the event-log schema, the append-only
  :class:`EventLog` a session writes through ``telemetry.emit`` /
  ``telemetry.snapshot``, and the permissive reader;
* :mod:`~repro.obs.provenance` — per-profile provenance manifests;
* :mod:`~repro.obs.health` — SLO rules and indicators over an event stream;
* :mod:`~repro.obs.dashboard` — the terminal/HTML report ``repro report``
  renders from a log.

The CLI attaches a file-backed log to its session for ``--events-out
PATH``::

    session = telemetry.enable(telemetry.TelemetrySession(
        log=obs.EventLog(path)))
"""

from __future__ import annotations

from .dashboard import build_report, render_html, render_text
from .events import EVENT_TYPES, Event, EventLog, read_event_log
from .health import (HealthReport, SLORule, compute_indicators,
                     default_rules, evaluate_health, parse_rules)
from .provenance import (MANIFEST_SUFFIX, ProfileManifest, manifest_path_for,
                         profile_block_counts, trim_overlap_score)

__all__ = [
    "EVENT_TYPES", "Event", "EventLog", "HealthReport", "MANIFEST_SUFFIX",
    "ProfileManifest", "SLORule", "build_report", "compute_indicators",
    "default_rules", "evaluate_health", "manifest_path_for",
    "parse_rules", "profile_block_counts", "read_event_log", "render_html",
    "render_text", "trim_overlap_score",
]
