"""Fleet status: counters, periodic rollups, per-service gauges.

The status collector reports the fleet into the observability session
(DESIGN.md sec. 7): every ``status_every`` ticks it emits one
``fleet_status`` event — the scheduler/worker/generation totals plus the
fraction of services currently on a fresh context profile — sets
per-service gauges on the session, and writes a ``metrics_snapshot``.
``repro report`` turns those rollups into the ``profile-freshness`` /
``task-retry-rate`` / ``orphan-loss`` SLO verdicts
(:mod:`repro.obs.health`).
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import telemetry

#: Canonical counter names, in rollup order.  Kept explicit so the
#: ``fleet_status`` totals are a stable, complete schema even when a
#: counter never fired (a 0 is evidence; a missing key is not).
STAT_KEYS = (
    "tasks_scheduled",
    "tasks_dispatched",
    "tasks_completed",
    "tasks_retried",
    "tasks_failed",
    "tasks_timed_out",
    "tasks_cancelled",
    "tasks_exhausted",
    "tasks_orphaned",
    "orphans_requeued",
    "orphans_exhausted",
    "worker_crashes",
    "worker_hangs",
    "worker_respawns",
    "releases",
    "generations",
    "fallbacks",
    "assignment_changes",
)


class FleetStats:
    """Monotonic fleet counters (the ``fleet_status`` totals)."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {key: 0 for key in STAT_KEYS}

    def bump(self, name: str, n: int = 1) -> None:
        if name not in self.counters:
            raise KeyError(f"unknown fleet counter {name!r}")
        self.counters[name] += n

    def get(self, name: str) -> int:
        return self.counters[name]

    def totals(self) -> Dict[str, int]:
        return dict(self.counters)

    def orphan_loss(self) -> int:
        """Orphaned tasks neither re-queued nor explicitly retired — the
        supervisor's core invariant is that this is always zero."""
        return (self.counters["tasks_orphaned"]
                - self.counters["orphans_requeued"]
                - self.counters["orphans_exhausted"])

    def __repr__(self) -> str:
        busy = {k: v for k, v in self.counters.items() if v}
        return f"<FleetStats {busy}>"


class StatusCollector:
    """Periodic ``fleet_status`` rollups + per-service metric gauges."""

    def __init__(self, every: int, stats: FleetStats, registry,
                 generations) -> None:
        self.every = max(1, every)
        self.stats = stats
        self.registry = registry
        self.generations = generations
        self._last_emitted: Optional[int] = None

    def maybe(self, tick: int) -> None:
        if tick % self.every == 0:
            self.emit(tick)

    def final(self, tick: int) -> None:
        """End-of-run rollup (skipped if this tick already emitted)."""
        if self._last_emitted != tick:
            self.emit(tick)

    def emit(self, tick: int) -> None:
        self._last_emitted = tick
        fresh = 0
        session = telemetry.current()
        recording = session is not None and session.log is not None
        for service in self.registry:
            variant, reason, _gen = self.generations.eligible(service, tick)
            is_fresh = variant == "csspgo"
            fresh += is_fresh
            if recording:
                name = service.spec.name
                session.set_gauge("fleet.service.fresh", is_fresh,
                                  service=name)
                session.set_gauge("fleet.service.revision", service.revision,
                                  service=name)
                session.set_gauge("fleet.service.generations",
                                  self.generations.count_for(name),
                                  service=name)
        # Freshness is meaningless before the first generation ever lands
        # (a fleet that has not warmed up is not "0% fresh" — there is no
        # profile to be fresh *against*), so warmup rollups carry None and
        # the SLO rule skips them instead of dragging the mean down.
        freshness = (fresh / len(self.registry)
                     if len(self.registry) and self.stats.get("generations")
                     else None)
        telemetry.emit("fleet_status", tick=tick, totals=self.stats.totals(),
                       freshness=freshness, services=len(self.registry))
        # Timing counters are wall-clock and would break the byte-for-byte
        # reproducibility the tick clock buys the fleet log.
        telemetry.snapshot(f"fleet/tick:{tick}", drop_timings=True)
