"""Fault-tolerant continuous-profiling fleet service (DESIGN.md sec. 15).

The fleet is a deterministic, tick-driven simulation doing *real*
collection work (PMU runs, context profgen), so these tests can
make hard promises: the same seed reproduces the event log byte for byte,
every orphaned task is re-queued exactly once, the retry budget is never
exceeded, and every service ends the run on the freshest eligible profile
variant — or an explicitly accounted fallback.
"""

from __future__ import annotations

import pytest

from repro import obs, telemetry
from repro.cli import main as cli_main
from repro.faults import FaultSpec
from repro.fleet import (CHAIN, FleetConfig, RetryPolicy, default_fleet,
                         run_fleet)
from repro.obs.events import EventLog, read_event_log


def _spec(text):
    return FaultSpec.parse(text)


def _run(ticks=120, *, seed=7, services=3, spec=None, **overrides):
    config = FleetConfig(ticks=ticks, services=services, seed=seed,
                         fault_spec=spec, **overrides)
    return run_fleet(config)


@pytest.fixture
def obs_log(tmp_path):
    """A file-backed obs session; yields the log path."""
    path = tmp_path / "events.jsonl"
    obs.install(obs.Observability(log=EventLog(path=str(path))))
    yield path
    obs.uninstall()


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=6, base_backoff=2, backoff_cap=16,
                             jitter=0)
        delays = [policy.backoff(1, attempt) for attempt in range(1, 7)]
        assert delays == [2, 4, 8, 16, 16, 16]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter=3, seed=11)
        first = [policy.backoff(t, 1) for t in range(20)]
        second = [policy.backoff(t, 1) for t in range(20)]
        assert first == second  # same seed, same stream
        base = policy.base_backoff
        assert all(base <= d <= base + 3 for d in first)
        # Decorrelated across tasks: not every task gets the same jitter.
        assert len(set(first)) > 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# the simulation: determinism + invariants
# ---------------------------------------------------------------------------


class TestFleetDeterminism:
    def test_same_seed_byte_identical_log(self, tmp_path):
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            obs.install(obs.Observability(log=EventLog(path=str(path))))
            try:
                _run(100, spec=_spec(
                    "worker_crash:0.05,slow_collection:0.25@seed=9"))
            finally:
                obs.uninstall()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0]  # and the log is not trivially empty

    def test_different_seed_different_schedule(self):
        spec = _spec("worker_crash:0.08@seed=3")
        a = _run(100, seed=1, spec=spec)
        b = _run(100, seed=2, spec=spec)
        # Different fleet seeds build different services; the runs must
        # both hold their invariants regardless.
        assert a.check() == [] and b.check() == []


class TestFleetInvariants:
    def test_500_tick_fault_storm(self):
        """The acceptance run: crash + hang + slow injectors, 500 ticks."""
        report = _run(
            500, seed=13, services=4,
            spec=_spec("worker_crash:0.04,worker_hang:0.03,"
                       "slow_collection:0.3@seed=11"))
        assert report.check() == []
        totals = report.totals
        assert totals["tasks_completed"] > 0
        assert totals["worker_crashes"] > 0
        assert totals["worker_hangs"] > 0
        assert totals["tasks_retried"] >= 1  # recovered work happened
        assert totals["fallbacks"] >= 1      # degradation chain exercised
        # Every orphan re-queued exactly once or explicitly retired.
        assert report.orphan_loss == 0
        assert totals["tasks_orphaned"] == (totals["orphans_requeued"]
                                            + totals["orphans_exhausted"])
        assert report.budget_respected
        # Workers were replaced one-for-one after every crash.
        assert totals["worker_respawns"] == totals["worker_crashes"]

    def test_clean_run_has_no_failures(self):
        report = _run(100)
        assert report.check() == []
        totals = report.totals
        assert totals["worker_crashes"] == 0
        assert totals["tasks_retried"] == 0
        assert totals["tasks_completed"] == totals["tasks_scheduled"] > 0
        # Everyone ends on the full context profile.
        assert all(s["assigned"] == "csspgo" and s["reason"] == "fresh"
                   for s in report.services)

    def test_permanent_hang_exhausts_budget_without_losing_tasks(self):
        """Every dispatch wedges: tasks retry to exhaustion, none is lost,
        and the budget is still respected."""
        report = _run(80, spec=_spec("worker_hang:1@seed=2"),
                      heartbeat_timeout=3)
        totals = report.totals
        assert totals["tasks_completed"] == 0
        assert totals["worker_hangs"] > 0
        assert totals["tasks_exhausted"] > 0
        assert report.budget_respected
        assert report.orphan_loss == 0
        # check() must flag the zero-completion run, not pass it.
        assert any("completed none" in v for v in report.check())

    def test_dropped_shards_fail_into_retry(self):
        report = _run(100, spec=_spec("drop_shard:0.5@seed=4"))
        totals = report.totals
        assert totals["tasks_failed"] > 0
        assert totals["tasks_retried"] > 0
        assert totals["tasks_completed"] > 0  # retries eventually land
        assert report.orphan_loss == 0

    def test_deadline_cancels_slow_collections(self):
        report = _run(100, spec=_spec("slow_collection:1@seed=6"),
                      base_duration=3, deadline=4)
        totals = report.totals
        assert totals["tasks_timed_out"] > 0
        assert totals["tasks_cancelled"] >= totals["tasks_timed_out"]
        assert report.budget_respected


# ---------------------------------------------------------------------------
# freshness-driven degradation
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_chain_order(self):
        assert CHAIN == ("csspgo", "autofdo", "none")

    def test_stale_profile_degrades_to_autofdo(self, obs_log):
        # Freshness window shorter than the collection cadence: every
        # generation expires before the next lands.
        report = _run(90, collect_every=40, freshness_window=10,
                      status_every=10)
        assert report.totals["fallbacks"] >= 1
        events, _ = read_event_log(str(obs_log))
        stale = [e for e in events if e.type == "fallback_taken"
                 and e.fields["reason"] == "ProfileStaleError"]
        assert stale
        assert stale[0].fields["from_variant"] == "csspgo"
        assert stale[0].fields["to_variant"] == "autofdo"
        # A later collection recovers the service back to csspgo.
        assigns = [e for e in events if e.type == "fleet_assignment"]
        recovered = [e for e in assigns if e.fields["variant"] == "csspgo"
                     and e.fields["tick"] > 0]
        assert recovered

    def test_release_race_unprofiles_the_service(self, obs_log):
        # Releases every 15 ticks, collections every 40: the deployed
        # binary races ahead of profiling and address-based profiles from
        # the old build must not be applied at all.
        report = _run(80, services=1, collect_every=40, release_every=15,
                      freshness_window=60, status_every=10)
        events, _ = read_event_log(str(obs_log))
        mismatched = [e for e in events if e.type == "fleet_assignment"
                      and e.fields["reason"] == "BinaryMismatchError"]
        assert mismatched
        assert all(e.fields["variant"] == "none" for e in mismatched)
        assert report.totals["releases"] > 0
        # The none hop was accounted on the chain, not silent.
        hops = [e for e in events if e.type == "fallback_taken"
                and e.fields["to_variant"] == "none"]
        assert hops

    def test_clock_skew_ages_generations(self, obs_log):
        report = _run(120, spec=_spec("clock_skew:0.8@seed=5"),
                      freshness_window=25, status_every=10)
        events, _ = read_event_log(str(obs_log))
        skewed = [e for e in events if e.type == "profile_generated"
                  and e.fields.get("skew")]
        assert skewed  # the injector actually fired
        for event in skewed:
            manifest = event.fields["manifest"]
            assert manifest["faults"]["injected"]["clock_skew.ticks"] == \
                event.fields["skew"]
        # Skew can push a fresh-looking generation past the window.
        assert report.check() == []

    def test_generation_manifests_carry_provenance(self, obs_log):
        _run(60, status_every=20)
        events, _ = read_event_log(str(obs_log))
        generated = [e for e in events if e.type == "profile_generated"
                     and "service" in e.fields]
        assert generated
        manifest = generated[0].fields["manifest"]
        assert manifest["variant"] == "csspgo"
        assert manifest["kind"] == "context"
        assert manifest["binary_identity"]
        assert manifest["perf"]["samples"] > 0
        # The samples were collected on the build the manifest names.
        assert manifest["perf"]["binary_id"] == manifest["binary_identity"]
        assert manifest["profile_stats"]["records"] > 0


# ---------------------------------------------------------------------------
# status rollups + SLO indicators
# ---------------------------------------------------------------------------


class TestStatusAndSLOs:
    def test_rollups_feed_the_fleet_indicators(self, obs_log):
        _run(120, spec=_spec("worker_crash:0.05@seed=9"), status_every=20)
        events, _ = read_event_log(str(obs_log))
        rollups = [e for e in events if e.type == "fleet_status"]
        assert len(rollups) >= 6
        indicators = obs.compute_indicators(events)
        assert indicators["orphan_loss"] == 0
        assert 0.0 <= indicators["profile_freshness"] <= 1.0
        assert indicators["task_retry_rate"] >= 0.0

    def test_warmup_rollup_has_no_freshness(self, obs_log):
        _run(5, status_every=1)
        events, _ = read_event_log(str(obs_log))
        first = next(e for e in events if e.type == "fleet_status")
        assert first.fields["freshness"] is None  # nothing to be fresh yet

    def test_snapshot_drops_wall_clock_timings(self, obs_log):
        session = telemetry.enable()
        try:
            _run(40, status_every=20)
        finally:
            telemetry.disable()
        events, _ = read_event_log(str(obs_log))
        snapshots = [e for e in events if e.type == "metrics_snapshot"]
        assert snapshots
        for snap in snapshots:
            assert not any(key.endswith(("_ns", "_us"))
                           for key in snap.fields["totals"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFleetCLI:
    def test_run_and_status_round_trip(self, tmp_path, capsys):
        log = tmp_path / "fleet.jsonl"
        rc = cli_main(["--seed", "20",
                       "--fault-spec", "worker_crash:0.1@seed=9",
                       "--events-out", str(log),
                       "fleet", "run", "--ticks", "60", "--services", "2",
                       "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "invariants OK" in out
        rc = cli_main(["fleet", "status", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet status @ tick 59" in out
        assert "svc0" in out

    def test_report_check_passes_on_fleet_log(self, tmp_path, capsys):
        log = tmp_path / "fleet.jsonl"
        assert cli_main(["--seed", "20", "--events-out", str(log),
                         "fleet", "run", "--ticks", "60"]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(log), "--check"]) == 0
        out = capsys.readouterr().out
        assert "orphan-loss" in out

    def test_cli_log_is_byte_reproducible(self, tmp_path, capsys):
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert cli_main(
                ["--seed", "20",
                 "--fault-spec", "worker_crash:0.05@seed=9",
                 "--events-out", str(path),
                 "fleet", "run", "--ticks", "60", "--services", "2"]) == 0
            capsys.readouterr()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_status_on_non_fleet_log_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli_main(["fleet", "status", str(path)]) == 1


# ---------------------------------------------------------------------------
# satellite: crash-safe event log (torn tail)
# ---------------------------------------------------------------------------


class TestTornTail:
    def _write_torn(self, path):
        log = EventLog(path=str(path))
        log.emit("fleet_release", service="svc0", revision=1, binary="b",
                 tick=3)
        log.close()
        blob = path.read_bytes()
        path.write_bytes(blob + b'{"type":"fleet_task","seq":1,"ts":4.0,')

    def test_torn_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_torn(path)
        events, malformed = read_event_log(str(path))
        assert [e.type for e in events] == ["fleet_release"]
        assert malformed == 1

    def test_torn_final_line_tolerated_even_in_strict_mode(self, tmp_path):
        # A killed worker tears the tail; that is expected crash evidence,
        # not a schema violation, so strict mode still reads the log.
        path = tmp_path / "events.jsonl"
        self._write_torn(path)
        events, malformed = read_event_log(str(path), strict=True)
        assert len(events) == 1 and malformed == 1

    def test_torn_middle_line_still_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_torn(path)
        with open(path, "a") as handle:
            handle.write('\n{"type":"fleet_release","seq":2,"ts":5.0,'
                         '"service":"svc0","revision":2,"binary":"b",'
                         '"tick":9}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_event_log(str(path), strict=True)


# ---------------------------------------------------------------------------
# satellite: merge rejection reporting
# ---------------------------------------------------------------------------


class TestMergeRejection:
    def test_mismatch_names_both_identities_and_site(self):
        from repro.hw import PerfData
        from repro.profile.errors import BinaryMismatchError
        ours = PerfData(59, 16, True)
        ours.binary_id = "a" * 16
        theirs = PerfData(59, 16, True)
        theirs.binary_id = "b" * 16
        with pytest.raises(BinaryMismatchError) as exc:
            ours.extend(theirs, site="fleet.test_merge")
        message = str(exc.value)
        assert "a" * 16 in message and "b" * 16 in message
        assert "fleet.test_merge" in message

    def test_rejection_bumps_counter_and_emits_event(self):
        from repro.hw import PerfData
        from repro.profile.errors import BinaryMismatchError
        ours = PerfData(59, 16, True)
        ours.binary_id = "a" * 16
        theirs = PerfData(59, 16, True)
        theirs.binary_id = "b" * 16
        session = telemetry.enable()
        parent_obs = obs.install(obs.Observability())
        try:
            with pytest.raises(BinaryMismatchError):
                ours.extend(theirs, site="fleet.test_merge")
        finally:
            telemetry.disable()
            obs.uninstall()
        assert session.counters[("pgo.merge", "rejected")] == 1
        rejected = parent_obs.log.of_type("merge_rejected")
        assert len(rejected) == 1
        assert rejected[0].fields["site"] == "fleet.test_merge"
        assert rejected[0].fields["ours"] == "a" * 16
        assert rejected[0].fields["theirs"] == "b" * 16


# ---------------------------------------------------------------------------
# engine details
# ---------------------------------------------------------------------------


class TestEngineDetails:
    def test_retry_attempts_resample_the_stream(self):
        from repro.fleet import CollectionEngine, CollectionTask
        engine = CollectionEngine(seed=3)
        services = default_fleet(1, seed=3)
        task = CollectionTask(0, "svc0", 0, 1.0, 8, 0)
        first = engine.jitter_seed(services[0], task)
        task.attempt = 2
        second = engine.jitter_seed(services[0], task)
        assert first != second  # a retry re-collects, not replays
