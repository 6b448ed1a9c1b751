"""Telemetry subsystem: counters, spans, remarks, exporters, and the
zero-overhead / zero-behaviour-change guarantees of the disabled path."""

import json

from repro import PGODriverConfig, PGOVariant, run_pgo, telemetry
from repro.hw import PMUConfig
from repro.opt import OptConfig, optimize_module
from repro.telemetry import (Remark, TelemetrySession, chrome_trace,
                             remarks_to_json, render_stats_report,
                             write_chrome_trace, write_remarks)
from repro.telemetry.core import _NULL_SPAN, SpanRecord
from tests.conftest import build_call_module


def _driver_config(iterations=1):
    return PGODriverConfig(pmu=PMUConfig(period=31),
                           profile_iterations=iterations)


class TestDisabledPath:
    def test_disabled_calls_are_noops(self):
        assert not telemetry.enabled()
        assert telemetry.current() is None
        telemetry.count("x", "y")           # must not raise
        telemetry.remark("p", "N", "f", "m")
        with telemetry.span("s", "stage") as span:
            span.set(a=1)

    def test_disabled_span_is_shared_singleton(self):
        # No allocation on the disabled path: same object every call.
        assert telemetry.span("a", "pass") is telemetry.span("b", "stage")
        assert telemetry.span("a") is _NULL_SPAN

    def test_enable_disable_round_trip(self):
        session = telemetry.enable()
        assert telemetry.enabled()
        assert telemetry.current() is session
        telemetry.disable()
        assert not telemetry.enabled()

    def test_enable_installs_given_session(self):
        mine = TelemetrySession()
        assert telemetry.enable(mine) is mine
        telemetry.count("c", "n", 3)
        assert mine.counter("c", "n") == 3


class TestCollection:
    def test_counters_accumulate(self):
        session = telemetry.enable()
        telemetry.count("correlate", "drops")
        telemetry.count("correlate", "drops", 4)
        assert session.counter("correlate", "drops") == 5
        assert session.counter("correlate", "missing") == 0

    def test_spans_record_nesting_and_args(self):
        session = telemetry.enable()
        with telemetry.span("outer", "stage", key="v"):
            with telemetry.span("inner", "pass"):
                pass
        inner, outer = session.spans
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert outer.args == {"key": "v"}
        assert inner.duration_us >= 0
        assert outer.duration_us >= inner.duration_us

    def test_span_set_after_exit_lands_in_record(self):
        # PassManager attaches IR deltas after the pass span closed.
        session = telemetry.enable()
        with telemetry.span("p", "pass") as span:
            pass
        span.set(instrs_delta=-3)
        assert session.spans[0].args["instrs_delta"] == -3

    def test_remark_converts_debug_loc(self):
        class Loc:
            line = 7
            discriminator = 2

        session = telemetry.enable()
        telemetry.remark("inline", "Inlined", "main", "msg", loc=Loc(),
                         callee="helper")
        record = session.remarks[0].to_dict()
        assert record["DebugLoc"] == {"Function": "main", "Line": 7,
                                      "Discriminator": 2}
        assert record["Args"]["callee"] == "helper"

    def test_remark_without_loc(self):
        session = telemetry.enable()
        telemetry.remark("dce", "Removed", "f", "msg")
        assert "DebugLoc" not in session.remarks[0].to_dict()


class TestExporters:
    def _populated_session(self):
        session = telemetry.enable()
        telemetry.count("pass.inline", "callsites_inlined", 2)
        with telemetry.span("variant:csspgo", "pgo"):
            with telemetry.span("iteration:0", "stage"):
                with telemetry.span("inline", "pass"):
                    pass
        telemetry.remark("inline", "Inlined", "main", "msg",
                         loc={"function": "main", "line": 3,
                              "discriminator": 0})
        telemetry.disable()
        return session

    def test_stats_report_contents(self):
        report = render_stats_report(self._populated_session())
        assert "Statistics Collected" in report
        assert "pass.inline" in report and "callsites_inlined" in report
        assert "-time-passes analogue" in report
        assert "Pipeline stage timing" in report
        assert "Optimization remarks: 1 (inline 1)" in report

    def test_chrome_trace_shape(self):
        trace = chrome_trace(self._populated_session())
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == [
            "variant:csspgo", "iteration:0", "inline"]  # sorted by start
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid"}

    def test_write_round_trips_through_json(self, tmp_path):
        session = self._populated_session()
        trace_path = tmp_path / "trace.json"
        remarks_path = tmp_path / "remarks.json"
        write_chrome_trace(session, str(trace_path))
        write_remarks(session, str(remarks_path))
        trace = json.loads(trace_path.read_text())
        assert len(trace["traceEvents"]) == 4
        remarks = json.loads(remarks_path.read_text())
        assert remarks == remarks_to_json(session)
        assert remarks[0]["Pass"] == "inline"

    def test_stage_table_reports_self_time(self):
        """``iteration:0`` contains ``profiling-build`` (through a pass
        span); the table charges each µs to one stage, so it sums to 100%.
        A later sibling stage must not claim the earlier one's children."""
        session = TelemetrySession()
        # Recorded as spans close: children before their parents.
        session.spans = [
            SpanRecord("inline", "pass", 20.0, 10.0, 3, {}),
            SpanRecord("profiling-build", "stage", 10.0, 30.0, 2, {}),
            SpanRecord("iteration:0", "stage", 0.0, 100.0, 1, {}),
            SpanRecord("evaluate", "stage", 100.0, 50.0, 1, {}),
            SpanRecord("variant:csspgo", "pgo", 0.0, 160.0, 0, {}),
        ]
        report = render_stats_report(session)
        table = report.split("=== Pipeline stage timing (self time) ===\n")[1]
        rows = {}
        for line in table.split("\n\n")[0].splitlines()[1:]:
            seconds, percent, runs, name = line.split()
            rows[name] = (round(float(seconds) * 1e6), float(percent), int(runs))
        assert rows == {"iteration:0": (70, 46.7, 1),
                        "evaluate": (50, 33.3, 1),
                        "profiling-build": (30, 20.0, 1)}
        assert sum(row[1] for row in rows.values()) == 100.0

    def test_remark_repr_and_session_repr(self):
        remark = Remark("p", "N", "f", "m")
        assert "p:N" in repr(remark)
        assert "counters=0" in repr(TelemetrySession())


class TestPipelineCounters:
    def test_optimizer_emits_pass_counters_spans_remarks(self):
        session = telemetry.enable()
        optimize_module(build_call_module(), OptConfig(),
                        profile_annotated=False)
        telemetry.disable()
        assert session.counter("pass.inline", "callsites_inlined") >= 1
        assert session.counter("pass.simplify-cfg", "runs") == 2
        pass_spans = [s for s in session.spans if s.category == "pass"]
        assert {"inline", "dce", "simplify-cfg"} <= {s.name
                                                     for s in pass_spans}
        # Every pass span carries the IR shape delta args.
        assert all("instrs_delta" in s.args for s in pass_spans)
        assert any(r.name == "Inlined" for r in session.remarks)


class TestDriverTelemetry:
    def test_pgo_cycle_spans_nest_per_iteration(self, small_workload):
        session = telemetry.enable()
        run_pgo(small_workload, PGOVariant.CSSPGO_FULL, [60], [60],
                _driver_config(iterations=2))
        telemetry.disable()
        names = [s.name for s in session.spans]
        assert "variant:csspgo" in names
        assert "iteration:0" in names and "iteration:1" in names
        for stage in ("profiling-build", "collect", "profile-generation",
                      "trim", "preinline", "optimizing-build", "evaluate"):
            assert stage in names, stage
        # iteration spans nest inside the variant span.
        variant = next(s for s in session.spans if s.name == "variant:csspgo")
        iteration = next(s for s in session.spans if s.name == "iteration:1")
        assert iteration.depth == variant.depth + 1
        assert session.counter("correlate", "samples_unwound") > 0
        assert session.counter("hw.pmu", "samples_taken") > 0

    def test_enabled_telemetry_does_not_change_results(self, small_workload):
        """Observe-only guarantee: identical cycle counts and binaries with
        telemetry on and off."""
        plain = run_pgo(small_workload, PGOVariant.CSSPGO_FULL, [60], [60],
                        _driver_config())
        telemetry.enable()
        observed = run_pgo(small_workload, PGOVariant.CSSPGO_FULL, [60], [60],
                           _driver_config())
        telemetry.disable()
        assert observed.eval.cycles == plain.eval.cycles
        assert observed.eval.instructions == plain.eval.instructions
        assert ([i.kind for i in observed.final.binary.instrs]
                == [i.kind for i in plain.final.binary.instrs])
        assert observed.profile_stats == plain.profile_stats
