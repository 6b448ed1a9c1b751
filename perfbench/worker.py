"""One workload in one fresh process: set up, check, measure.

``run.py`` starts this script; it is not meant to be run by hand.  It
prints one JSON object as its last line of output:

* ``--setup-only``: the set-up time alone;
* otherwise the per-call wall times, quality figures and correctness
  counts, the process's peak RSS and, with ``--trace 1``, the per-call
  ledgers.  Traced runs alternate untraced and traced calls so the tracing
  overhead is measured in the same process.

Set-up is importing ``repro`` and the pipeline modules and generating the
workload.  A ``pacer.Pacer`` probes the machine's speed from the first line
on; every timing excludes the probes' own time and carries the probes taken
during it.  Every machine execution during a pipeline call is checked
against the IR interpreter's return value for the same arguments on the
pristine source module.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Checker:
    """Checks every machine execution and records the last profile-optimized
    CSSPGO binary's ``.text`` size.  Wraps ``execute`` and ``build`` at the
    pipeline's bindings."""

    TARGETS = {"repro.pgo.driver": ["execute", "build"],
               "repro.pgo.quality_eval": ["execute", "build"]}

    def __init__(self, args, expected: int) -> None:
        self.args = tuple(args)
        self.expected = expected
        self.executions = 0
        self.mismatches = 0
        self.csspgo_text_bytes = None

    def begin_call(self) -> None:
        self.executions = 0
        self.mismatches = 0
        self.csspgo_text_bytes = None

    def wrap(self, name, fn):
        if name == "execute":
            @functools.wraps(fn)
            def execute(binary, args=(), *rest, **kwargs):
                result = fn(binary, args, *rest, **kwargs)
                self.executions += 1
                if (tuple(args) != self.args
                        or result.return_value != self.expected):
                    self.mismatches += 1
                return result
            return execute

        @functools.wraps(fn)
        def build(source, variant, *rest, **kwargs):
            artifacts = fn(source, variant, *rest, **kwargs)
            profile = kwargs.get("profile", rest[0] if rest else None)
            if variant.uses_probes and profile is not None:
                self.csspgo_text_bytes = artifacts.sizes.text
            return artifacts
        return build


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--program-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    opts = parser.parse_args()

    from pacer import Pacer
    pacer = Pacer().start()
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build_source, make_call
    source, requests = build_source(opts.workload, opts.program_seed)
    span_name, run = make_call(opts.workload, source, requests, opts.seed)
    setup_probes = pacer.since(0)
    setup_s = time.perf_counter() - started - sum(setup_probes)
    if opts.setup_only:
        pacer.stop()
        print(json.dumps({"setup_s": setup_s, "probes": setup_probes}))
        return 0

    from repro import telemetry
    from repro.ir.interpreter import IRInterpreter
    from tracing import Bindings, Tracer, ledger

    expected = IRInterpreter(source).run([requests]).return_value
    checker = Checker([requests], expected)
    checker_bindings = Bindings()
    checker_bindings.install(Checker.TARGETS, checker.wrap)
    checks = int(WORKLOADS[opts.workload]["checks"])

    calls = []
    spans = []
    deadline = time.perf_counter() + opts.seconds
    while True:
        traced = bool(opts.trace) and len(calls) % 2 == 1
        gc.collect()
        checker.begin_call()
        tracer = bindings = None
        if traced:
            tracer, bindings = Tracer(), Bindings()
            tracer.run_id = len(calls)
            tracer.install(bindings)
            session = telemetry.enable(telemetry.TelemetrySession())
        error = None
        mark = pacer.mark()
        t0 = time.perf_counter()
        try:
            if traced:
                quality = tracer.call("pgo", f"pgo.{span_name}", run)
            else:
                quality = run()
        except Exception:  # a failed call fails all its checks
            error, quality = traceback.format_exc(), {}
        finally:
            wall = time.perf_counter() - t0
            probes = pacer.since(mark)
            wall -= sum(probes)
            if traced:
                telemetry.disable()
                bindings.restore()
        attempted = max(checks, checker.executions)
        failed = (attempted if error else
                  checker.mismatches + attempted - checker.executions)
        call = {"wall_s": wall, "probes": probes, "traced": traced,
                "attempted": attempted, "failed": failed, "error": error,
                "csspgo_text_bytes": checker.csspgo_text_bytes, **quality}
        if traced and not error:
            call["ledger"] = ledger(tracer.spans, dict(session.counters),
                                    tracer.observed)
            call["layers"] = sorted({span.layer for span in tracer.spans})
            spans.extend(span.to_dict() for span in tracer.spans)
        calls.append(call)
        if time.perf_counter() >= deadline and (
                not opts.trace or len(calls) >= 2):
            break
    checker_bindings.restore()
    pacer.stop()

    if opts.trace_out and spans:
        with open(opts.trace_out, "w") as handle:
            json.dump({"workload": opts.workload, "seed": opts.seed,
                       "spans": spans}, handle)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "probes": setup_probes,
                      "peak_rss_mb": peak_kb / 1024.0, "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
