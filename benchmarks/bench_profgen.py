"""Profile-generation micro-benchmark: fast path vs legacy per-sample path.

Times all three profgen modes (DWARF, probe, context — the latter with and
without the frame inferrer) over a realistic loopy workload, on both the
default fast path (sample dedup + memoized unwinding + binary range indexes
+ interned contexts, DESIGN.md sec. 9) and the legacy per-sample reference
(``fast=False``), and writes ``BENCH_profgen.json`` with samples/sec per
mode, speedups, and cache effectiveness (unique-sample ratio, unwind/range/
context cache hit rates).  Used two ways:

* locally: ``PYTHONPATH=src python benchmarks/bench_profgen.py``
* in CI (smoke): small workload, compared against the checked-in baseline
  (``benchmarks/results/BENCH_profgen_baseline.json``); the job fails when
  fast-path samples/sec regresses by more than ``--max-regression`` (default
  2x), which catches "the dedup/memo layers stopped working" class bugs
  while absorbing runner-to-runner noise.

The fast path's performance contract (paper sec. III.B: post-processing,
not collection, dominates sampling-PGO cost): context mode at least 3x the
legacy samples/sec, every other mode at least 2x.  ``--check`` enforces the
contract and is deliberately separate from the baseline comparison: the
contract is machine-independent, the baseline is not.  Every timed pair is
also verified byte-identical (fast vs legacy text output) — a benchmark
that quietly changed the profile would be meaningless.

Dead-cache sanity runs unconditionally: a cache counter pinned at zero
(unwind payload reuse, range indexes never consulted) fails the bench —
that is how the dead unwind memo and the uninstrumented instr-range index
slipped through before.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import telemetry
from repro.codegen import build_probe_metadata, link
from repro.correlate import (generate_context_profile, generate_dwarf_profile,
                             generate_probe_profile)
from repro.hw import PMUConfig, execute, make_pmu
from repro.opt import OptConfig, optimize_module
from repro.probes import insert_pseudo_probes
from repro.profile import dump_context_profile, dump_flat_profile
from repro.workloads import WorkloadSpec, build_workload

ARGS = [300]

#: minimum fast/legacy samples-per-second ratio per mode (--check).
REQUIRED_SPEEDUP = {"dwarf": 2.0, "probe": 2.0, "context": 3.0,
                    "context_noinf": 2.0}


def build_profiled_binary(requests: int, period: int):
    module = build_workload(WorkloadSpec("bench", seed=7, requests=requests))
    insert_pseudo_probes(module)
    clone = module.clone()
    optimize_module(clone, OptConfig(), profile_annotated=False)
    binary = link(clone)
    meta = build_probe_metadata(binary, clone)
    pmu = make_pmu(PMUConfig(period=period))
    result = execute(binary, ARGS, pmu=pmu)
    return binary, meta, pmu.finish(result.instructions_retired)


def _modes(binary, meta, data):
    """mode name -> fast -> profile-text thunk."""
    return {
        "dwarf": lambda fast: dump_flat_profile(
            generate_dwarf_profile(binary, data, fast=fast)),
        "probe": lambda fast: dump_flat_profile(
            generate_probe_profile(binary, data, meta, fast=fast)),
        "context": lambda fast: dump_context_profile(
            generate_context_profile(binary, data, meta, fast=fast)[0]),
        "context_noinf": lambda fast: dump_context_profile(
            generate_context_profile(binary, data, meta, use_inferrer=False,
                                     fast=fast)[0]),
    }


def _measure(thunk, fast: bool, repeats: int):
    """Best-of-N wall time; +1 warmup fills the one-time indexes/memos."""
    best_ns = None
    text = None
    for _ in range(repeats + 1):
        start = time.perf_counter_ns()
        text = thunk(fast)
        elapsed = time.perf_counter_ns() - start
        if best_ns is None:  # warmup
            best_ns = float("inf")
        else:
            best_ns = min(best_ns, elapsed)
    return best_ns, text


def _cache_stats(binary, meta, data):
    """Instrumented dwarf + context runs; steady-state cache telemetry.

    Both modes run under one session because they exercise disjoint range
    indexes: the dwarf fast path is the (only) consumer of the memoized
    instruction-range index, context mode of the probe-record index —
    instrumenting context alone is how ``instr_range_hit_rate`` sat at a
    dead 0.0 for four PRs.
    """
    session = telemetry.enable(telemetry.TelemetrySession())
    try:
        generate_dwarf_profile(binary, data, fast=True)
        generate_context_profile(binary, data, meta, fast=True)
    finally:
        telemetry.disable()
    cache = {name: n for (comp, name), n in session.counters.items()
             if comp == "correlate.cache"}

    def rate(hits: str, misses: str) -> float:
        total = cache.get(hits, 0) + cache.get(misses, 0)
        return cache.get(hits, 0) / total if total else 0.0

    return {
        "unwind_cache_hit_rate": rate("unwind_hits", "unwind_misses"),
        "stack_cache_hit_rate": rate("stack_hits", "stack_misses"),
        "probe_range_hit_rate": rate("probe_range_hits",
                                     "probe_range_misses"),
        "instr_range_hit_rate": rate("instr_range_hits",
                                     "instr_range_misses"),
        "function_at_hit_rate": rate("function_at_hits",
                                     "function_at_misses"),
        "context_key_memo_hit_rate": rate("context_key_memo_hits",
                                          "context_key_memo_misses"),
        "contexts_interned": cache.get("contexts_interned", 0),
        "context_intern_hits": cache.get("context_intern_hits", 0),
        "counters": cache,
    }


def run_bench(requests: int, period: int, repeats: int):
    binary, meta, data = build_profiled_binary(requests, period)
    samples = len(data.samples)
    unique = len(data.aggregated())
    report = {
        "workload": {"name": "bench", "seed": 7, "requests": requests,
                     "period": period, "args": ARGS},
        "repeats": repeats,
        "samples": {"total": samples, "unique": unique,
                    "unique_ratio": unique / samples if samples else 0.0},
        "modes": {},
    }
    mismatches = 0
    for name, thunk in _modes(binary, meta, data).items():
        legacy_ns, legacy_text = _measure(thunk, False, repeats)
        fast_ns, fast_text = _measure(thunk, True, repeats)
        if fast_text != legacy_text:
            mismatches += 1
            print(f"  ERROR: {name} fast output differs from legacy",
                  file=sys.stderr)
        report["modes"][name] = {
            "samples": samples,
            "legacy_samples_per_sec": samples / (legacy_ns / 1e9),
            "fast_samples_per_sec": samples / (fast_ns / 1e9),
            "legacy_us_per_sample": legacy_ns / samples / 1e3,
            "fast_us_per_sample": fast_ns / samples / 1e3,
            "speedup": legacy_ns / fast_ns,
            "identical_output": fast_text == legacy_text,
        }
    report["cache"] = _cache_stats(binary, meta, data)
    report["identical_all_modes"] = mismatches == 0
    return report, mismatches


def check_contract(report) -> int:
    failures = 0
    for name, required in REQUIRED_SPEEDUP.items():
        got = report["modes"][name]["speedup"]
        status = "ok" if got >= required else "FAIL"
        if got < required:
            failures += 1
        print(f"  contract {name:14s} speedup {got:5.2f}x "
              f"(required {required:.1f}x) {status}")
    return failures


def check_cache_sanity(report) -> int:
    """Fail on dead cache counters (always on — zero is a bug, not noise).

    ``unwind_cache_hit_rate`` must be nonzero whenever the workload has
    repeated payloads (the rate is ``1 - unique_ratio`` by construction of
    the dedup path), and both range indexes must actually be consulted.
    """
    cache = report["cache"]
    counters = cache["counters"]
    samples = report["samples"]
    checks = []
    if samples["total"] > samples["unique"]:
        checks.append(("unwind payload reuse",
                       cache["unwind_cache_hit_rate"] > 0.0,
                       f"hit rate {cache['unwind_cache_hit_rate']:.3f}"))
    for index in ("instr_range", "probe_range"):
        lookups = (counters.get(f"{index}_hits", 0)
                   + counters.get(f"{index}_misses", 0))
        checks.append((f"{index} index reached", lookups > 0,
                       f"{lookups} lookups"))
    failures = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "DEAD"
        if not ok:
            failures += 1
        print(f"  cache-sanity {name:22s} {detail} {status}")
    return failures


def check_baseline(report, baseline, max_regression: float) -> int:
    failures = 0
    for name, entry in report["modes"].items():
        base = baseline["modes"].get(name)
        if base is None:
            continue
        ratio = base["fast_samples_per_sec"] / entry["fast_samples_per_sec"]
        status = "ok" if ratio <= max_regression else "FAIL"
        if ratio > max_regression:
            failures += 1
        print(f"  baseline {name:14s} samples/sec ratio {ratio:5.2f} "
              f"(limit {max_regression:.1f}x) {status}")
    return failures


def emit_bench_events(report, path: str, baseline) -> None:
    """Append one ``bench_point`` event per mode to a JSONL event log, so
    ``repro report`` folds benchmark regressions into its SLO scorecard
    (the ``bench-regression`` rule keys off the ``regression`` field)."""
    from repro import obs
    log = obs.EventLog()  # in-memory: validate first, then append raw lines
    for name, entry in report["modes"].items():
        fields = {
            "bench": "profgen",
            "metric": "fast_samples_per_sec",
            "value": entry["fast_samples_per_sec"],
            "mode": name,
            "speedup": entry["speedup"],
        }
        base = (baseline or {}).get("modes", {}).get(name)
        if base:
            fields["baseline"] = base["fast_samples_per_sec"]
            fields["regression"] = (base["fast_samples_per_sec"]
                                    / entry["fast_samples_per_sec"]) - 1.0
        log.emit("bench_point", **fields)
    start_seq = 0
    if os.path.exists(path):  # continue the sequence of an existing run log
        existing, _ = obs.read_event_log(path)
        start_seq = max((event.seq for event in existing), default=-1) + 1
    with open(path, "a") as handle:
        for event in log.events:
            record = event.to_dict()
            record["seq"] = event.seq + start_seq
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400,
                        help="workload size (120 for the CI smoke run)")
    parser.add_argument("--period", type=int, default=101,
                        help="PMU sampling period")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per mode/path (best-of)")
    parser.add_argument("--out", default="BENCH_profgen.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare fast samples/sec against this report")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when samples/sec falls below baseline by "
                             "this factor")
    parser.add_argument("--check", action="store_true",
                        help="enforce the fast-vs-legacy speedup contract")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="append bench_point events to this JSONL event "
                             "log (see repro report)")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    report, mismatches = run_bench(args.requests, args.period, args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    info = report["samples"]
    print(f"profgen bench: {info['total']:,} samples "
          f"({info['unique']:,} unique, "
          f"{info['unique_ratio']*100:.1f}%), repeats={args.repeats}")
    for name, entry in report["modes"].items():
        print(f"  {name:14s} legacy {entry['legacy_samples_per_sec']:10,.0f} "
              f"samples/s   fast {entry['fast_samples_per_sec']:10,.0f} "
              f"samples/s   speedup {entry['speedup']:5.2f}x")
    cache = report["cache"]
    # Unwind hit rate = samples served by payload reuse; equals
    # 1 - unique_ratio on the dedup path by construction.
    print(f"  caches    unwind {cache['unwind_cache_hit_rate']*100:.1f}%  "
          f"stack {cache['stack_cache_hit_rate']*100:.1f}%  "
          f"instr-range {cache['instr_range_hit_rate']*100:.1f}%  "
          f"probe-range {cache['probe_range_hit_rate']*100:.1f}%  "
          f"context-memo {cache['context_key_memo_hit_rate']*100:.1f}%  "
          f"({cache['contexts_interned']} contexts interned, "
          f"{cache['context_intern_hits']} intern hits)")
    print(f"wrote {args.out}")

    if args.events_out:
        emit_bench_events(report, args.events_out, baseline)
        print(f"wrote bench events to {args.events_out}")

    failures = mismatches
    failures += check_cache_sanity(report)
    if args.check:
        failures += check_contract(report)
    if args.baseline:
        failures += check_baseline(report, baseline, args.max_regression)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
