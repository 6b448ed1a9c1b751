"""Profile-inference micro-benchmark: pure inference vs the static-fill
hybrid.

Times profile application end to end (probe annotation + probi-style
count inference, ``annotate_probe_flat``) in three configurations over a
realistic workload:

* ``inference`` — the sampled-only path (``static_fill=False``): cold
  functions stay count-less;
* ``hybrid`` — the sampled+static path (``static_fill=True``): after
  inference, every never-sampled function is filled with
  ``analysis.static_profile`` pseudo-counts;
* ``static_only`` — the degenerate no-samples case: the whole module is
  estimated statically (``fill_static_counts`` from a cold start), which
  bounds the estimator's own cost.

Writes ``BENCH_inference.json`` with functions/sec per mode and the
hybrid's overhead ratio.  Used two ways:

* locally: ``PYTHONPATH=src python benchmarks/bench_inference.py``
* in CI (smoke): small workload, compared against the checked-in
  baseline (``benchmarks/results/BENCH_inference_baseline.json``); the
  job fails when functions/sec regresses by more than
  ``--max-regression`` (default 2x).

``--check`` enforces the machine-independent cost contract: the hybrid
path costs at most ``--max-overhead`` (default 3x) of pure inference —
static fill touches only the functions inference skipped, so its
overhead must stay bounded — and both annotated paths produce the same
counts on every sampled function (the blend contract, verified per run).

The **large-module section** (``large_module`` in the report) times
``infer_module_counts`` at production scale (``--large-functions``
functions with ``--large-loop-depth``-deep loop nests, observations from
the static estimator plus 3% jitter) in four configurations: dense
serial oracle, sparse cold cache, sparse warm cache, and incremental
repeat (memoized re-solve of an unchanged profile).  ``--check``
additionally gates:

* ``--min-large-speedup`` — sparse warm must beat the dense serial
  oracle by this factor (default 10x; lowered in CI where the smoke
  module is small);
* ``--max-rel-diff`` — sparse results must match the dense oracle within
  this relative tolerance (default 1e-6);
* ``--min-reuse`` — the incremental repeat must skip at least this
  fraction of solves (default 0.9).

The section is skipped (and its gates vacuous) when scipy is missing —
the sparse path then degrades to dense and there is nothing to compare.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import telemetry
from repro.annotate.sample_loader import annotate_probe_flat
from repro.analysis import fill_static_counts
from repro.codegen import build_probe_metadata, link
from repro.correlate import generate_probe_profile
from repro.hw import PMUConfig, execute, make_pmu
from repro.inference import SolverCache, infer_module_counts
from repro.inference import incremental as inference_session
from repro.opt import OptConfig, optimize_module
from repro.probes import insert_pseudo_probes
from repro.workloads import WorkloadSpec, build_workload, large_module_spec


def build_profile(requests: int, period: int):
    """One workload build + PMU collection -> (probed IR, flat profile)."""
    module = build_workload(WorkloadSpec("bench", seed=7, requests=requests))
    probed = module.clone()
    insert_pseudo_probes(probed)
    built = probed.clone()
    optimize_module(built, OptConfig(), profile_annotated=False)
    binary = link(built)
    meta = build_probe_metadata(binary, built)
    pmu = make_pmu(PMUConfig(period=period))
    result = execute(binary, [requests], pmu=pmu)
    data = pmu.finish(result.instructions_retired)
    return probed, generate_probe_profile(binary, data, meta)


def _measure(thunk, repeats: int):
    """Best-of-N wall time; +1 warmup; returns (ns, last result)."""
    best_ns = None
    result = None
    for _ in range(repeats + 1):
        start = time.perf_counter_ns()
        result = thunk()
        elapsed = time.perf_counter_ns() - start
        if best_ns is None:  # warmup
            best_ns = float("inf")
        else:
            best_ns = min(best_ns, elapsed)
    return best_ns, result


def _counts(module):
    return {(name, block.label): block.count
            for name, fn in module.functions.items()
            for block in fn.blocks}


def run_bench(requests: int, period: int, repeats: int):
    probed, profile = build_profile(requests, period)
    n_functions = len(probed.functions)
    n_blocks = sum(len(fn.blocks) for fn in probed.functions.values())

    def inference():
        module = probed.clone()
        annotate_probe_flat(module, profile)
        return module

    def hybrid():
        module = probed.clone()
        annotate_probe_flat(module, profile, static_fill=True)
        return module

    def static_only():
        module = probed.clone()
        fill_static_counts(module)
        return module

    report = {
        "workload": {"name": "bench", "seed": 7, "requests": requests,
                     "period": period},
        "repeats": repeats,
        "module": {"functions": n_functions, "blocks": n_blocks},
        "modes": {},
    }
    results = {}
    for name, thunk in (("inference", inference), ("hybrid", hybrid),
                        ("static_only", static_only)):
        elapsed_ns, module = _measure(thunk, repeats)
        results[name] = module
        annotated = sum(
            1 for fn in module.functions.values()
            if any(block.count is not None for block in fn.blocks))
        report["modes"][name] = {
            "functions": n_functions,
            "functions_annotated": annotated,
            "functions_per_sec": n_functions / (elapsed_ns / 1e9),
            "blocks_per_sec": n_blocks / (elapsed_ns / 1e9),
            "ms": elapsed_ns / 1e6,
        }
    inference_ms = report["modes"]["inference"]["ms"]
    report["hybrid_overhead"] = report["modes"]["hybrid"]["ms"] / inference_ms

    # Blend contract, checked on the timed artifacts: sampled functions are
    # bit-identical between the plain and hybrid paths, and the hybrid left
    # no function count-less.
    plain_counts = _counts(results["inference"])
    hybrid_counts = _counts(results["hybrid"])
    sampled_identical = all(
        hybrid_counts[key] == count
        for key, count in plain_counts.items() if count is not None)
    report["blend_contract"] = {
        "sampled_counts_identical": sampled_identical,
        "hybrid_full_coverage": all(
            count is not None for count in hybrid_counts.values()),
    }
    return report


def _scipy_available() -> bool:
    try:
        from repro.inference import sparse
    except ImportError:
        return False
    return sparse.HAVE_SCIPY


def build_large_module(functions: int, loop_depth: int, seed: int):
    """Large workload + flow-consistent jittered observations.

    The static estimator provides per-block counts that satisfy flow
    conservation; 3% multiplicative jitter (deterministic in ``seed``)
    turns them into realistic noisy samples the solver has to smooth,
    without pushing the system into the negative-flow oracle fallback the
    way independently-random counts would.
    """
    import random

    spec = large_module_spec(seed=seed, functions=functions,
                             loop_depth=loop_depth)
    module = build_workload(spec)
    fill_static_counts(module)
    rng = random.Random(seed + 1)
    observations = {}
    heads = {}
    for name, fn in module.functions.items():
        observations[name] = {
            block.label: block.count * (1 + 0.03 * (rng.random() - 0.5))
            for block in fn.blocks if block.count is not None}
        if fn.entry_count is not None:
            heads[name] = fn.entry_count

    def restore():
        for name, fn in module.functions.items():
            per = observations[name]
            for block in fn.blocks:
                block.count = per.get(block.label)
            fn.entry_count = None

    return module, heads, restore


def _module_counts(module):
    return {(name, block.label): block.count
            for name, fn in module.functions.items()
            for block in fn.blocks}


def _max_rel_diff(reference, counts) -> float:
    worst = 0.0
    for key, ref in reference.items():
        a = ref or 0.0
        b = counts.get(key) or 0.0
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst


def run_large_bench(functions: int, loop_depth: int, seed: int,
                    repeats: int):
    """Time the production-scale inference path; see module docstring."""
    if not _scipy_available():
        return {"skipped": "scipy unavailable (sparse path degrades to "
                           "dense); nothing to compare"}
    module, heads, restore = build_large_module(functions, loop_depth, seed)
    n_functions = len(module.functions)
    n_blocks = sum(len(fn.blocks) for fn in module.functions.values())

    def timed(repeat_count: int, **kwargs) -> float:
        """Best-of-N ns for one full-module inference; restore untimed."""
        best = None
        for _ in range(repeat_count):
            restore()
            start = time.perf_counter_ns()
            infer_module_counts(module, heads, **kwargs)
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    def entry(elapsed_ns: float, dense_ns: float):
        return {"ms": elapsed_ns / 1e6,
                "functions_per_sec": n_functions / (elapsed_ns / 1e9),
                "speedup_vs_dense": dense_ns / elapsed_ns}

    session = telemetry.enable()
    report = {"workload": {"functions": n_functions, "blocks": n_blocks,
                           "loop_depth": loop_depth, "seed": seed},
              "repeats": repeats}

    # Dense serial oracle: one run (it *is* the slow path being beaten).
    dense_ns = timed(1, dense=True)
    report["dense"] = {"ms": dense_ns / 1e6,
                       "functions_per_sec": n_functions / (dense_ns / 1e9)}
    dense_counts = _module_counts(module)

    cache = SolverCache()
    cold_ns = timed(1, session=inference_session.InferenceSession(
        cache=cache, memoize=False))
    report["sparse_cold"] = entry(cold_ns, dense_ns)

    warm_session = inference_session.InferenceSession(cache=cache,
                                                      memoize=False)
    warm_ns = timed(repeats, session=warm_session)
    report["sparse_warm"] = entry(warm_ns, dense_ns)
    report["max_rel_diff_vs_dense"] = _max_rel_diff(
        dense_counts, _module_counts(module))

    # Incremental repeat: memoized session, unchanged profile.  The first
    # run populates the memo; the second must skip (almost) every solve.
    memo_session = inference_session.InferenceSession(cache=cache)
    timed(1, session=memo_session)
    reused_before = memo_session.reused
    repeat_ns = timed(1, session=memo_session)
    reused = memo_session.reused - reused_before
    report["incremental_repeat"] = {
        **entry(repeat_ns, dense_ns),
        "reused": reused,
        "reuse_fraction": reused / n_functions,
    }
    report["cache"] = cache.stats()
    report["solver_fallbacks"] = session.counter("inference",
                                                 "solver_fallback")
    telemetry.disable()
    return report


def check_large(report, min_speedup: float, max_rel_diff: float,
                min_reuse: float) -> int:
    """Gate the large-module section (vacuous when it was skipped)."""
    large = report.get("large_module")
    if not large or "skipped" in large:
        print("  large-module section skipped; gates vacuous")
        return 0
    failures = 0
    speedup = large["sparse_warm"]["speedup_vs_dense"]
    status = "ok" if speedup >= min_speedup else "FAIL"
    failures += speedup < min_speedup
    print(f"  large speedup_vs_dense (sparse warm) {speedup:5.1f}x "
          f"(floor {min_speedup:.1f}x) {status}")
    diff = large["max_rel_diff_vs_dense"]
    status = "ok" if diff <= max_rel_diff else "FAIL"
    failures += diff > max_rel_diff
    print(f"  large max_rel_diff_vs_dense {diff:.2e} "
          f"(limit {max_rel_diff:.0e}) {status}")
    reuse = large["incremental_repeat"]["reuse_fraction"]
    status = "ok" if reuse >= min_reuse else "FAIL"
    failures += reuse < min_reuse
    print(f"  large incremental reuse_fraction {reuse:.3f} "
          f"(floor {min_reuse:.2f}) {status}")
    return int(failures)


def check_contract(report, max_overhead: float) -> int:
    failures = 0
    overhead = report["hybrid_overhead"]
    status = "ok" if overhead <= max_overhead else "FAIL"
    if overhead > max_overhead:
        failures += 1
    print(f"  contract hybrid_overhead {overhead:5.2f}x "
          f"(limit {max_overhead:.1f}x) {status}")
    for name, value in report["blend_contract"].items():
        status = "ok" if value else "FAIL"
        if not value:
            failures += 1
        print(f"  contract {name} {status}")
    return failures


def check_baseline(report, baseline, max_regression: float) -> int:
    failures = 0
    for name, entry in report["modes"].items():
        base = baseline["modes"].get(name)
        if base is None:
            continue
        ratio = base["functions_per_sec"] / entry["functions_per_sec"]
        status = "ok" if ratio <= max_regression else "FAIL"
        if ratio > max_regression:
            failures += 1
        print(f"  baseline {name:12s} functions/sec ratio {ratio:5.2f} "
              f"(limit {max_regression:.1f}x) {status}")
    ours = report.get("large_module", {})
    base = (baseline.get("large_module") or {})
    if "sparse_warm" in ours and "sparse_warm" in base:
        ratio = (base["sparse_warm"]["functions_per_sec"]
                 / ours["sparse_warm"]["functions_per_sec"])
        status = "ok" if ratio <= max_regression else "FAIL"
        if ratio > max_regression:
            failures += 1
        print(f"  baseline large_warm   functions/sec ratio {ratio:5.2f} "
              f"(limit {max_regression:.1f}x) {status}")
    return failures


def emit_bench_events(report, path: str, baseline) -> None:
    """Append one ``bench_point`` event per mode (see bench_profgen)."""
    from repro import obs
    log = obs.EventLog()
    for name, entry in report["modes"].items():
        fields = {
            "bench": "inference",
            "metric": "functions_per_sec",
            "value": entry["functions_per_sec"],
            "mode": name,
        }
        base = (baseline or {}).get("modes", {}).get(name)
        if base:
            fields["baseline"] = base["functions_per_sec"]
            fields["regression"] = (base["functions_per_sec"]
                                    / entry["functions_per_sec"]) - 1.0
        log.emit("bench_point", **fields)
    large = report.get("large_module", {})
    for name in ("dense", "sparse_cold", "sparse_warm",
                 "incremental_repeat"):
        entry = large.get(name)
        if entry:
            log.emit("bench_point", bench="inference",
                     metric="functions_per_sec",
                     value=entry["functions_per_sec"],
                     mode=f"large_{name}")
    start_seq = 0
    if os.path.exists(path):
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
                        help="timed repetitions per mode (best-of)")
    parser.add_argument("--out", default="BENCH_inference.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare functions/sec against this report")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when functions/sec falls below baseline "
                             "by this factor")
    parser.add_argument("--max-overhead", type=float, default=3.0,
                        help="hybrid-vs-inference cost limit for --check")
    parser.add_argument("--check", action="store_true",
                        help="enforce the hybrid overhead + blend contracts "
                             "and the large-module gates")
    parser.add_argument("--check-large", action="store_true",
                        help="enforce only the large-module gates (CI: the "
                             "hybrid-overhead timing ratio is too noisy "
                             "there, but the large speedup floor has an "
                             "order-of-magnitude margin and the rel-diff "
                             "and reuse gates are deterministic)")
    parser.add_argument("--large-functions", type=int, default=1000,
                        help="large-module section size (0 disables it; "
                             "CI uses a few hundred)")
    parser.add_argument("--large-loop-depth", type=int, default=4,
                        help="loop-nest depth in the large module")
    parser.add_argument("--large-seed", type=int, default=5,
                        help="large-module generator seed")
    parser.add_argument("--large-repeats", type=int, default=3,
                        help="timed repetitions for warm large-module "
                             "configurations (best-of)")
    parser.add_argument("--min-large-speedup", type=float, default=10.0,
                        help="--check floor: sparse warm vs dense "
                             "serial")
    parser.add_argument("--max-rel-diff", type=float, default=1e-6,
                        help="--check limit: sparse-vs-dense relative "
                             "difference on the large module")
    parser.add_argument("--min-reuse", type=float, default=0.9,
                        help="--check floor: incremental repeat reuse "
                             "fraction")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="append bench_point events to this JSONL event "
                             "log (see repro report)")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    report = run_bench(args.requests, args.period, args.repeats)
    if args.large_functions > 0:
        report["large_module"] = run_large_bench(
            args.large_functions, args.large_loop_depth, args.large_seed,
            args.large_repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    info = report["module"]
    print(f"inference bench: {info['functions']} functions, "
          f"{info['blocks']} blocks, repeats={args.repeats}")
    for name, entry in report["modes"].items():
        print(f"  {name:12s} {entry['ms']:8.2f} ms   "
              f"{entry['functions_per_sec']:10,.0f} functions/s   "
              f"({entry['functions_annotated']}/{entry['functions']} "
              f"annotated)")
    print(f"  hybrid overhead {report['hybrid_overhead']:.2f}x over pure "
          f"inference")
    large = report.get("large_module")
    if large and "skipped" not in large:
        info = large["workload"]
        print(f"large module: {info['functions']} functions, "
              f"{info['blocks']} blocks, loop_depth={info['loop_depth']}")
        rows = [("dense", large["dense"]), ("sparse_cold",
                                            large["sparse_cold"]),
                ("sparse_warm", large["sparse_warm"]),
                ("incremental", large["incremental_repeat"])]
        for name, point in rows:
            speedup = point.get("speedup_vs_dense")
            suffix = f"   ({speedup:.1f}x dense)" if speedup else ""
            print(f"  {name:12s} {point['ms']:8.2f} ms   "
                  f"{point['functions_per_sec']:10,.0f} functions/s"
                  f"{suffix}")
        print(f"  max rel diff vs dense {large['max_rel_diff_vs_dense']:.2e},"
              f" incremental reuse "
              f"{large['incremental_repeat']['reuse_fraction']:.3f}, "
              f"fallbacks {large['solver_fallbacks']}")
    elif large:
        print(f"large module: skipped ({large['skipped']})")
    print(f"wrote {args.out}")

    if args.events_out:
        emit_bench_events(report, args.events_out, baseline)
        print(f"wrote bench events to {args.events_out}")

    failures = 0
    if args.check:
        failures += check_contract(report, args.max_overhead)
    if (args.check or args.check_large) and args.large_functions > 0:
        failures += check_large(report, args.min_large_speedup,
                                args.max_rel_diff, args.min_reuse)
    if args.baseline:
        failures += check_baseline(report, baseline, args.max_regression)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
