"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare`` — run the PGO variant comparison on a named or generated
  workload and print the Fig. 6/7-style table;
* ``quality`` — run the Table I profile-quality analysis;
* ``profile`` — collect and dump a CSSPGO context profile (text format),
  plus its provenance manifest when written to a file;
* ``stats`` — run one PGO cycle with telemetry forced on and print the
  statistics report (LLVM ``-stats`` / ``-time-passes`` style);
* ``report`` — render a ``--events-out`` JSONL log as the terminal/HTML
  observability dashboard with the SLO scorecard;
* ``lint`` — statically audit a saved profile against the workload's CFG
  (flow conservation, unreachable counts, entry/loop anomalies);
* ``workloads`` — list the named workloads.

Global telemetry flags (usable with any command):

* ``--stats`` — print the statistics report to stdout after the command;
* ``--trace-out PATH`` — write a Chrome trace-event JSON of the run
  (load it in ``chrome://tracing`` / Perfetto, like ``-ftime-trace``);
* ``--remarks-out PATH`` — write the optimization-remarks JSON
  (``-fsave-optimization-record`` style);
* ``--events-out PATH`` — write the structured observability event log
  (JSONL; render with ``repro report``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import (PGODriverConfig, PGOVariant, build, compare_variants, obs,
               run_pgo, speedup_over, telemetry)
from .faults import parse_fault_spec
from .hw import PMUConfig, execute, make_pmu
from .telemetry import render_stats_report, write_chrome_trace, write_remarks
from .workloads import (SERVER_WORKLOADS, WorkloadSpec, build_server_workload,
                        build_workload)


def _resolve_workload(name: str, seed: Optional[int]):
    if name in SERVER_WORKLOADS:
        spec = SERVER_WORKLOADS[name]
        module = build_server_workload(name)
        return module, spec.requests
    spec = WorkloadSpec(name, seed=seed or 0)
    return build_workload(spec), spec.requests


def _config(args) -> PGODriverConfig:
    return PGODriverConfig(
        pmu=PMUConfig(period=args.period),
        profile_iterations=args.iterations,
        independent_profiling=getattr(args, "independent_profiling", False),
        fault_spec=args.fault_spec,
        strict_profile=args.strict_profile,
        static_fill_cold=args.static_fill_cold,
        verify_each=args.verify_each,
        incremental_inference=not getattr(args, "no_incremental_inference",
                                          False),
        dense_inference=getattr(args, "dense_inference", False))


def _parse_variants(spec: str) -> Optional[List[PGOVariant]]:
    """Parse a comma-separated variant list; raises ValueError on unknowns."""
    known = {variant.value: variant for variant in PGOVariant}
    variants = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in known:
            raise ValueError(
                f"unknown variant {name!r} (choose from "
                f"{', '.join(known)})")
        variants.append(known[name])
    if not variants:
        raise ValueError("empty variant list")
    return variants


def cmd_workloads(_args) -> int:
    print("named server workloads:")
    for name, spec in SERVER_WORKLOADS.items():
        print(f"  {name:14s} seed={spec.seed} requests={spec.requests} "
              f"workers={spec.n_workers} dispatchers={spec.n_dispatch}")
    print("\nany other name generates a workload from --seed.")
    return 0


def cmd_compare(args) -> int:
    variants = None
    if args.variants:
        try:
            variants = _parse_variants(args.variants)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    module, requests = _resolve_workload(args.workload, args.seed)
    results = compare_variants(module, [requests], [requests],
                               variants=variants, config=_config(args),
                               jobs=args.jobs)
    baseline = results.get(PGOVariant.AUTOFDO)
    print(f"workload {args.workload}: cycles (lower is better)\n")
    for variant, result in results.items():
        line = (f"  {variant.value:12s} {result.eval.cycles:14,.0f}"
                f"  text={result.final.sizes.text:6d}")
        if baseline is not None and variant is not PGOVariant.AUTOFDO:
            line += f"  vs AutoFDO {speedup_over(baseline, result)*100:+.2f}%"
        print(line)
    return 0


def cmd_quality(args) -> int:
    from .pgo.quality_eval import evaluate_profile_quality
    module, requests = _resolve_workload(args.workload, args.seed)
    report = evaluate_profile_quality(module, [requests], _config(args))
    print(f"workload {args.workload}: block overlap vs instrumentation\n")
    for key in ("autofdo", "csspgo", "instr"):
        print(f"  {key:10s} overlap {report.block_overlap[key]*100:6.2f}%   "
              f"profiling overhead {report.profiling_overhead[key]*100:+7.2f}%")
    return 0


def cmd_profile(args) -> int:
    import time

    from .correlate import aggregate_samples, context_profile_from_agg
    from .profile import dump_context_profile
    from .profile.stats import profile_stats
    module, requests = _resolve_workload(args.workload, args.seed)
    artifacts = build(module, PGOVariant.CSSPGO_FULL)
    pmu = make_pmu(PMUConfig(period=args.period))
    run = execute(artifacts.binary, [requests], pmu=pmu)
    data = pmu.finish(run.instructions_retired)
    # The aggregation carries exact drop accounting, so the manifest needs
    # no telemetry session to record it.
    agg, _inferrer = aggregate_samples(artifacts.binary, data)
    profile = context_profile_from_agg(artifacts.binary, agg,
                                       artifacts.probe_meta)
    text = dump_context_profile(profile)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(profile.contexts)} contexts to {args.output}")
        # Profiles that leave the process carry their provenance with them:
        # repro validate --manifest audits the pair later.
        samples = len(data)
        unique = len(data.aggregated()) if samples else 0
        manifest = obs.ProfileManifest(
            variant=PGOVariant.CSSPGO_FULL.value, kind="context",
            binary_identity=artifacts.binary.identity(),
            perf={"samples": samples, "unique_samples": unique,
                  "dedup_ratio": unique / samples if samples else 0.0,
                  "period": data.period, "lbr_depth": data.lbr_depth,
                  "pebs": data.pebs,
                  "instructions_retired": data.instructions_retired,
                  "binary_id": data.binary_id,
                  "samples_used": agg.used_samples},
            drops={f"correlate.drop.{reason}": count
                   for reason, count in sorted(agg.dropped.items())},
            profile_stats=profile_stats(profile),
            created_at=time.time())
        manifest_path = obs.manifest_path_for(args.output)
        manifest.write(manifest_path)
        print(f"wrote provenance manifest to {manifest_path}")
    else:
        sys.stdout.write(text)
    return 0


def _load_profile_text(path: str, strict: bool):
    """Read and parse a profile text file; returns (profile, error_code).

    ``error_code`` is None on success, else the CLI exit code (2) after the
    error has been printed."""
    from .profile import (ProfileParseError, load_context_profile,
                          load_flat_profile)
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read profile: {exc}", file=sys.stderr)
        return None, 2
    try:
        if text.lstrip().startswith("# kind: context"):
            return load_context_profile(text, strict=strict), None
        return load_flat_profile(text, strict=strict), None
    except ProfileParseError as exc:
        print(f"error: malformed profile: {exc}", file=sys.stderr)
        return None, 2


def _probed_module(args):
    """The probe-instrumented pre-optimization IR the profile's probe ids
    refer to (the same IR the sample loaders annotate)."""
    from .probes import insert_pseudo_probes
    module, _requests = _resolve_workload(args.workload, args.seed)
    probed = module.clone()
    insert_pseudo_probes(probed)
    return probed


def _emit_lint_events(report) -> None:
    """Per-rule findings + the rollup through the obs event log (no-ops
    without an installed session, i.e. without ``--events-out``)."""
    for finding in report.findings:
        obs.emit("lint_finding", rule=finding.rule,
                 function=finding.function, detail=finding.detail,
                 count=finding.count)
    obs.emit("lint_summary", findings=len(report.findings),
             functions_checked=report.functions_checked,
             rules=sorted(report.rules_fired()))


def _print_lint_findings(report) -> None:
    for finding in report.findings:
        print(f"  [{finding.rule}] {finding.function}: {finding.detail}")


def cmd_lint(args) -> int:
    """Statically audit a saved profile against the workload's CFGs.

    The flow-consistency half of the profile CI gate (DESIGN.md sec. 12):
    checksums say whether the profile describes this CFG, the linter says
    whether its *counts* are even possible on it — flow conservation,
    counts on unreachable blocks, entry-vs-body inversions, loop-depth
    monotonicity, overflow signatures.  Exit 1 when anything fires.
    """
    from .analysis import LintConfig, lint_profile
    profile, error = _load_profile_text(args.profile_file,
                                        args.strict_profile)
    if error is not None:
        return error
    probed = _probed_module(args)
    config = LintConfig(rel_tol=args.rel_tol, abs_slack=args.abs_slack)
    report = lint_profile(profile, probed, config)
    _emit_lint_events(report)
    print(f"lint {args.profile_file} vs workload {args.workload}: "
          f"{report.functions_checked} functions checked, "
          f"{report.functions_skipped} skipped")
    _print_lint_findings(report)
    if report.clean:
        print("  verdict             CLEAN")
        return 0
    by_rule = ", ".join(f"{rule}={count}"
                        for rule, count in sorted(report.by_rule().items()))
    print(f"  verdict             {len(report.findings)} finding(s): "
          f"{by_rule}")
    return 1


def cmd_validate(args) -> int:
    """Audit a saved profile against a freshly built binary.

    The CI gate of DESIGN.md sec. 10: load the profile text, rebuild the
    workload the same way ``repro profile`` built it, and report how much of
    the profile would still apply — checksum match rate plus unknown-GUID
    count — with a pass/fail exit code.

    With ``--manifest PATH`` (DESIGN.md sec. 11) the profile is also
    cross-checked against its provenance manifest: the profiled binary's
    identity must match the fresh build, the manifest's drop accounting must
    balance, and the recorded kind/record count must describe the profile
    actually on disk.

    With ``--lint`` the flow-consistency linter (``repro lint``) runs on
    the same profile; any finding fails the verdict.
    """
    from .annotate import validate_profile
    from .profile import ContextProfile
    profile, error = _load_profile_text(args.profile_file,
                                        args.strict_profile)
    if error is not None:
        return error
    module, _requests = _resolve_workload(args.workload, args.seed)
    artifacts = build(module, PGOVariant.CSSPGO_FULL)
    lint_module = _probed_module(args) if args.lint else None
    report = validate_profile(profile, artifacts.binary, artifacts.probe_meta,
                              lint_module=lint_module)
    ok = report.passed(min_match_rate=args.min_match_rate,
                       max_unknown=args.max_unknown)
    print(f"profile {args.profile_file} vs workload {args.workload}:")
    print(f"  checksum match rate {report.match_rate*100:6.2f}%  "
          f"({len(report.matched)}/{report.checked} checked)")
    print(f"  unknown functions   {len(report.unknown)}")
    print(f"  unchecked           {len(report.unchecked)}")
    if args.lint and report.lint_report is not None:
        _emit_lint_events(report.lint_report)
        print(f"  lint findings       {len(report.lint_report.findings)}")
        _print_lint_findings(report.lint_report)
    if args.manifest:
        try:
            manifest = obs.ProfileManifest.read(args.manifest)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read manifest: {exc}", file=sys.stderr)
            return 2
        identity = artifacts.binary.identity()
        is_context = isinstance(profile, ContextProfile)
        records = len(profile.contexts if is_context else profile.functions)
        recorded = manifest.profile_stats.get("records")
        checks = [
            ("binary identity", manifest.binary_identity == identity,
             f"{manifest.binary_identity} vs build {identity}"),
            ("drop accounting", manifest.drop_accounting_consistent(),
             "used + dropped == samples"),
            ("profile kind",
             (manifest.kind == "context") == is_context,
             f"manifest says {manifest.kind!r}"),
            ("record count",
             recorded is None or int(recorded) == records,
             f"manifest says {recorded}, profile has {records}"),
            ("shard accounting", manifest.shard_accounting_consistent(),
             f"{len(manifest.shards)} shard(s) sum to merged drops"
             if manifest.shards else "unsharded"),
        ]
        print(f"  manifest {args.manifest}:")
        for name, passed, detail in checks:
            mark = "ok" if passed else "MISMATCH"
            print(f"    {name:17s} {mark:8s} ({detail})")
        ok = ok and all(passed for _name, passed, _detail in checks)
    print(f"  verdict             {'PASS' if ok else 'FAIL'}")
    if report.mismatched and not ok:
        shown = ", ".join(report.mismatched[:5])
        print(f"  stale: {shown}"
              + (" ..." if len(report.mismatched) > 5 else ""))
    return 0 if ok else 1


def cmd_report(args) -> int:
    """Render an event log (``--events-out``) as the observability report.

    Prints the terminal dashboard; ``--html`` additionally writes the
    single-file HTML dashboard.  ``--check`` turns the SLO scorecard into a
    CI gate: exit 1 when any rule fails.  Every evaluation is appended back
    to the log as ``slo_evaluated`` events, so the log stays the one place
    the run's whole story lives.
    """
    import json
    try:
        events, malformed = obs.read_event_log(args.events_file)
    except OSError as exc:
        print(f"error: cannot read event log: {exc}", file=sys.stderr)
        return 2
    rules = None
    if args.slo:
        try:
            with open(args.slo) as handle:
                rules = obs.parse_rules(handle.read())
        except (OSError, ValueError) as exc:
            print(f"error: bad SLO rules: {exc}", file=sys.stderr)
            return 2
    report = obs.build_report(events, rules=rules, malformed=malformed)
    print(obs.render_text(report))
    if args.html:
        try:
            with open(args.html, "w") as handle:
                handle.write(obs.render_html(report))
        except OSError as exc:
            print(f"error: cannot write dashboard: {exc}", file=sys.stderr)
            return 2
        print(f"wrote HTML dashboard to {args.html}", file=sys.stderr)
    health = report["health"]
    try:
        seq = max((e.seq for e in events), default=-1) + 1
        ts = events[-1].ts if events else 0.0
        with open(args.events_file, "a") as handle:
            for result in health["rules"]:
                record = {"type": "slo_evaluated", "seq": seq, "ts": ts,
                          "rule": result["rule"],
                          "verdict": result["verdict"],
                          "value": result["value"]}
                json.dump(record, handle, separators=(",", ":"),
                          sort_keys=True)
                handle.write("\n")
                seq += 1
    except OSError:
        pass  # read-only log location: the report itself still stands
    if args.check and health["worst"] == "fail":
        failed = [r["rule"] for r in health["rules"]
                  if r["verdict"] == "fail"]
        print(f"SLO check FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_fleet_run(args) -> int:
    """Run the fault-tolerant continuous-profiling fleet simulation.

    Deterministic: the orchestrator drives the event log off the logical
    tick clock, so the same seed, fault spec, and shape reproduce the run
    byte for byte.  ``--check`` turns the end-of-run invariants (orphan
    loss 0, retry budget respected, assignments consistent) into a CI
    gate.
    """
    from .fleet import FleetConfig, run_fleet
    config = FleetConfig(
        ticks=args.ticks, services=args.services, workers=args.workers,
        seed=args.seed, collect_every=args.collect_every,
        deadline=args.deadline, status_every=args.status_every,
        release_every=args.release_every,
        freshness_window=args.freshness_window, period=args.period,
        fault_spec=args.fault_spec)
    report = run_fleet(config)
    print(report.render())
    if args.check and report.check():
        print("fleet check FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_fleet_status(args) -> int:
    """Summarize a fleet run from its event log (``--events-out``)."""
    try:
        events, malformed = obs.read_event_log(args.events_file)
    except OSError as exc:
        print(f"error: cannot read event log: {exc}", file=sys.stderr)
        return 2
    rollups = [e for e in events if e.type == "fleet_status"]
    if not rollups:
        print("no fleet_status events in log", file=sys.stderr)
        return 1
    last = rollups[-1]
    totals = last.fields.get("totals", {})
    freshness = last.fields.get("freshness")
    print(f"fleet status @ tick {last.fields.get('tick')} "
          f"({len(rollups)} rollups, {malformed} malformed lines)")
    print(f"  freshness: "
          f"{'n/a' if freshness is None else f'{freshness:.2f}'}")
    for key in sorted(totals):
        if totals[key]:
            print(f"  {key:20s} {totals[key]}")
    assignments = {}
    for event in events:
        if event.type == "fleet_assignment":
            assignments[event.fields.get("service")] = event.fields
    for name in sorted(assignments):
        fields = assignments[name]
        print(f"  {name:10s} variant={fields.get('variant')} "
              f"({fields.get('reason')})")
    return 0


def cmd_stats(args) -> int:
    """Run one full PGO cycle purely for its telemetry."""
    try:
        variant = PGOVariant(args.variant)
    except ValueError:
        print(f"error: unknown variant {args.variant!r} (choose from "
              f"{', '.join(v.value for v in PGOVariant)})", file=sys.stderr)
        return 2
    module, requests = _resolve_workload(args.workload, args.seed)
    run_pgo(module, variant, [requests], [requests], _config(args))
    return 0


def _run_command(args) -> int:
    """Dispatch to the subcommand; strict-mode profile errors exit cleanly
    (typed, one line) instead of with a traceback — loud but not messy."""
    from .profile import ProfileError
    try:
        return args.func(args)
    except ProfileError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSSPGO reproduction (CGO 2024) command line")
    parser.add_argument("--period", type=int, default=59,
                        help="PMU sampling period (instructions)")
    parser.add_argument("--iterations", type=int, default=2,
                        help="continuous-profiling iterations")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes: compare runs variants in "
                             "parallel — results stay byte-identical to -j1")
    parser.add_argument("--dense-inference", action="store_true",
                        help="force the dense differential-oracle inference "
                             "solver instead of the cached sparse path")
    parser.add_argument("--no-incremental-inference", action="store_true",
                        help="disable cross-iteration inference solution "
                             "reuse (every function re-solves every time)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed for ad-hoc workloads")
    parser.add_argument("--stats", action="store_true",
                        help="print pass/stage timing and counters afterwards")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the run")
    parser.add_argument("--remarks-out", default=None, metavar="PATH",
                        help="write optimization remarks JSON")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="write the structured observability event log "
                             "(JSONL; render with 'repro report')")
    parser.add_argument("--strict-profile", action="store_true",
                        help="raise on stale/malformed profiles instead of "
                             "the default drop-and-degrade")
    parser.add_argument("--verify-each", action="store_true",
                        help="run the IR verifier after every optimization "
                             "pass in every build (slow, catches pass bugs "
                             "at their source)")
    parser.add_argument("--static-fill-cold", action="store_true",
                        help="fill never-sampled functions with static "
                             "pseudo-counts (hybrid static/sampled profiles)")
    parser.add_argument("--fault-spec", default=None, metavar="SPEC",
                        type=parse_fault_spec,
                        help="inject deterministic faults into every "
                             "collection, e.g. 'stale_checksum:1,"
                             "drop_samples:0.2@seed=7'")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list named workloads")
    p.set_defaults(func=cmd_workloads)
    p = sub.add_parser("compare", help="compare PGO variants on a workload")
    p.add_argument("workload")
    p.add_argument("--variants", default=None, metavar="V1,V2",
                   help="comma-separated subset of variants to run "
                        f"({', '.join(v.value for v in PGOVariant)})")
    p.add_argument("--independent-profiling", action="store_true",
                   help="profile one plain build --iterations times with "
                        "per-iteration jitter seeds and merge the samples, "
                        "instead of the sequential continuous-deployment "
                        "chain")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("quality", help="Table I profile-quality analysis")
    p.add_argument("workload")
    p.set_defaults(func=cmd_quality)
    p = sub.add_parser("profile", help="dump a CSSPGO context profile")
    p.add_argument("workload")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_profile)
    p = sub.add_parser(
        "validate", help="audit a saved profile against a fresh build")
    p.add_argument("profile_file", help="profile text file (repro profile -o)")
    p.add_argument("workload")
    p.add_argument("--min-match-rate", type=float, default=1.0,
                   metavar="FRAC",
                   help="minimum checksum match rate to pass (default 1.0)")
    p.add_argument("--max-unknown", type=int, default=None, metavar="N",
                   help="fail when more than N profile functions are unknown "
                        "to the binary (default: no limit)")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="cross-check the profile against its provenance "
                        "manifest (binary identity, drop accounting, "
                        "kind/record count)")
    p.add_argument("--lint", action="store_true",
                   help="also run the flow-consistency linter; any finding "
                        "fails the verdict")
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser(
        "lint", help="statically audit a profile's counts against the CFG")
    p.add_argument("profile_file", help="profile text file (repro profile -o)")
    p.add_argument("workload")
    p.add_argument("--rel-tol", type=float, default=0.5, metavar="FRAC",
                   help="relative noise tolerance before a flow invariant "
                        "counts as violated (default 0.5)")
    p.add_argument("--abs-slack", type=float, default=10.0, metavar="N",
                   help="absolute count slack on every invariant "
                        "(default 10)")
    p.set_defaults(func=cmd_lint)
    p = sub.add_parser(
        "report", help="render an event log as the observability dashboard")
    p.add_argument("events_file", help="JSONL event log (--events-out)")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="also write a single-file HTML dashboard")
    p.add_argument("--slo", default=None, metavar="FILE",
                   help="SLO rule file overriding the default scorecard "
                        "(one 'name: indicator op warn/fail' per line)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when any SLO rule fails (CI gate)")
    p.set_defaults(func=cmd_report)
    p = sub.add_parser(
        "fleet", help="fault-tolerant continuous-profiling fleet service")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    p = fleet_sub.add_parser(
        "run", help="run the supervised fleet simulation")
    p.add_argument("--ticks", type=int, default=200,
                   help="simulation length in scheduler ticks (default 200)")
    p.add_argument("--services", type=int, default=3,
                   help="number of simulated services (default 3)")
    p.add_argument("--workers", type=int, default=3,
                   help="supervised collection workers (default 3)")
    p.add_argument("--collect-every", type=int, default=20, metavar="T",
                   help="per-service collection cadence in ticks "
                        "(default 20)")
    p.add_argument("--deadline", type=int, default=8, metavar="T",
                   help="per-task deadline in ticks before the supervisor "
                        "cancels the attempt (default 8)")
    p.add_argument("--status-every", type=int, default=20, metavar="T",
                   help="status rollup cadence in ticks (default 20)")
    p.add_argument("--release-every", type=int, default=70, metavar="T",
                   help="rolling-release cadence of the heaviest service "
                        "(0 freezes the fleet; default 70)")
    p.add_argument("--freshness-window", type=int, default=60, metavar="T",
                   help="ticks a generation stays fresh enough for csspgo "
                        "before degrading to autofdo (default 60)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when any end-of-run invariant is violated "
                        "(CI gate)")
    p.set_defaults(func=cmd_fleet_run, deterministic_log=True)
    p = fleet_sub.add_parser(
        "status", help="summarize a fleet run from its event log")
    p.add_argument("events_file", help="JSONL event log (--events-out)")
    p.set_defaults(func=cmd_fleet_status)
    p = sub.add_parser(
        "stats", help="run one PGO cycle and print its telemetry report")
    p.add_argument("workload")
    p.add_argument("--variant", default=PGOVariant.CSSPGO_FULL.value,
                   help="variant to run (default: csspgo)")
    p.set_defaults(func=cmd_stats, force_stats=True)

    args = parser.parse_args(argv)
    want_stats = args.stats or getattr(args, "force_stats", False)
    collect = (want_stats or args.trace_out or args.remarks_out
               or args.events_out)
    if not collect:
        return _run_command(args)

    session = telemetry.enable()
    obs_session = None
    if args.events_out:
        try:
            obs_session = obs.install(
                obs.Observability(log=obs.EventLog(args.events_out)))
        except OSError as exc:
            print(f"error: cannot open event log: {exc}", file=sys.stderr)
            telemetry.disable()
            return 2
    try:
        with telemetry.span(f"repro {args.command}", "cli",
                            command=args.command):
            rc = _run_command(args)
        if obs_session is not None:
            if getattr(args, "deterministic_log", False):
                # Fleet runs promise a byte-reproducible log: keep the
                # final metrics point but drop wall-clock timing counters
                # and the span tree (both vary run to run).
                obs_session.snapshot("final", drop_timings=True)
            else:
                # Final metrics point + the completed span tree, then the
                # log is a self-contained record of the run.
                obs_session.snapshot("final")
                obs_session.export_spans()
    finally:
        telemetry.disable()
        if obs_session is not None:
            obs_session.close()
            obs.uninstall()
            print(f"wrote {len(obs_session.log.events)} events to "
                  f"{args.events_out}", file=sys.stderr)
    try:
        if args.trace_out:
            write_chrome_trace(session, args.trace_out)
            print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
        if args.remarks_out:
            write_remarks(session, args.remarks_out)
            print(f"wrote {len(session.remarks)} remarks to "
                  f"{args.remarks_out}", file=sys.stderr)
    except OSError as exc:
        # The run itself succeeded; still print the stats before failing so
        # the work is not lost.
        print(f"error: cannot write telemetry output: {exc}", file=sys.stderr)
        rc = 1
    if want_stats:
        print(render_stats_report(session))
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
