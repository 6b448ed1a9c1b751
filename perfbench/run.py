"""End-to-end PGO-cycle benchmark with a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload large-module --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One run sets the workload up several times in fresh processes, then runs
a closed loop of pipeline calls, one after another in one more fresh
process, for ``--seconds``.  Every workload runs in its own process, so its
peak RSS is its own.  The host changes speed every few seconds, so every
process probes the machine's speed (``pacer.py``) and every time the
benchmark reports, ``wall_s`` and ``setup_s`` included, is scaled to the
host's full speed; the raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics of untraced calls.  ``--trace
1`` alternates untraced and traced calls and reports the per-layer ledger
of the traced ones (medians over calls) plus the tracing overhead; spans
are written to ``perfbench/out/``.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload untraced and prints every
end-to-end figure per workload, including ``error_rate`` and the
paper-figure values behind ``csspgo_vs_autofdo``.

Exits non-zero without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import FIRES, INTERACTIONS  # noqa: E402
from pacer import at_full_speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-process set-ups per run, besides the measuring process's own.
SETUPS = 8
#: Every run, with its set-ups, must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Layer times left out of the ``--trace 1`` metrics: each is exactly zero
#: on some workload (see ``layers.FIRES``).  The printed ledger keeps them.
UNREPORTED = ("profile.trim_s", "preinline.self_s", "quality.self_s")


class BenchError(RuntimeError):
    pass


def _worker(args, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            program_seed: int, deadline: float) -> dict:
    """One run: the fresh-process set-ups, then the measuring process."""
    base = ["--workload", workload, "--program-seed", str(program_seed),
            "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"], deadline)
              for _ in range(SETUPS)]
    args = base + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(out_dir, f"spans-{workload}-{seed}.json")]
    result = _worker(args, deadline)
    result["setups"] = setups + [{"setup_s": result["setup_s"],
                                  "probes": result["probes"]}]
    return result


def _scaled(item: dict, key: str) -> float:
    return at_full_speed(item[key], item["probes"])


def summarize(workload: str, result: dict, trace: bool):
    """Returns ``(correct, attempted, failed, metrics, problems, extras)``."""
    calls = result["calls"]
    attempted = sum(call["attempted"] for call in calls)
    failed = sum(call["failed"] for call in calls)
    problems = [f"call {i}: {call['error']}" for i, call in enumerate(calls)
                if call["error"]]
    ok = [call for call in calls if not call["error"]]
    untraced_calls = [call for call in ok if not call["traced"]]
    untraced = [_scaled(call, "wall_s") for call in untraced_calls]
    setups = [_scaled(setup, "setup_s") for setup in result["setups"]]
    figures = {}
    for key in ("csspgo_vs_autofdo", "csspgo_text_bytes", "csspgo_gain_pct",
                "overlap.csspgo", "overlap.autofdo"):
        values = [call[key] for call in ok if call.get(key) is not None]
        if len(set(values)) > 1:
            problems.append(f"{key} differs between calls: {values}")
        if values:
            figures[key] = values[0]
    for key in ("csspgo_vs_autofdo", "csspgo_text_bytes"):
        if key not in figures:
            problems.append(f"no {key} measured")
    if not untraced:
        problems.append("no untraced call completed")
    extras = {"raw_walls": [call["wall_s"] for call in untraced_calls],
              "walls": untraced, "setups": setups, "figures": figures,
              "error_rate": failed / attempted if attempted else 1.0}
    if not trace:
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "checks_passed_frac": (1.0 - extras["error_rate"], "fraction"),
            "csspgo_vs_autofdo": (figures.get("csspgo_vs_autofdo"), "ratio"),
            "csspgo_text_bytes": (figures.get("csspgo_text_bytes"), "bytes"),
        } if not problems else {}
        return not problems and not failed, attempted, failed, metrics, \
            problems, extras

    traced = [call for call in ok if call["traced"]]
    if not traced:
        problems.append("no traced call completed")
    for call in traced:
        missing = set(FIRES[workload]) - set(call["layers"])
        if missing:
            problems.append(f"layers never entered: {sorted(missing)}")
    metrics = {}
    if not problems:
        ledgers = [_scaled_ledger(call) for call in traced]
        ledger = {key: statistics.median(each[key] for each in ledgers)
                  for key in ledgers[0]}
        ledger["trace.overhead_frac"] = (
            statistics.median(_scaled(call, "wall_s") for call in traced)
            / statistics.median(untraced) - 1.0)
        extras["ledger"] = ledger
        metrics = {key: (value, _unit(key)) for key, value in ledger.items()
                   if key not in UNREPORTED}
    return not problems and not failed, attempted, failed, metrics, \
        problems, extras


def _scaled_ledger(call: dict) -> dict:
    """The call's ledger with every time scaled to full speed."""
    factor = at_full_speed(1.0, call["probes"])
    return {key: value * factor if _unit(key) in ("s", "ns", "us") else value
            for key, value in call["ledger"].items()}


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "fraction"
    if key.endswith("ns_per_instr"):
        return "ns"
    if key.endswith("us_per_sample"):
        return "us"
    return "count"


def _print_ledger(ledger: dict) -> None:
    """The ledger, each layer metric with the end-to-end metrics it should
    move and the workloads where it moves most and not at all."""
    reading = {metric: f"moves {'+'.join(moves)}; most {most}; none {none}"
               for metrics, moves, most, none in INTERACTIONS
               for metric in metrics}
    wall = ledger["trace.wall_s"]
    print(f"ledger (median over traced calls, traced wall {wall:.3f} s):")
    for key, value in ledger.items():
        share = (f"{100.0 * value / wall:5.1f}%"
                 if key.endswith("_s") and key != "trace.wall_s" else "")
        print(f"  {key:26s} {value:12.6g} {_unit(key):8s} {share:6s} "
              f"{reading.get(key, '')}")


def run_one(opts) -> int:
    program_seed = (opts.program_seed if opts.program_seed is not None
                    else int(WORKLOADS[opts.workload]["program_seed"]))
    deadline = time.monotonic() + RUN_LIMIT_S
    result = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace),
                     program_seed, deadline)
    correct, attempted, failed, metrics, problems, extras = summarize(
        opts.workload, result, bool(opts.trace))
    for problem in problems:
        print(f"problem: {problem}")
    print(f"workload {opts.workload} (program seed {program_seed}, sample "
          f"seed {opts.seed}): untraced call walls {extras['raw_walls']} s, "
          f"at full speed {extras['walls']} s, set-ups at full speed "
          f"{extras['setups']} s, error_rate {extras['error_rate']}, "
          f"figures {extras['figures']}")
    if "ledger" in extras:
        _print_ledger(extras["ledger"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(opts) -> int:
    """Every workload, untraced, each in its own processes."""
    rows = []
    all_correct = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_LIMIT_S
        program_seed = (opts.program_seed if opts.program_seed is not None
                        else int(WORKLOADS[workload]["program_seed"]))
        result = measure(workload, opts.seed, opts.seconds, False,
                         program_seed, deadline)
        correct, _, _, metrics, problems, extras = summarize(
            workload, result, False)
        all_correct = all_correct and correct
        for problem in problems:
            print(f"{workload}: problem: {problem}")
        figures = extras["figures"]
        rows.append((workload, [
            ("wall_s", metrics.get("wall_s", (None,))[0], "s"),
            ("wall_calls", len(extras["walls"]), "count"),
            ("wall_max_s", max(extras["walls"], default=None), "s"),
            ("raw_wall_s", statistics.median(extras["raw_walls"])
             if extras["raw_walls"] else None, "s"),
            ("setup_s", metrics.get("setup_s", (None,))[0], "s"),
            ("peak_rss_mb", metrics.get("peak_rss_mb", (None,))[0], "MB"),
            ("error_rate", extras["error_rate"], "fraction"),
            ("csspgo_vs_autofdo", figures.get("csspgo_vs_autofdo"), "ratio"),
            ("csspgo_text_bytes", figures.get("csspgo_text_bytes"), "bytes"),
            ("csspgo_gain_pct", figures.get("csspgo_gain_pct"), "%"),
            ("overlap.csspgo", figures.get("overlap.csspgo"), "ratio"),
            ("overlap.autofdo", figures.get("overlap.autofdo"), "ratio"),
        ]))
    for workload, values in rows:
        print(f"== {workload}")
        for name, value, unit in values:
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {name:20s} {shown:>14s} {unit}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="sample-stream seed (PMU jitter) of every "
                             "profiling run")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the closed loop of pipeline calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--program-seed", type=int,
                        help="generate another program of the workload's "
                             "shape (default: the named program)")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        return run_all(opts) if opts.workload == "all" else run_one(opts)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
