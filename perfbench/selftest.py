"""Self-test of the benchmark's layer bindings and workload choice.

Run from the root of a checkout::

    python3 perfbench/selftest.py

1. Every entry point in ``layers.BINDINGS`` resolves at its caller's
   binding, and binding a missing name raises ``BindingError``.
2. One traced run per workload is correct, which includes entering every
   layer ``layers.FIRES`` expects there, and its ledger shows the
   separation the workload was chosen for.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import BindingError, Bindings, Tracer  # noqa: E402


def _share(ledger, *keys):
    return sum(ledger[key] for key in keys) / ledger["trace.wall_s"]


#: workload -> (claim, predicate over the traced ledger).
SEPARATION = {
    "server": [
        ("hw collect+measure+decode > 1/2 of traced wall",
         lambda m: _share(m, "hw.collect_s", "hw.measure_s",
                          "hw.decode_s") > 0.5),
    ],
    "large-module": [
        ("opt+codegen+inference+hw.decode > 1/2 of traced wall",
         lambda m: _share(m, "opt.self_s", "codegen.self_s",
                          "inference.self_s", "hw.decode_s") > 0.5),
        ("hw collect+measure+correlate < 1/10 of traced wall",
         lambda m: _share(m, "hw.collect_s", "hw.measure_s",
                          "correlate.self_s") < 0.1),
    ],
    "quality-dense": [
        ("hw.collect+correlate > 1/2 of traced wall",
         lambda m: _share(m, "hw.collect_s", "correlate.self_s") > 0.5),
        ("opt < 1/10 of traced wall",
         lambda m: _share(m, "opt.self_s") < 0.1),
    ],
}
REMAINDER = ("pgo.self_s < 1/20 of traced wall",
             lambda m: _share(m, "pgo.self_s") < 0.05)


def check_bindings() -> list:
    failures = []
    bindings = Bindings()
    try:
        Tracer().install(bindings)
    except BindingError as exc:
        failures.append(str(exc))
    finally:
        bindings.restore()
    try:
        bindings.install({"repro.pgo.driver": ["no_such_entry_point"]},
                         lambda name, fn: fn)
        failures.append("a missing entry point was bound silently")
    except BindingError:
        pass
    finally:
        bindings.restore()
    return failures


def check_workload(workload: str) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"{workload}: run failed: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        return [f"{workload}: incorrect run:\n{proc.stdout}"]
    ledger = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    return [f"{workload}: {claim}" for claim, holds
            in SEPARATION[workload] + [REMAINDER] if not holds(ledger)]


def main() -> int:
    failures = check_bindings()
    for workload in SEPARATION:
        failures += check_workload(workload)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
