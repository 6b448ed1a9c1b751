"""Golden digests of the machine executor's observable outputs.

Pins, for two release builds (``PGOVariant.NONE``), the md5 of the PMU
sample streams the decoded engine delivers in PEBS and in skid mode (LBR,
stack and IP of every sample) and of the cost model's cycle, base, branch
and icache totals.  A change to the executor that is meant to keep its
output — a faster decode, a new dispatch scheme — must leave every digest
unchanged; a deliberate output change updates them here in the same commit.

The differential tests in ``test_decoded_executor.py`` check the decoded
engine against the legacy :class:`~repro.hw.MachineExecutor`; these check it
against fixed values, so they keep holding once the legacy loop is gone.

Each digest set is computed in a fresh interpreter under two hash seeds,
so an output that depends on set or dict iteration order fails here.
Run this file directly to print the digests::

    PYTHONPATH=src python tests/test_exec_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.hw import PMUConfig, execute, make_pmu
from repro.perfmodel import CostModel
from repro.pgo import PGOVariant
from repro.pgo.build import build
from repro.workloads import WorkloadSpec, build_workload, large_module_spec

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> (workload spec, PMU sampling period).  The programs of the
#: benchmark's large-module and quality-dense workloads, the service one
#: with fewer requests.
PROGRAMS = {
    "large-5": (lambda: large_module_spec(seed=5, functions=40,
                                          loop_depth=4), 59),
    "hhvm-29": (lambda: WorkloadSpec("hhvm", seed=29, n_workers=4,
                                     worker_call_prob=0.8, requests=60), 5),
}

#: program -> {output: md5}.
GOLDEN: Dict[str, Dict[str, str]] = {
    "large-5": {
        "pebs": "d3293694c114ac0268948ad53e44f4ea",
        "skid": "9d824022d4a158aa5053f5da57e3145e",
        "cost": "f54acbdcab87b4f085a52e4d57b1c95d",
    },
    "hhvm-29": {
        "pebs": "76841ab4480ece8f4c51477f5909479a",
        "skid": "891372c546ae49d35a40dd99555ce1ce",
        "cost": "96c3127c83c6430196df0ae2c1bb03c9",
    },
}


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def digests() -> Dict[str, Dict[str, str]]:
    """Run every program under each observer and digest what it saw."""
    out: Dict[str, Dict[str, str]] = {}
    for name, (make_spec, period) in PROGRAMS.items():
        spec = make_spec()
        binary = build(build_workload(spec), PGOVariant.NONE).binary
        args = [spec.requests]
        out[name] = {}
        for mode in ("pebs", "skid"):
            pmu = make_pmu(PMUConfig(period=period, pebs=mode == "pebs",
                                     jitter_seed=1))
            run = execute(binary, args, pmu=pmu)
            data = pmu.finish(run.instructions_retired)
            lines = [f"{run.return_value} {run.instructions_retired} "
                     f"{run.taken_branches} {pmu._skid_samples}"]
            lines += [f"{s.ip} {list(s.stack)} {list(s.lbr)}"
                      for s in data.samples]
            out[name][mode] = _md5("\n".join(lines))
        cost = CostModel()
        run = execute(binary, args, cost_model=cost)
        summary = cost.summary()
        out[name]["cost"] = _md5(f"{run.return_value} " + " ".join(
            f"{key}={summary[key]!r}" for key in sorted(summary)))
    return out


@pytest.mark.parametrize("hash_seed", ["0", "7"])
def test_executor_outputs_pinned(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4, sort_keys=True))
