"""Golden digests of the observability plane's outputs.

Pins what the CLI writes when it collects: the fleet event log (byte for
byte), the compare event log (normalized), and the same compare run's
``--stats`` counters and ``--remarks-out`` JSON.  Each run is a fresh
``python -m repro`` process under ``PYTHONHASHSEED=0`` with the exact
arguments CI's ``fleet-smoke`` and ``obs-smoke`` jobs use, so nothing
warmed by earlier tests in this process (the inference solver cache, for
one) leaks into the counters.

A refactor of telemetry or the event log that is meant to keep its
output must leave every digest unchanged; a deliberate output change
updates them here in the same commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, List

SRC = Path(__file__).resolve().parent.parent / "src"

FLEET_ARGS = ["--seed", "20",
              "--fault-spec", "worker_crash:0.05,slow_collection:0.25@seed=9",
              "--events-out", "{events}",
              "fleet", "run", "--ticks", "200", "--services", "4",
              "--workers", "3"]
COMPARE_ARGS = ["--iterations", "1", "--period", "31", "--seed", "4",
                "--events-out", "{events}", "--remarks-out", "{remarks}",
                "--stats", "compare", "demo", "--variants", "autofdo,csspgo"]

#: md5 of the fleet event log file.
FLEET_LOG_MD5 = "6ae96ec3ac3db6ac921f107356c7e17b"
#: md5 of the normalized compare event log (see :func:`_normalize`).
COMPARE_LOG_MD5 = "0f81b8937ba0764e487f3fcee7d2e8a8"
#: md5 of the compare run's ``--stats`` counter rows, timings excluded.
STATS_MD5 = "889e673db6b8c53d2f2b556a470e161a"
#: md5 of the compare run's ``--remarks-out`` file.
REMARKS_MD5 = "dacd56e50acead06e5e276f255966939"


def _run(args: List[str], tmp_path: Path) -> str:
    paths = {"events": str(tmp_path / "events.jsonl"),
             "remarks": str(tmp_path / "remarks.json")}
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + [a.format(**paths) for a in args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _normalize(value: Any) -> Any:
    """Drop wall-clock fields (``ts``, ``created_at``, ``*_us``, ``*_ns``)
    and span identity (``id``/``parent``), and round floats to 9 decimals
    (the trim-overlap score differs across hash seeds in its last bit)."""
    if isinstance(value, dict):
        span = value.get("type") == "span"
        return {key: _normalize(item) for key, item in value.items()
                if key not in ("ts", "created_at")
                and not key.endswith(("_us", "_ns"))
                and not (span and key in ("id", "parent"))}
    if isinstance(value, list):
        return [_normalize(item) for item in value]
    if isinstance(value, float):
        return round(value, 9)
    return value


def _stats_rows(stdout: str) -> List[str]:
    """The ``-stats`` counter rows as ``value component name``, without
    wall-clock timing counters (their width also sets the column width, so
    rows are re-spelled rather than compared as printed)."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if "Statistics Collected" in line) + 2
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        value, rest = line.split(None, 1)
        component, name = (part.strip() for part in rest.split(" - ", 1))
        if not name.endswith(("_ns", "_us")):
            rows.append(f"{value} {component} {name}")
    return rows


def test_fleet_event_log_is_byte_identical(tmp_path):
    _run(FLEET_ARGS, tmp_path)
    assert _md5((tmp_path / "events.jsonl").read_bytes()) == FLEET_LOG_MD5


def test_compare_outputs_pinned(tmp_path):
    stdout = _run(COMPARE_ARGS, tmp_path)
    with open(tmp_path / "events.jsonl") as handle:
        events = [_normalize(json.loads(line)) for line in handle]
    log = "\n".join(json.dumps(event, sort_keys=True) for event in events)
    assert _md5(log.encode()) == COMPARE_LOG_MD5
    assert _md5("\n".join(_stats_rows(stdout)).encode()) == STATS_MD5
    assert _md5((tmp_path / "remarks.json").read_bytes()) == REMARKS_MD5
