"""Golden digests of the optimizer's output on generated workloads.

Pins the md5 of the printed module after LICM alone and after the full
default pipeline, plus the LICM hoist count, on the large-module and
service shapes the end-to-end benchmark runs.  A refactor of a pass that
is meant to keep its output (analysis reuse, faster data structures)
must leave every digest unchanged; a deliberate output change updates
them here in the same commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import telemetry
from repro.ir.printer import print_module
from repro.opt import (OptConfig, compute_liveness, licm_function,
                       live_in_any, optimize_module, registers_of)
from repro.workloads import WorkloadSpec, build_workload, large_module_spec

SPECS = {
    "large-5": lambda: large_module_spec(seed=5, functions=40, loop_depth=4),
    "large-7": lambda: large_module_spec(seed=7, functions=40, loop_depth=4),
    "service-1": lambda: WorkloadSpec("service", seed=1, n_workers=4,
                                      worker_call_prob=0.8),
    "service-29": lambda: WorkloadSpec("service", seed=29, n_workers=4,
                                       worker_call_prob=0.8),
}

#: spec -> (md5 after LICM alone, hoists, md5 after optimize_module, hoists).
GOLDEN = {
    "large-5": ("80b2cec326a964a765268368f80c6c6e", 122,
                "6421985415ef9acb3cfa9268f72b1b97", 122),
    "large-7": ("3cfbe897a21679bfa03b423609d633c1", 97,
                "02fa9d0615a2574fc38b201676d7f660", 97),
    "service-1": ("42b99c1fb892f38b694fc1288da233a5", 1,
                  "2ebea0f173577d4db13fea962e784a00", 1),
    "service-29": ("a3ba117a335872cb0e5ca87ba971b612", 2,
                   "61baf409629aa8eaf0c71a4316026ce4", 5),
}


def _md5(module) -> str:
    return hashlib.md5(print_module(module).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_licm_output_pinned(name):
    module = build_workload(SPECS[name]())
    hoisted = sum(licm_function(fn) for fn in module.functions.values())
    assert (_md5(module), hoisted) == GOLDEN[name][:2]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_pipeline_output_pinned(name):
    module = build_workload(SPECS[name]())
    session = telemetry.enable(telemetry.TelemetrySession())
    try:
        optimize_module(module, OptConfig())
    finally:
        telemetry.disable()
    hoisted = session.counter("pass.licm", "instructions_hoisted")
    assert (_md5(module), hoisted) == GOLDEN[name][2:]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_live_in_any_matches_dataflow(name):
    """The single-register query agrees with the all-register fixpoint on
    every register x block of every generated function, and on every
    pair of adjacent blocks asked at once."""
    module = build_workload(SPECS[name]())
    for fn in module.functions.values():
        live_in = compute_liveness(fn).live_in
        labels = [block.label for block in fn.blocks]
        for reg in sorted(registers_of(fn)):
            for label in labels:
                assert live_in_any(fn, reg, [label]) == (
                    reg in live_in[label]), (fn.name, reg, label)
            for pair in zip(labels, labels[1:]):
                assert live_in_any(fn, reg, pair) == any(
                    reg in live_in[label] for label in pair), (fn.name, reg,
                                                               pair)
