"""Golden digests of profile generation and count inference.

Pins the md5 of every profile text profgen emits (DWARF, probe, context
and context without the frame inferrer) on the two sample streams the
end-to-end benchmark runs, plus a digest of the block counts inference
writes on a 200-function generated module.  A refactor of profgen or
inference that is meant to keep its output must leave every digest
unchanged; a deliberate output change updates them here in the same
commit.  The sparse-vs-dense differential tests in
``test_inference_scale.py`` and the fast-vs-slow ones in
``test_profgen_fastpath.py`` check the same outputs against an oracle;
these check them against a fixed value.
"""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.bench_inference import build_large_module
from repro.correlate import (generate_context_profile, generate_dwarf_profile,
                             generate_probe_profile)
from repro.hw import PMUConfig, execute, make_pmu
from repro.inference import infer_module_counts
from repro.pgo import PGOVariant
from repro.pgo.build import build
from repro.profile import dump_context_profile, dump_flat_profile
from repro.workloads import WorkloadSpec, build_workload, large_module_spec

#: name -> (workload spec, PMU sampling period).  The same programs,
#: request counts and periods as the benchmark's quality-dense and
#: large-module workloads, sampled with PMU jitter seed 1.
STREAMS = {
    "hhvm-29": (lambda: WorkloadSpec("hhvm", seed=29, n_workers=4,
                                     worker_call_prob=0.8, requests=300), 5),
    "large-5": (lambda: large_module_spec(seed=5, functions=40,
                                          loop_depth=4), 59),
}

#: stream -> (samples, {profile kind: md5 of its text}).
GOLDEN = {
    "hhvm-29": (60834, {
        "dwarf": "3ebc002786d81b53ab1af3ec0f98a45e",
        "probe": "3ce0d4e60170b56b8bc9535302beb07d",
        "context": "762229bc9e9c76e0355ceec549f4e5fb",
        "context_noinf": "ea00b36825ef65f6b0880dcdf877c392",
    }),
    "large-5": (847, {
        "dwarf": "0965c3ec36b9211f7c906bb120d1b250",
        "probe": "bbb763ffbeca7ccf3bd38357678b4a4f",
        "context": "ca3901ad4a25b4d10d9f844fc1dfd3fb",
        "context_noinf": "f0ae32ea5f7a489a0639f8135a5196a3",
    }),
}

#: (functions solved, md5 of the sorted block counts at 6 decimals) for
#: ``build_large_module(200, 3, 5)``.
GOLDEN_INFERENCE = (200, "4bc7718a8d57e82a281de691c306a721")


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(STREAMS))
def stream(request):
    make_spec, period = STREAMS[request.param]
    spec = make_spec()
    artifacts = build(build_workload(spec), PGOVariant.CSSPGO_FULL)
    pmu = make_pmu(PMUConfig(period=period, jitter_seed=1))
    run = execute(artifacts.binary, [spec.requests], pmu=pmu)
    data = pmu.finish(run.instructions_retired)
    return request.param, artifacts, data


def test_profiles_pinned(stream):
    name, artifacts, data = stream
    binary, meta = artifacts.binary, artifacts.probe_meta
    context, _ = generate_context_profile(binary, data, meta)
    noinf, _ = generate_context_profile(binary, data, meta,
                                        use_inferrer=False)
    digests = {
        "dwarf": _md5(dump_flat_profile(generate_dwarf_profile(binary,
                                                               data))),
        "probe": _md5(dump_flat_profile(generate_probe_profile(binary, data,
                                                               meta))),
        "context": _md5(dump_context_profile(context)),
        "context_noinf": _md5(dump_context_profile(noinf)),
    }
    assert (len(data.samples), digests) == GOLDEN[name]


def test_inference_pinned():
    module, heads, restore = build_large_module(200, 3, 5)
    restore()
    solved = infer_module_counts(module, heads)
    counts = sorted(
        f"{name}:{block.label}:"
        f"{'-' if block.count is None else f'{block.count:.6f}'}"
        for name, fn in module.functions.items() for block in fn.blocks)
    assert (solved, _md5("\n".join(counts))) == GOLDEN_INFERENCE
