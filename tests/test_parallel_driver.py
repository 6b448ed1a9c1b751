"""Parallel driver mode: --jobs must not change any observable result.

Every PGO cycle is deterministic and self-contained (fresh module clone,
seeded PMU jitter), so fanning variants — or independent profiling
iterations — out over a process pool must reproduce the serial results
byte for byte.  These tests pin that contract.
"""

from __future__ import annotations

import pytest

from repro import (PGODriverConfig, PGOVariant, compare_variants, run_pgo)
from repro.cli import main as cli_main
from repro.hw import PMUConfig
from repro.workloads import WorkloadSpec, build_workload

VARIANTS = [PGOVariant.NONE, PGOVariant.AUTOFDO, PGOVariant.CSSPGO_FULL]


def _module():
    return build_workload(WorkloadSpec("par", seed=3, requests=40))


def _config(**overrides):
    kwargs = dict(pmu=PMUConfig(period=53), profile_iterations=2)
    kwargs.update(overrides)
    return PGODriverConfig(**kwargs)


def _fingerprint(result):
    """Everything observable about one variant's cycle."""
    fp = {
        "cycles": result.eval.cycles,
        "summary": result.eval.summary,
        "text": result.final.sizes.text,
        "profiling": [(m.cycles, m.instructions, m.summary)
                      for m in result.profiling_runs],
        "samples": result.extras.get("samples_per_iteration"),
        "profile_stats": result.profile_stats,
    }
    if isinstance(result.profile, dict):
        fp["profile"] = sorted(result.profile.items())
    return fp


class TestParallelCompare:
    def test_jobs_results_byte_identical(self):
        module = _module()
        serial = compare_variants(module, [40], [40], variants=VARIANTS,
                                  config=_config(), jobs=1)
        parallel = compare_variants(module, [40], [40], variants=VARIANTS,
                                    config=_config(), jobs=3)
        assert list(serial) == list(parallel) == VARIANTS  # same order
        for variant in VARIANTS:
            assert _fingerprint(parallel[variant]) == \
                _fingerprint(serial[variant]), variant

    def test_results_are_picklable_round_trip(self):
        # Worker results cross a process boundary: the binary's decoded-
        # program cache must have been dropped, not poisoned the pickle.
        module = _module()
        results = compare_variants(
            module, [40], [40],
            variants=[PGOVariant.NONE, PGOVariant.AUTOFDO],
            config=_config(), jobs=2)
        result = results[PGOVariant.AUTOFDO]
        assert result.final.binary._decoded_cache == {}
        assert result.eval.cycles > 0


class TestIndependentProfiling:
    def test_serial_vs_parallel_identical(self):
        module = _module()
        config = _config(independent_profiling=True, profile_iterations=3)
        serial = run_pgo(module, PGOVariant.CSSPGO_FULL, [40], [40],
                         config, jobs=1)
        parallel = run_pgo(module, PGOVariant.CSSPGO_FULL, [40], [40],
                           config, jobs=3)
        assert _fingerprint(parallel) == _fingerprint(serial)

    def test_aggregates_every_iteration(self):
        module = _module()
        config = _config(independent_profiling=True, profile_iterations=3)
        result = run_pgo(module, PGOVariant.CSSPGO_FULL, [40], [40], config)
        per_iteration = result.extras["samples_per_iteration"]
        assert len(per_iteration) == len(result.profiling_runs) == 3
        assert result.extras["samples"] == sum(per_iteration)
        # Iterations differ only by jitter seed: similar but not identical.
        assert min(per_iteration) > 0

    def test_differs_from_sequential_chain(self):
        # Sequential mode re-profiles progressively optimized binaries;
        # independent mode profiles the plain build N times.  The profiles
        # (and sample counts) should genuinely differ.
        module = _module()
        sequential = run_pgo(module, PGOVariant.CSSPGO_FULL, [40], [40],
                             _config(profile_iterations=2))
        independent = run_pgo(module, PGOVariant.CSSPGO_FULL, [40], [40],
                              _config(independent_profiling=True,
                                      profile_iterations=2))
        assert independent.eval.cycles > 0
        assert sequential.extras["samples_per_iteration"] != \
            independent.extras["samples_per_iteration"]


class TestCLIJobs:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compare_jobs_flag(self, capsys, jobs):
        rc = cli_main(["--jobs", jobs, "--seed", "5", "compare", "cj",
                       "--variants", "none,autofdo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "autofdo" in out

    def test_cli_outputs_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            assert cli_main(["--jobs", jobs, "--iterations", "1",
                             "--seed", "5", "compare", "cj2",
                             "--variants", "autofdo,csspgo"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_independent_profiling_flag(self, capsys):
        rc = cli_main(["--iterations", "2", "--seed", "5", "compare", "cj3",
                       "--variants", "csspgo", "--independent-profiling"])
        assert rc == 0
        assert "csspgo" in capsys.readouterr().out


class TestFallbackChainUnderConcurrency:
    """The degradation chain must survive the process-pool round trip:
    extras, manifests, and the parent-merged fallback_taken events."""

    def test_stale_profile_degrades_in_worker_and_merges_back(self):
        from repro import telemetry
        from repro.faults import FaultSpec
        from repro.obs import EventLog

        module = _module()
        config = _config(
            fault_spec=FaultSpec.parse("stale_checksum:1@seed=5"))
        session = telemetry.enable(telemetry.TelemetrySession(log=EventLog()))
        try:
            results = compare_variants(
                module, [40], [40],
                variants=[PGOVariant.AUTOFDO, PGOVariant.CSSPGO_FULL],
                config=config, jobs=2)
        finally:
            telemetry.disable()
        csspgo = results[PGOVariant.CSSPGO_FULL]
        # Every checksum staled: the context profile annotates nothing and
        # the chain must have taken at least the csspgo->autofdo hop.
        chain = csspgo.extras["fallback_chain"]
        reasons = csspgo.extras["fallback_reasons"]
        assert chain and chain[0].startswith("csspgo->")
        assert len(reasons) == len(chain)
        assert all(reasons)
        # Provenance rode along: manifests crossed the pickle boundary and
        # the newest one carries the degradation hops.
        manifests = csspgo.extras["manifests"]
        assert manifests
        hops = manifests[-1]["fallbacks"]
        assert [f"{h['from']}->{h['to']}" for h in hops] == chain
        # Worker events were re-emitted into the parent session.
        fallback_events = session.log.of_type("fallback_taken")
        assert any(e.fields["from_variant"] == "csspgo"
                   for e in fallback_events)
        # The run still produced a working binary (degraded, not broken).
        assert csspgo.eval.cycles > 0

    def test_chain_identical_serial_vs_parallel(self):
        from repro.faults import FaultSpec

        module = _module()
        config = _config(
            fault_spec=FaultSpec.parse("stale_checksum:1@seed=5"))
        variants = [PGOVariant.AUTOFDO, PGOVariant.CSSPGO_FULL]
        serial = compare_variants(module, [40], [40], variants=variants,
                                  config=config, jobs=1)
        parallel = compare_variants(module, [40], [40], variants=variants,
                                    config=config, jobs=2)
        for variant in variants:
            assert serial[variant].extras.get("fallback_chain") == \
                parallel[variant].extras.get("fallback_chain"), variant
            assert serial[variant].extras.get("fallback_reasons") == \
                parallel[variant].extras.get("fallback_reasons"), variant
