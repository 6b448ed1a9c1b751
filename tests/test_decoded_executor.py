"""Differential tests: pre-decoded threaded-code engine vs legacy executor.

The decoded engine (repro.hw.decoded) must be observationally identical to
:class:`MachineExecutor` — not just same return values, but bit-identical
PMU sample streams (LBR contents, stack snapshots, sample IPs) and exactly
equal cost-model cycle totals, across observer configurations.  These tests
are the contract that lets the driver default to the decoded engine.
"""

from __future__ import annotations

import pickle

import pytest

from repro import telemetry
from repro.codegen import link
from repro.hw import (MachineExecutionLimit, MachineExecutor, PMU, PMUConfig,
                      decoded, execute, make_pmu, run_decoded)
from repro.ir import ModuleBuilder, verify_module
from repro.opt import OptConfig, optimize_module
from repro.perfmodel import CostModel
from repro.probes import insert_pseudo_probes, instrument_module
from repro.workloads import WorkloadSpec, build_workload

ARGS = [120]


def _pipeline_binary(seed: int, instrument: bool = True):
    """A realistically-shaped binary: probed, instrumented, optimized."""
    module = build_workload(WorkloadSpec("d", seed=seed, requests=60))
    insert_pseudo_probes(module)
    if instrument:
        instrument_module(module)
    clone = module.clone()
    optimize_module(clone, OptConfig(), profile_annotated=False)
    verify_module(clone)
    return link(clone)


def _recursion_module(depth_reg: str = "%n"):
    """main(n): recursive countdown — one call + one ret per level."""
    mb = ModuleBuilder("recur")
    f = mb.function("main", [depth_reg])
    f.block("entry").cmp("sle", "%c", depth_reg, 0).condbr("%c", "base", "rec")
    f.block("base").mov("%z", 0).ret("%z")
    (f.block("rec").sub("%m", depth_reg, 1)
     .call("%r", "main", ["%m"]).add("%r", "%r", 1).ret("%r"))
    module = mb.build()
    verify_module(module)
    return module


class TestPureDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_results_identical(self, seed):
        binary = _pipeline_binary(seed)
        legacy = MachineExecutor(binary).run(ARGS)
        decoded = run_decoded(binary, ARGS)
        assert decoded.return_value == legacy.return_value
        assert decoded.instructions_retired == legacy.instructions_retired
        assert decoded.taken_branches == legacy.taken_branches
        assert dict(decoded.instr_counters) == dict(legacy.instr_counters)

    def test_execute_engine_selection(self):
        binary = _pipeline_binary(0)
        via_decoded = execute(binary, ARGS, engine="decoded")
        via_legacy = execute(binary, ARGS, engine="legacy")
        assert via_decoded.return_value == via_legacy.return_value
        with pytest.raises(ValueError):
            execute(binary, ARGS, engine="interpreted")


def _dead_code_module():
    """main(n): loops n times in ``hot``, then calls ``tail`` once (one
    straight-line block too long to inline); ``dead`` is never called."""
    mb = ModuleBuilder("lazy")
    main = mb.function("main", ["%n"])
    (main.block("entry").call("%s", "hot", ["%n"])
     .call("%t", "tail", ["%s"]).ret("%t"))
    hot = mb.function("hot", ["%n"])
    hot.block("entry").mov("%i", 0).mov("%s", 0).br("loop")
    hot.block("loop").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "exit")
    hot.block("body").add("%s", "%s", "%i").add("%i", "%i", 1).br("loop")
    hot.block("exit").ret("%s")
    tail = mb.function("tail", ["%x"])
    block = tail.block("entry")
    for _ in range(16):
        block = block.add("%x", "%x", 1)
    block.ret("%x")
    dead = mb.function("dead", ["%x"])
    dead.block("entry").cmp("slt", "%c", "%x", 0).condbr("%c", "neg", "pos")
    dead.block("neg").sub("%x", 0, "%x").ret("%x")
    dead.block("pos").ret("%x")
    module = mb.build()
    verify_module(module)
    return module


def _leaders(binary, function: str):
    """Block leaders (instruction indices) inside ``function``'s range."""
    program = binary._decoded_cache[(None, False)]
    return [i for i, op in enumerate(program.ops)
            if op is not None
            and binary.function_at(binary.instrs[i].addr) == function]


def _compiled(program, leader: int) -> bool:
    return program.ops[leader].__name__ == f"_b{leader}"


class TestLazyDecode:
    """Blocks compile on first entry; the tables stay consistent."""

    def test_never_run_function_stays_uncompiled(self):
        binary = link(_dead_code_module())
        assert run_decoded(binary, [10]).return_value == 45 + 16
        program = binary._decoded_cache[(None, False)]
        dead = _leaders(binary, "dead")
        assert len(dead) == 3
        assert not any(_compiled(program, L) for L in dead)
        assert _compiled(program, program.entry_idx)
        assert 0 < program.blocks_compiled <= program.n_blocks - len(dead)

    @pytest.mark.parametrize("pmu_mode", [None, "pebs", "skid"])
    def test_second_run_compiles_nothing(self, pmu_mode):
        binary = _pipeline_binary(0)

        def run():
            pmu = (None if pmu_mode is None
                   else make_pmu(PMUConfig(pebs=pmu_mode == "pebs")))
            return run_decoded(binary, ARGS, pmu=pmu, cost_model=CostModel())

        first = run()
        (program,) = binary._decoded_cache.values()
        compiled, decode_ns = program.blocks_compiled, program.decode_ns
        assert 0 < compiled < program.n_blocks
        second = run()
        assert second.return_value == first.return_value
        assert program.blocks_compiled == compiled
        assert program.decode_ns == decode_ns

    def test_limit_fires_on_first_entry_past_budget(self):
        full = execute(link(_dead_code_module()), [10])
        binary = link(_dead_code_module())
        # ``tail``'s 17-instruction block retires past the budget on its
        # first entry; main's final ret alone would not trip it.
        with pytest.raises(MachineExecutionLimit):
            execute(binary, [10],
                    max_instructions=full.instructions_retired - 3)
        program = binary._decoded_cache[(None, False)]
        (tail,) = _leaders(binary, "tail")
        assert _compiled(program, tail)

    def test_unpickled_binary_decodes_lazily(self):
        binary = _pipeline_binary(0)
        expected = run_decoded(binary, ARGS)
        clone = pickle.loads(pickle.dumps(binary))
        got = run_decoded(clone, ARGS)
        assert got.return_value == expected.return_value
        assert got.instructions_retired == expected.instructions_retired
        program = clone._decoded_cache[(None, False)]
        original = binary._decoded_cache[(None, False)]
        assert program.blocks_compiled == original.blocks_compiled
        assert 0 < program.blocks_compiled < program.n_blocks

    def test_block_compiles_go_through_decode_program(self, monkeypatch):
        """Each compile is one call of the module attribute, so a wrapper
        there (the benchmark's decode layer) times all of decode."""
        calls = []
        real = decoded.decode_program

        def counting(*args, **kwargs):
            calls.append(kwargs.get("leader"))
            return real(*args, **kwargs)

        monkeypatch.setattr(decoded, "decode_program", counting)
        binary = _pipeline_binary(0)
        run_decoded(binary, ARGS)
        program = binary._decoded_cache[(None, False)]
        assert len(calls) == 1 + program.blocks_compiled
        assert len(set(calls[1:])) == program.blocks_compiled

    def test_decode_ns_counts_every_block(self):
        binary = link(_dead_code_module())
        session = telemetry.enable()
        try:
            # n = 0 never enters hot's loop body; n = 10 compiles it.  The
            # cost-model variant inlines no successor blocks.
            run_decoded(binary, [0], cost_model=CostModel())
            program = binary._decoded_cache[(None, True)]
            compiled, decode_ns = program.blocks_compiled, program.decode_ns
            assert session.counter("hw.decode", "decode_ns") == decode_ns
            run_decoded(binary, [10], cost_model=CostModel())
        finally:
            telemetry.disable()
        assert program.blocks_compiled == compiled + 1
        assert program.decode_ns > decode_ns
        assert session.counter("hw.decode", "decode_ns") == program.decode_ns
        assert session.counter("hw.decode", "decodes") == 1
        assert session.counter("hw.decode", "cache_hits") == 1
        assert (session.counter("hw.decode", "instrs_decoded")
                == len(binary.instrs))


class TestObserverDifferential:
    @pytest.mark.parametrize("pebs", [True, False])
    @pytest.mark.parametrize("lbr_depth", [16, 32])
    def test_pmu_streams_identical(self, pebs, lbr_depth):
        binary = _pipeline_binary(1)
        config = PMUConfig(period=97, lbr_depth=lbr_depth, pebs=pebs)

        pmu_l = make_pmu(config)
        legacy = execute(binary, ARGS, pmu=pmu_l, engine="legacy")
        data_l = pmu_l.finish(legacy.instructions_retired)

        pmu_d = make_pmu(config)
        decoded = execute(binary, ARGS, pmu=pmu_d, engine="decoded")
        data_d = pmu_d.finish(decoded.instructions_retired)

        assert decoded.return_value == legacy.return_value
        assert len(data_d.samples) == len(data_l.samples)
        for got, want in zip(data_d.samples, data_l.samples):
            assert got.ip == want.ip
            assert list(got.lbr) == list(want.lbr)
            assert list(got.stack) == list(want.stack)
        assert pmu_d.lbr.recorded == pmu_l.lbr.recorded
        assert pmu_d._skid_samples == pmu_l._skid_samples

    @pytest.mark.parametrize("with_pmu", [False, True])
    def test_cost_model_identical(self, with_pmu):
        binary = _pipeline_binary(2)
        summaries = []
        for engine in ("legacy", "decoded"):
            cost = CostModel()
            pmu = make_pmu(PMUConfig()) if with_pmu else None
            execute(binary, ARGS, pmu=pmu, cost_model=cost, engine=engine)
            summaries.append(cost.summary())
        assert summaries[0] == summaries[1]


class TestDecodeCache:
    def test_repeat_runs_hit_cache(self):
        binary = _pipeline_binary(3)
        baseline_decodes = binary.decode_stats["decodes"]
        first = run_decoded(binary, ARGS)
        second = run_decoded(binary, ARGS)
        assert second.return_value == first.return_value
        assert binary.decode_stats["decodes"] == baseline_decodes + 1
        assert binary.decode_stats["cache_hits"] >= 1

    def test_observer_variants_decode_separately(self):
        binary = _pipeline_binary(3)
        run_decoded(binary, ARGS)
        run_decoded(binary, ARGS, pmu=make_pmu(PMUConfig(pebs=True)))
        run_decoded(binary, ARGS, pmu=make_pmu(PMUConfig(pebs=False)))
        assert binary.decode_stats["decodes"] == 3

    def test_pickle_drops_cache_and_still_runs(self):
        binary = _pipeline_binary(0)
        expected = run_decoded(binary, ARGS).return_value
        clone = pickle.loads(pickle.dumps(binary))
        assert clone._decoded_cache == {}
        assert clone.decode_stats == {"decodes": 0, "cache_hits": 0}
        assert run_decoded(clone, ARGS).return_value == expected


class TestPEBSOverheadRegression:
    """PMU.on_branch must do no stack work in PEBS mode (paper sec. IV)."""

    def test_pebs_on_branch_never_walks(self):
        calls = []

        def walker():
            calls.append(1)
            return [0]

        pmu = PMU(PMUConfig(pebs=True), walker)
        assert pmu.on_branch.__func__ is PMU._on_branch_pebs
        for i in range(200):
            pmu.on_branch(0x400000 + i, 0x400100 + i)
        assert calls == []  # no per-branch stack walks
        # Sampling itself still walks, exactly once per sample.
        for _ in range(300):
            pmu.on_retire(0x400000)
        assert len(pmu.data.samples) >= 1
        assert len(calls) == len(pmu.data.samples)

    def test_pebs_walks_once_per_sample_not_per_branch(self):
        binary = _pipeline_binary(1)
        pmu = make_pmu(PMUConfig(pebs=True))
        executor = MachineExecutor(binary, pmu=pmu)
        walks = []
        real_walk = executor.walk_stack
        pmu.bind_executor(lambda: (walks.append(1), real_walk())[1])
        result = executor.run(ARGS)
        data = pmu.finish(result.instructions_retired)
        assert len(walks) == len(data.samples)
        assert result.taken_branches > len(data.samples) * 10

    def test_pebs_perf_data_unchanged_by_specialization(self):
        """The no-walk fast path must not change the sample stream."""
        binary = _pipeline_binary(1)
        config = PMUConfig(pebs=True)

        fast = make_pmu(config)
        result = execute(binary, ARGS, pmu=fast, engine="legacy")
        fast_data = fast.finish(result.instructions_retired)

        # Reference PMU with the specialization undone: on_branch eagerly
        # captures the lagged stack like the (pre-fix) generic path did.
        ref = make_pmu(config)
        ref.on_branch = PMU.on_branch.__get__(ref)
        result2 = execute(binary, ARGS, pmu=ref, engine="legacy")
        ref_data = ref.finish(result2.instructions_retired)

        assert len(fast_data.samples) == len(ref_data.samples)
        for got, want in zip(fast_data.samples, ref_data.samples):
            assert (got.ip, list(got.lbr), list(got.stack)) == \
                (want.ip, list(want.lbr), list(want.stack))


class TestInstructionBudget:
    """max_instructions must bite on every retired instruction — including
    rets, so a ret-heavy (deeply recursive) runaway still halts."""

    @pytest.mark.parametrize("engine", ["legacy", "decoded"])
    def test_ret_heavy_program_hits_limit(self, engine):
        binary = link(_recursion_module())
        # Depth 5000 retires ~35k instructions, half in the call/ret ladder.
        with pytest.raises(MachineExecutionLimit):
            execute(binary, [5000], max_instructions=2_000, engine=engine)

    @pytest.mark.parametrize("engine", ["legacy", "decoded"])
    def test_limit_not_hit_under_budget(self, engine):
        binary = link(_recursion_module())
        result = execute(binary, [40], max_instructions=2_000, engine=engine)
        assert result.return_value == 40

    def test_recursion_differential(self):
        binary = link(_recursion_module())
        legacy = execute(binary, [300], engine="legacy")
        decoded = execute(binary, [300], engine="decoded")
        assert decoded.return_value == legacy.return_value == 300
        assert decoded.instructions_retired == legacy.instructions_retired
        assert decoded.taken_branches == legacy.taken_branches
