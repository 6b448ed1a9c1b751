"""LICM: hoisting behaviour and non-SSA safety conditions."""

import importlib

from repro.ir import ModuleBuilder, dominators, natural_loops, verify_module
from repro.opt import licm_function
from repro.workloads import build_workload, large_module_spec
from tests.conftest import run_ir


def _loop_with_invariant():
    mb = ModuleBuilder("m")
    mb.global_array("@g", 8)
    f = mb.function("main", ["%n", "%k"])
    f.block("entry").mov("%i", 0).mov("%sum", 0).br("loop")
    f.block("loop").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "exit")
    (f.block("body")
        .mul("%inv", "%k", 7)          # invariant: %k never redefined
        .add("%sum", "%sum", "%inv")
        .add("%i", "%i", 1)
        .br("loop"))
    f.block("exit").ret("%sum")
    module = mb.build()
    verify_module(module)
    return module


class TestHoisting:
    def test_invariant_hoisted_out_of_loop(self):
        module = _loop_with_invariant()
        fn = module.function("main")
        hoisted = licm_function(fn)
        assert hoisted >= 1
        loop_blocks = natural_loops(fn)[0].body
        for label in loop_blocks:
            ops = [getattr(i, "op", None) for i in fn.block(label).instrs]
            assert "mul" not in ops  # the invariant mul left the loop
        verify_module(module)
        assert run_ir(module, [10, 3]).return_value == 10 * 21

    def test_semantics_preserved_zero_trips(self):
        module = _loop_with_invariant()
        licm_function(module.function("main"))
        assert run_ir(module, [0, 3]).return_value == 0

    def test_variant_not_hoisted(self):
        module = _loop_with_invariant()
        fn = module.function("main")
        licm_function(fn)
        loop_blocks = natural_loops(fn)[0].body
        adds = [i for label in loop_blocks for i in fn.block(label).instrs
                if getattr(i, "op", None) == "add"]
        assert len(adds) == 2  # %sum and %i updates stay

    def test_load_not_hoisted_past_store_to_same_array(self):
        mb = ModuleBuilder("m")
        mb.global_array("@g", 4)
        f = mb.function("main", ["%n"])
        f.block("entry").mov("%i", 0).mov("%sum", 0).br("loop")
        f.block("loop").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "exit")
        (f.block("body")
            .load("%v", "@g", 0)
            .add("%sum", "%sum", "%v")
            .store("@g", 0, "%i")
            .add("%i", "%i", 1)
            .br("loop"))
        f.block("exit").ret("%sum")
        module = mb.build()
        before = run_ir(module, [5]).return_value
        licm_function(module.function("main"))
        verify_module(module)
        assert run_ir(module, [5]).return_value == before
        # The load must still be inside the loop.
        fn = module.function("main")
        loop_blocks = natural_loops(fn)[0].body
        loads = [i for label in loop_blocks for i in fn.block(label).instrs
                 if i.opcode == "load"]
        assert loads

    def test_load_from_readonly_array_hoisted(self):
        mb = ModuleBuilder("m")
        mb.global_array("@ro", 4)
        f = mb.function("main", ["%n"])
        f.block("entry").store("@ro", 0, 9).mov("%i", 0).mov("%sum", 0).br("loop")
        f.block("loop").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "exit")
        (f.block("body")
            .load("%v", "@ro", 0)
            .add("%sum", "%sum", "%v")
            .add("%i", "%i", 1)
            .br("loop"))
        f.block("exit").ret("%sum")
        module = mb.build()
        fn = module.function("main")
        assert licm_function(fn) >= 1
        assert run_ir(module, [4]).return_value == 36

    def test_no_hoist_when_reg_conditionally_defined(self):
        """A def in a conditional block whose value is used on a path that
        can bypass it must not be hoisted."""
        mb = ModuleBuilder("m")
        f = mb.function("main", ["%n", "%k"])
        f.block("entry").mov("%i", 0).mov("%v", 1).mov("%sum", 0).br("loop")
        f.block("loop").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "exit")
        (f.block("body")
            .cmp("eq", "%odd", "%i", 2)
            .condbr("%odd", "special", "cont"))
        f.block("special").mul("%v", "%k", 5).br("cont")
        (f.block("cont")
            .add("%sum", "%sum", "%v")
            .add("%i", "%i", 1)
            .br("loop"))
        f.block("exit").ret("%sum")
        module = mb.build()
        before = run_ir(module, [6, 2]).return_value
        licm_function(module.function("main"))
        verify_module(module)
        assert run_ir(module, [6, 2]).return_value == before


def _nested_loops_needing_preheader():
    """Outer loop whose body reaches the inner header from two blocks, so
    LICM must insert a dedicated inner preheader."""
    mb = ModuleBuilder("m")
    f = mb.function("main", ["%n", "%k"])
    f.block("entry").mov("%i", 0).mov("%sum", 0).br("outer")
    f.block("outer").cmp("slt", "%c", "%i", "%n").condbr("%c", "obody", "exit")
    (f.block("obody")
        .mov("%j", 0)
        .cmp("eq", "%z", "%i", 1)
        .condbr("%z", "skip", "inner"))
    f.block("skip").add("%j", "%j", 1).br("inner")
    f.block("inner").cmp("slt", "%d", "%j", "%n").condbr("%d", "ibody", "olatch")
    (f.block("ibody")
        .mul("%inv", "%k", 3)          # invariant in both loops
        .add("%sum", "%sum", "%inv")
        .add("%j", "%j", 1)
        .br("inner"))
    f.block("olatch").add("%i", "%i", 1).br("outer")
    f.block("exit").ret("%sum")
    module = mb.build()
    verify_module(module)
    return module


class TestAnalysisReuse:
    def test_preheader_insertion_keeps_dominators_exact(self, monkeypatch):
        licm_mod = importlib.import_module("repro.opt.licm")
        original = licm_mod._ensure_preheader
        created = []

        def checked(fn, loop, dom):
            labels = {b.label for b in fn.blocks}
            preheader = original(fn, loop, dom)
            if preheader is not None and preheader.label not in labels:
                created.append(preheader.label)
                assert dom == dominators(fn)
            return preheader

        monkeypatch.setattr(licm_mod, "_ensure_preheader", checked)
        module = _nested_loops_needing_preheader()
        before = run_ir(module, [4, 5]).return_value
        assert licm_function(module.function("main")) >= 1
        assert created
        verify_module(module)
        assert run_ir(module, [4, 5]).return_value == before

    def test_entry_header_with_only_unreachable_preds_not_hoisted(self):
        """A loop headed by the entry block has no reachable outside
        predecessor; a preheader fed by an unreachable one would never run
        what LICM put there."""
        mb = ModuleBuilder("m")
        f = mb.function("main", ["%n", "%k"])
        (f.block("loop")
            .mul("%inv", "%k", 3)
            .add("%n", "%n", -1)
            .cmp("sgt", "%c", "%n", 0)
            .condbr("%c", "loop", "exit"))
        f.block("exit").ret("%inv")
        f.block("dead").br("loop")
        module = mb.build()
        fn = module.function("main")
        assert licm_function(fn) == 0
        assert [b.label for b in fn.blocks] == ["loop", "exit", "dead"]
        assert run_ir(module, [2, 5]).return_value == 15

    def test_one_dominator_computation_per_function(self, monkeypatch):
        licm_mod = importlib.import_module("repro.opt.licm")
        calls = []
        monkeypatch.setattr(licm_mod, "dominators",
                            lambda fn: calls.append(fn) or dominators(fn))
        module = build_workload(large_module_spec(seed=5, functions=40,
                                                  loop_depth=4))
        hoisted = sum(licm_function(fn) for fn in module.functions.values())
        assert hoisted > 0
        assert len(calls) == len(module.functions)
