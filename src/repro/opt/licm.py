"""Loop-invariant code motion.

The paper's canonical *code duplication / code motion* hazard (sec. III.A(b)):
LICM moves instructions into colder regions while their debug line stays the
same, which is why DWARF correlation uses a max-over-instructions heuristic.
The pass itself is profile-independent and runs in every build.

Safety rules for the non-SSA register machine (all must hold to hoist an
instruction ``I`` defining ``r`` out of loop ``L``):

* ``I`` is pure (mov/binop/cmp) or a load from an array not stored to inside
  ``L`` while ``L`` contains no calls (calls may write global arrays);
* all register operands of ``I`` are loop-invariant (no definition in ``L``);
* ``r`` has exactly one definition inside ``L`` (``I`` itself);
* every use of ``r`` inside ``L`` is dominated by ``I``;
* ``I``'s block dominates every loop exit, or ``r`` is dead after the loop.

Analysis reuse: a hoist only moves a non-terminator into the preheader, so it
never changes the CFG.  The dominator sets are therefore computed once per
function and reused until a preheader is inserted, which updates them in
place (the new block is dominated by what dominates all its predecessors,
and dominates every block the header dominates).  The store/call summary and
the exit edges of a loop are computed once per loop, its definition counts
are decremented on each hoist, and the "dead after the loop" rule asks
:func:`~repro.opt.liveness.live_in_any` about the one register ``r``, only
when the cheaper dominance rule fails.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..ir.cfg import Loop, dominators, loop_exits, natural_loops, predecessors_map
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import (Assign, BinOp, Br, Call, Cmp, CondBr, Instr,
                               Load, Store)
from .liveness import live_in_any
from .pass_manager import OptConfig


def _ensure_preheader(fn: Function, loop: Loop,
                      dom: Dict[str, Set[str]]) -> Optional[BasicBlock]:
    """Find or create the unique out-of-loop predecessor block of the header.

    A created preheader is added to ``dom`` in place, so ``dom`` keeps equal
    to ``dominators(fn)``.
    """
    preds = predecessors_map(fn)
    outside = [p for p in preds[loop.header] if p not in loop.body]
    if not any(p in dom for p in outside):
        # Header == entry: any outside predecessor is unreachable, and a
        # preheader fed only by those would never run what it holds.
        return None
    if len(outside) == 1:
        pred = fn.block(outside[0])
        if len(pred.successors()) == 1:
            return pred
    # Create a dedicated preheader and retarget all outside predecessors.
    label = fn.fresh_label("preheader")
    preheader = BasicBlock(label, [Br(loop.header)])
    fn.add_block(preheader)
    for pred_label in outside:
        term = fn.block(pred_label).instrs[-1]
        if isinstance(term, Br) and term.target == loop.header:
            term.target = label
        elif isinstance(term, CondBr):
            if term.true_target == loop.header:
                term.true_target = label
            if term.false_target == loop.header:
                term.false_target = label
    dom[label] = set.intersection(*(dom[p] for p in outside if p in dom))
    dom[label].add(label)
    for doms in dom.values():
        if loop.header in doms:
            doms.add(label)
    return preheader


def _loop_defs(fn: Function, loop: Loop) -> Dict[str, int]:
    defs: Dict[str, int] = {}
    for label in loop.body:
        for instr in fn.block(label).instrs:
            defined = instr.defined()
            if defined is not None:
                defs[defined] = defs.get(defined, 0) + 1
    return defs


def _stores_and_calls(fn: Function, loop: Loop) -> Tuple[Set[str], bool]:
    stored: Set[str] = set()
    has_call = False
    for label in loop.body:
        for instr in fn.block(label).instrs:
            if isinstance(instr, Store):
                stored.add(instr.array)
            elif isinstance(instr, Call):
                has_call = True
    return stored, has_call


def licm_function(fn: Function) -> int:
    dom = dominators(fn)
    hoisted_total = 0
    for loop in natural_loops(fn, dom):
        hoisted_total += _licm_loop(fn, loop, dom)
    return hoisted_total


def _licm_loop(fn: Function, loop: Loop, dom: Dict[str, Set[str]]) -> int:
    preheader = _ensure_preheader(fn, loop, dom)
    if preheader is None:
        return 0
    # Hoisted kinds are never stores, calls or terminators, so the store/call
    # summary and the exit edges hold for the whole loop.
    defs = _loop_defs(fn, loop)
    stored_arrays, has_call = _stores_and_calls(fn, loop)
    exit_targets = {t for _, t in loop_exits(fn, loop)}
    labels = sorted(loop.body)
    hoisted_total = 0
    while True:
        # Rescan from the first block after every hoist: a hoist can make an
        # earlier instruction hoistable, and the order fixes the output.
        site = _first_hoistable(fn, loop, dom, labels, defs, stored_arrays,
                                has_call, exit_targets)
        if site is None:
            return hoisted_total
        block, idx = site
        instr = block.instrs.pop(idx)
        preheader.instrs.insert(len(preheader.instrs) - 1, instr)
        defs[instr.defined()] -= 1
        hoisted_total += 1


def _first_hoistable(fn: Function, loop: Loop, dom: Dict[str, Set[str]],
                     labels: List[str], defs: Dict[str, int],
                     stored_arrays: Set[str], has_call: bool,
                     exit_targets: Set[str]
                     ) -> Optional[Tuple[BasicBlock, int]]:
    for label in labels:
        block = fn.block(label)
        for idx, instr in enumerate(block.instrs):
            if not _hoistable_kind(instr, stored_arrays, has_call):
                continue
            if any(defs.get(reg, 0) > 0 for reg in instr.uses()):
                continue
            dst = instr.defined()
            if dst is None or defs.get(dst, 0) != 1:
                continue
            if not _uses_dominated(fn, loop, dom, label, idx, dst):
                continue
            if (not all(label in dom[t] for t in exit_targets if t in dom)
                    and live_in_any(fn, dst, exit_targets)):
                continue
            return block, idx
    return None


def _hoistable_kind(instr: Instr, stored_arrays: Set[str], has_call: bool) -> bool:
    if isinstance(instr, (Assign, BinOp, Cmp)):
        return True
    if isinstance(instr, Load):
        return instr.array not in stored_arrays and not has_call
    return False


def _uses_dominated(fn: Function, loop: Loop, dom, def_label: str,
                    def_idx: int, reg: str) -> bool:
    for label in loop.body:
        block = fn.block(label)
        for idx, instr in enumerate(block.instrs):
            if reg in instr.uses():
                if label == def_label:
                    if idx < def_idx:
                        return False
                elif def_label not in dom.get(label, set()):
                    return False
    return True


def licm(module: Module, config: OptConfig = None) -> None:
    if config is not None and not config.enable_licm:
        return
    for fn in module.functions.values():
        hoisted = licm_function(fn)
        if hoisted:
            telemetry.count("pass.licm", "instructions_hoisted", hoisted)
