"""Block-level liveness analysis for virtual registers.

:func:`compute_liveness` solves every register at once for the register
allocator's spill-cost computation in codegen; :func:`live_in_any` answers
one register for loop-invariant code motion's safety check.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..ir.cfg import predecessors_map, successors_map
from ..ir.function import Function


class LivenessInfo:
    """Per-block live-in/live-out register sets."""

    def __init__(self) -> None:
        self.live_in: Dict[str, Set[str]] = {}
        self.live_out: Dict[str, Set[str]] = {}
        self.use: Dict[str, Set[str]] = {}
        self.defs: Dict[str, Set[str]] = {}


def compute_liveness(fn: Function) -> LivenessInfo:
    """Classic backward dataflow: live_out(B) = union(live_in(succ))."""
    info = LivenessInfo()
    succs = successors_map(fn)
    for block in fn.blocks:
        use: Set[str] = set()
        defs: Set[str] = set()
        for instr in block.instrs:
            for reg in instr.uses():
                if reg not in defs:
                    use.add(reg)
            defined = instr.defined()
            if defined is not None:
                defs.add(defined)
        info.use[block.label] = use
        info.defs[block.label] = defs
        info.live_in[block.label] = set()
        info.live_out[block.label] = set()

    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            label = block.label
            out: Set[str] = set()
            for succ in succs[label]:
                out |= info.live_in[succ]
            new_in = info.use[label] | (out - info.defs[label])
            if out != info.live_out[label] or new_in != info.live_in[label]:
                info.live_out[label] = out
                info.live_in[label] = new_in
                changed = True
    return info


def live_in_any(fn: Function, reg: str, labels: Iterable[str]) -> bool:
    """True when ``reg`` is live on entry to any block in ``labels``.

    Equal to ``any(reg in compute_liveness(fn).live_in[l] for l in labels)``:
    a forward search from ``labels`` for a use of ``reg`` that no def of
    ``reg`` precedes on the path.
    """
    worklist = list(labels)
    seen = set(worklist)
    while worklist:
        block = fn.block(worklist.pop())
        for instr in block.instrs:
            if reg in instr.uses():
                return True
            if instr.defined() == reg:
                break
        else:
            for succ in block.successors():
                if succ not in seen:
                    seen.add(succ)
                    worklist.append(succ)
    return False


def registers_of(fn: Function) -> Set[str]:
    """All virtual registers referenced in the function (params included)."""
    regs: Set[str] = set(fn.params)
    for instr in fn.instructions():
        regs.update(instr.uses())
        defined = instr.defined()
        if defined is not None:
            regs.add(defined)
    return regs
