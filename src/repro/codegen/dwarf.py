"""DWARF-like debug information: the line table and its size model.

This is what AutoFDO correlates against.  Each machine instruction gets a row
``(addr, root_function, line, discriminator, inline_stack)`` taken verbatim
from its (possibly optimizer-degraded) :class:`~repro.ir.debug_info.DebugLoc`
— degradation happened upstream, in the passes; the line table just faithfully
records whatever survived, exactly like a production compiler.

The size model approximates ``-g2`` output: a per-function DIE overhead, a
per-row statement entry, per-inline-frame ``DW_TAG_inlined_subroutine`` cost,
and variable/type info proportional to code size.  Absolute bytes are not the
point; the *ratio* against text and probe metadata (Fig. 9) is.
"""

from __future__ import annotations

from typing import Dict

from ..ir.debug_info import DebugLoc
from .binary import Binary

#: Size-model constants (bytes).
FUNCTION_DIE_OVERHEAD = 48
LINE_ROW_COST = 3
INLINE_FRAME_COST = 6
VARIABLE_INFO_PER_INSTR = 2


class LineRow:
    """One line-table row."""

    __slots__ = ("addr", "func", "line", "discriminator", "inline_stack")

    def __init__(self, addr: int, func: str, line: int, discriminator: int,
                 inline_stack: tuple):
        self.addr = addr
        self.func = func
        self.line = line
        self.discriminator = discriminator
        self.inline_stack = inline_stack

    def leaf_function(self) -> str:
        if self.inline_stack:
            return self.inline_stack[-1].callee
        return self.func


class DwarfInfo:
    """Line table plus the debug-info size estimate for one binary."""

    def __init__(self) -> None:
        self.rows: Dict[int, LineRow] = {}
        self.size_bytes = 0


def build_dwarf(binary: Binary) -> DwarfInfo:
    info = DwarfInfo()
    size = len(binary.symbols) * FUNCTION_DIE_OVERHEAD
    for minstr in binary.instrs:
        size += VARIABLE_INFO_PER_INSTR
        dloc = minstr.dloc
        if dloc is None:
            continue
        func = minstr.func
        row = LineRow(minstr.addr, func, dloc.line, dloc.discriminator,
                      dloc.inline_stack)
        info.rows[minstr.addr] = row
        size += LINE_ROW_COST + INLINE_FRAME_COST * len(dloc.inline_stack)
    info.size_bytes = size
    return info
