"""Fluent IR construction helper.

The builder tracks a current insertion block and auto-assigns source lines so
constructed functions come with realistic debug locations (each statement gets
the next function-relative line, the way a frontend would emit them).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .debug_info import DebugLoc
from .function import BasicBlock, Function, Module
from .instructions import (Assign, BinOp, Br, Call, Cmp, CondBr, Instr, Load,
                           Operand, Ret, Select, Store)


class FunctionBuilder:
    """Builds one function block-by-block with automatic line numbering."""

    def __init__(self, name: str, params: Optional[Sequence[str]] = None):
        self.fn = Function(name, list(params or []))
        self._current: Optional[BasicBlock] = None
        self._next_line = 1

    # -- blocks ------------------------------------------------------------
    def block(self, label: str) -> "FunctionBuilder":
        """Create block *label* and make it the insertion point."""
        self._current = self.fn.add_block(BasicBlock(label))
        return self

    def _emit(self, instr: Instr) -> Instr:
        if self._current is None:
            raise ValueError("no current block; call .block(label) first")
        if instr.dloc is None:
            instr.dloc = DebugLoc(self._next_line)
            self._next_line += 1
        self._current.instrs.append(instr)
        return instr

    # -- instructions --------------------------------------------------------
    def mov(self, dst: str, src: Operand, line: Optional[int] = None) -> "FunctionBuilder":
        self._emit(Assign(dst, src, _loc(line)))
        return self

    def binop(self, op: str, dst: str, lhs: Operand, rhs: Operand,
              line: Optional[int] = None) -> "FunctionBuilder":
        self._emit(BinOp(op, dst, lhs, rhs, _loc(line)))
        return self

    def add(self, dst: str, lhs: Operand, rhs: Operand) -> "FunctionBuilder":
        return self.binop("add", dst, lhs, rhs)

    def sub(self, dst: str, lhs: Operand, rhs: Operand) -> "FunctionBuilder":
        return self.binop("sub", dst, lhs, rhs)

    def mul(self, dst: str, lhs: Operand, rhs: Operand) -> "FunctionBuilder":
        return self.binop("mul", dst, lhs, rhs)

    def cmp(self, pred: str, dst: str, lhs: Operand, rhs: Operand,
            line: Optional[int] = None) -> "FunctionBuilder":
        self._emit(Cmp(pred, dst, lhs, rhs, _loc(line)))
        return self

    def select(self, dst: str, cond: Operand, tval: Operand, fval: Operand) -> "FunctionBuilder":
        self._emit(Select(dst, cond, tval, fval))
        return self

    def load(self, dst: str, array: str, index: Operand) -> "FunctionBuilder":
        self._emit(Load(dst, array, index))
        return self

    def store(self, array: str, index: Operand, value: Operand) -> "FunctionBuilder":
        self._emit(Store(array, index, value))
        return self

    def call(self, dst: Optional[str], callee: str, args: Sequence[Operand] = ()) -> "FunctionBuilder":
        self._emit(Call(dst, callee, list(args)))
        return self

    def br(self, target: str) -> "FunctionBuilder":
        self._emit(Br(target))
        return self

    def condbr(self, cond: Operand, true_target: str, false_target: str) -> "FunctionBuilder":
        self._emit(CondBr(cond, true_target, false_target))
        return self

    def ret(self, value: Optional[Operand] = None) -> "FunctionBuilder":
        self._emit(Ret(value))
        return self

    def local_array(self, name: str, size: int) -> "FunctionBuilder":
        self.fn.local_arrays[name] = size
        return self

    def build(self) -> Function:
        return self.fn


def _loc(line: Optional[int]) -> Optional[DebugLoc]:
    return DebugLoc(line) if line is not None else None


class ModuleBuilder:
    """Builds a module out of :class:`FunctionBuilder` results."""

    def __init__(self, name: str = "module"):
        self.module = Module(name)

    def function(self, name: str, params: Optional[Sequence[str]] = None) -> FunctionBuilder:
        fb = FunctionBuilder(name, params)
        self.module.add_function(fb.fn)
        return fb

    def global_array(self, name: str, size: int) -> "ModuleBuilder":
        self.module.global_arrays[name] = size
        return self

    def build(self) -> Module:
        return self.module
