"""CFG analyses: predecessors, reverse post-order, dominators, natural loops.

These are the minimum analyses the optimization passes need.  They are
recomputed on demand; no cache lives on the IR, so no pass can read a stale
one.  A pass may hold a result across its own edits when it knows they leave
it valid: LICM computes the dominator sets once per function and reuses them
until it inserts a preheader, which it adds to them in place (hoisting never
changes the CFG).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .function import BasicBlock, Function


def successors_map(fn: Function) -> Dict[str, List[str]]:
    return {b.label: b.successors() for b in fn.blocks}


def predecessors_map(fn: Function) -> Dict[str, List[str]]:
    preds: Dict[str, List[str]] = {b.label: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            preds[succ].append(block.label)
    return preds


def reverse_post_order(fn: Function) -> List[str]:
    """Labels of reachable blocks in reverse post-order from the entry."""
    visited: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(fn.block(label).successors()))]
        visited.add(label)
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(fn.block(succ).successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(fn.entry.label)
    order.reverse()
    return order


def reachable_blocks(fn: Function) -> Set[str]:
    return set(reverse_post_order(fn))


def dominators(fn: Function) -> Dict[str, Set[str]]:
    """Classic iterative dominator sets (block label -> set of dominators)."""
    rpo = reverse_post_order(fn)
    preds = predecessors_map(fn)
    all_blocks = set(rpo)
    dom: Dict[str, Set[str]] = {label: set(all_blocks) for label in rpo}
    entry = fn.entry.label
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == entry:
                continue
            pred_doms = [dom[p] for p in preds[label] if p in all_blocks]
            new = set.intersection(*pred_doms) if pred_doms else set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def immediate_dominators(fn: Function) -> Dict[str, Optional[str]]:
    """Immediate dominators (label -> idom label, entry -> None).

    Derived from the dominator sets: a block's idom is its deepest strict
    dominator, i.e. the strict dominator with the largest dominator set.
    """
    dom = dominators(fn)
    entry = fn.entry.label
    idom: Dict[str, Optional[str]] = {entry: None}
    for label, doms in dom.items():
        if label == entry:
            continue
        strict = doms - {label}
        idom[label] = max(strict, key=lambda d: (len(dom[d]), d))
    return idom


def back_edges(fn: Function) -> List[Tuple[str, str]]:
    """Edges ``(tail, header)`` whose target dominates their source."""
    dom = dominators(fn)
    edges = []
    for block in fn.blocks:
        if block.label not in dom:
            continue
        for succ in block.successors():
            if succ in dom[block.label]:
                edges.append((block.label, succ))
    return edges


def is_reducible(fn: Function) -> bool:
    """True when removing all back edges leaves the reachable CFG acyclic.

    All structured control flow (the workload generator emits only
    if/else and counted loops) is reducible; irreducible regions can only
    come from hand-built IR, and analyses that rely on loop nesting
    (frequency propagation, the profile linter's monotonicity rule) must
    degrade gracefully on them.
    """
    reachable = reachable_blocks(fn)
    removed = set(back_edges(fn))
    indegree: Dict[str, int] = {label: 0 for label in reachable}
    succs: Dict[str, List[str]] = {label: [] for label in reachable}
    for label in reachable:
        for succ in fn.block(label).successors():
            if succ in reachable and (label, succ) not in removed:
                succs[label].append(succ)
                indegree[succ] += 1
    worklist = [label for label, deg in sorted(indegree.items()) if deg == 0]
    seen = 0
    while worklist:
        current = worklist.pop()
        seen += 1
        for succ in succs[current]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                worklist.append(succ)
    return seen == len(reachable)


class Loop:
    """A natural loop: header plus body block labels (header included)."""

    __slots__ = ("header", "body", "latches")

    def __init__(self, header: str, body: Set[str], latches: Set[str]):
        self.header = header
        self.body = body
        self.latches = latches

    def __repr__(self) -> str:
        return f"<Loop header={self.header} blocks={sorted(self.body)}>"


def natural_loops(fn: Function,
                  dom: Optional[Dict[str, Set[str]]] = None) -> List[Loop]:
    """Find natural loops via back edges (tail dominated by head).

    Loops sharing a header are merged, matching LLVM's LoopInfo behaviour.
    ``dom`` is ``dominators(fn)`` when the caller already holds it.
    """
    if dom is None:
        dom = dominators(fn)
    preds = predecessors_map(fn)
    reachable = set(dom)
    loops: Dict[str, Loop] = {}
    for block in fn.blocks:
        if block.label not in reachable:
            continue
        for succ in block.successors():
            if succ in dom[block.label]:  # back edge block -> succ
                header = succ
                body: Set[str] = {header, block.label}
                worklist = [block.label]
                while worklist:
                    current = worklist.pop()
                    if current == header:
                        continue
                    for pred in preds[current]:
                        if pred not in body and pred in reachable:
                            body.add(pred)
                            worklist.append(pred)
                if header in loops:
                    loops[header].body |= body
                    loops[header].latches.add(block.label)
                else:
                    loops[header] = Loop(header, body, {block.label})
    return list(loops.values())


def loop_exits(fn: Function, loop: Loop) -> List[Tuple[str, str]]:
    """Edges (from_label, to_label) leaving the loop body."""
    exits = []
    for label in loop.body:
        for succ in fn.block(label).successors():
            if succ not in loop.body:
                exits.append((label, succ))
    return exits
