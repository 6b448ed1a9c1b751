"""Per-function sample records — the common unit of every profile kind.

``body`` is keyed by the correlation anchor of the producing pipeline:
``(line, discriminator)`` tuples for DWARF-based AutoFDO profiles, or integer
probe ids for CSSPGO profiles.  ``calls`` maps a callsite key to per-callee
counts (the dynamic call graph slice used by inliners and the pre-inliner).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Union

BodyKey = Union[int, tuple]

#: Pre-inliner attribute persisted in CSSPGO profiles (paper Algorithm 2:
#: ``MarkContextInlined``): the compiler should inline this context.
ATTR_SHOULD_INLINE = "ShouldBeInlined"


class FunctionSamples:
    """Counts for one function (or one calling context of a function)."""

    __slots__ = ("name", "total", "head", "body", "calls", "checksum",
                 "attributes", "dangling")

    def __init__(self, name: str):
        self.name = name
        #: Sum of all body counts (recomputed by finalize()).
        self.total = 0.0
        #: Entry count (function head samples / entry probe count).
        self.head = 0.0
        self.body: Dict[BodyKey, float] = {}
        self.calls: Dict[BodyKey, Dict[str, float]] = {}
        #: CFG checksum at probe-insertion time (probe profiles only).
        self.checksum: Optional[int] = None
        self.attributes: Set[str] = set()
        #: Probe ids observed only as dangling anchors (count unknown, not
        #: zero — if-converted blocks, paper sec. III.A).
        self.dangling: Set[BodyKey] = set()

    def add_body(self, key: BodyKey, count: float = 1.0) -> None:
        self.body[key] = self.body.get(key, 0.0) + count

    def set_body_max(self, key: BodyKey, count: float) -> None:
        """DWARF max-heuristic accumulation (paper sec. III.A(b))."""
        if count > self.body.get(key, 0.0):
            self.body[key] = count

    def add_call(self, key: BodyKey, callee: str, count: float = 1.0) -> None:
        targets = self.calls.setdefault(key, {})
        targets[callee] = targets.get(callee, 0.0) + count

    def finalize(self) -> None:
        self.total = sum(self.body.values())

    def merge(self, other: "FunctionSamples", scale: float = 1.0) -> None:
        """Accumulate ``other`` into this record (context trimming/merging)."""
        self.head += other.head * scale
        for key, count in other.body.items():
            self.add_body(key, count * scale)
        for key, targets in other.calls.items():
            for callee, count in targets.items():
                self.add_call(key, callee, count * scale)
        self.dangling |= other.dangling
        self.finalize()

    def clone(self) -> "FunctionSamples":
        copy = FunctionSamples(self.name)
        copy.total = self.total
        copy.head = self.head
        copy.body = dict(self.body)
        copy.calls = {k: dict(v) for k, v in self.calls.items()}
        copy.checksum = self.checksum
        copy.attributes = set(self.attributes)
        copy.dangling = set(self.dangling)
        return copy

    def __repr__(self) -> str:
        return (f"<FunctionSamples {self.name} total={self.total:g} "
                f"head={self.head:g} keys={len(self.body)}>")
