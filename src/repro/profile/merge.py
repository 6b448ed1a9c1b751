"""Address-level DWARF counts: the additive stage before AutoFDO's collapse.

DWARF is the one non-additive profile kind: its max-heuristic
(:meth:`~repro.profile.function_samples.FunctionSamples.set_body_max`) takes
a maximum over per-address sums, and a max of partial sums is not the max of
the total.  Profile generation therefore first sums counts per address
(:class:`DwarfRangeCounts`, plain sums) and collapses them to
``(line, disc)`` keys once, on the complete totals — see
``repro.correlate.profgen.dwarf_profile_from_counts``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional


class DwarfRangeCounts:
    """Pre-collapse DWARF counts: exact per-address and per-callsite sums.

    ``instr_counts`` maps instruction address -> sample count;
    ``call_counts`` maps ``(call_addr, target_addr)`` -> observed transfer
    count.
    """

    __slots__ = ("instr_counts", "call_counts")

    def __init__(self, instr_counts: Optional[Counter] = None,
                 call_counts: Optional[Counter] = None):
        self.instr_counts: Counter = (Counter() if instr_counts is None
                                      else instr_counts)
        self.call_counts: Counter = (Counter() if call_counts is None
                                     else call_counts)

    def __repr__(self) -> str:
        return (f"<DwarfRangeCounts {len(self.instr_counts)} addrs, "
                f"{len(self.call_counts)} callsites>")
