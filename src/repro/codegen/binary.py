"""The linked binary: addressed machine code plus symbolization queries.

Layout policy (what function splitting + profile-guided function ordering
give the paper's variants):

* functions are placed hottest-first when entry counts are known (original
  module order otherwise);
* every function's cold blocks (marked by the hot/cold splitter) are exiled
  to a ``.text.cold`` region placed after *all* hot text, so cold paths stop
  polluting the instruction cache.

The binary also exposes the queries the profiling stack needs: instruction at
an address, next instruction address (Algorithm 1's ``NextInstrAddr``),
enclosing function, DWARF line rows, and pseudo-probe records.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Tuple

from ..ir.function import Module
from .lower import LowerConfig, lower_module
from .mir import MFunction, MInstr, ProbeRecord

#: Base address of the text section (arbitrary, nonzero for realism).
TEXT_BASE = 0x400000


class FunctionSymbol:
    """Symbol-table entry: where a function lives in the binary."""

    __slots__ = ("name", "guid", "entry_addr", "hot_range", "cold_range",
                 "params", "local_arrays", "entry_count", "num_instrs")

    def __init__(self, name: str, guid: int):
        self.name = name
        self.guid = guid
        self.entry_addr = -1
        self.hot_range: Tuple[int, int] = (0, 0)
        self.cold_range: Optional[Tuple[int, int]] = None
        self.params: List[str] = []
        self.local_arrays: Dict[str, int] = {}
        self.entry_count: Optional[float] = None
        self.num_instrs = 0

    def contains(self, addr: int) -> bool:
        if self.hot_range[0] <= addr < self.hot_range[1]:
            return True
        return (self.cold_range is not None
                and self.cold_range[0] <= addr < self.cold_range[1])


class Binary:
    """A fully linked program image."""

    def __init__(self, name: str):
        self.name = name
        self.instrs: List[MInstr] = []
        self._addrs: List[int] = []
        self._addr_to_index: Dict[int, int] = {}
        self.symbols: Dict[str, FunctionSymbol] = {}
        self._ranges: List[Tuple[int, int, str]] = []  # (start, end, func)
        self.global_arrays: Dict[str, int] = {}
        self.entry_function = "main"
        self.text_size = 0
        self.guid_to_name: Dict[int, str] = {}
        #: Pre-decoded executor programs, keyed by observer variant (see
        #: :mod:`repro.hw.decoded`).  Holding the cache here means repeated
        #: runs of the same artifact — continuous-profiling iterations,
        #: evaluation runs, benchmark sweeps — skip decoding entirely.
        self._decoded_cache: Dict[object, object] = {}
        #: Decode-cache effectiveness counters (mirrored into telemetry).
        self.decode_stats: Dict[str, int] = {"decodes": 0, "cache_hits": 0}
        #: Range->probe-records prefix index (built lazily, see
        #: :meth:`probe_records_in_range`).
        self._probe_flat: Optional[List[ProbeRecord]] = None
        self._probe_offsets: Optional[List[int]] = None
        #: Memoized per-(begin, end) range lookups and per-addr symbolization.
        self._probe_range_cache: Dict[Tuple[int, int], List[ProbeRecord]] = {}
        self._instr_range_cache: Dict[Tuple[int, int], List[MInstr]] = {}
        self._func_at_cache: Dict[int, Optional[str]] = {}
        #: Memoized :meth:`identity` digest (stable once linked).
        self._identity: Optional[str] = None
        #: Index/cache effectiveness counters (read by bench_profgen and
        #: mirrored into telemetry by profgen).
        self.index_stats: Dict[str, int] = {
            "probe_range_hits": 0, "probe_range_misses": 0,
            "instr_range_hits": 0, "instr_range_misses": 0,
            "function_at_hits": 0, "function_at_misses": 0,
        }

    def identity(self) -> str:
        """Stable identity of this build, for profile/sample provenance.

        Hashes the symbol layout (names, entry addresses, ranges) and the
        probe GUID map — anything that moves a function or changes the probe
        universe changes the identity.  Two binaries with equal identity
        interpret the same addresses the same way, which is the property
        sample merging (:meth:`~repro.hw.perf_data.PerfData.extend`) and
        profile application rely on.
        """
        cached = self._identity
        if cached is None:
            hasher = hashlib.md5()
            for name in sorted(self.symbols):
                sym = self.symbols[name]
                hasher.update(
                    f"{name}:{sym.guid:x}:{sym.entry_addr:x}:"
                    f"{sym.hot_range}:{sym.cold_range}|".encode())
            for guid in sorted(self.guid_to_name):
                hasher.update(f"{guid:x}={self.guid_to_name[guid]};".encode())
            cached = hasher.hexdigest()[:16]
            self._identity = cached
        return cached

    # -- decoded-program cache ----------------------------------------------
    def cached_decoded(self, key, builder):
        """Return the decoded program for ``key``, building it on first use.

        ``builder`` is ``binary -> program``; the result is cached for the
        binary's lifetime.  Decoded programs hold closures, so the cache is
        dropped on pickling (see ``__getstate__``) and rebuilt lazily in the
        receiving process.
        """
        program = self._decoded_cache.get(key)
        if program is not None:
            self.decode_stats["cache_hits"] += 1
            return program
        program = builder(self)
        self._decoded_cache[key] = program
        self.decode_stats["decodes"] += 1
        return program

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_decoded_cache"] = {}
        state["decode_stats"] = {"decodes": 0, "cache_hits": 0}
        # Derived indexes/caches rebuild lazily in the receiving process;
        # shipping them would only bloat the pickle.
        state["_probe_flat"] = None
        state["_probe_offsets"] = None
        state["_probe_range_cache"] = {}
        state["_instr_range_cache"] = {}
        state["_func_at_cache"] = {}
        state["index_stats"] = {key: 0 for key in self.index_stats}
        return state

    # -- address queries ----------------------------------------------------
    def index_of(self, addr: int) -> int:
        return self._addr_to_index[addr]

    def instr_at(self, addr: int) -> MInstr:
        return self.instrs[self._addr_to_index[addr]]

    def has_addr(self, addr: int) -> bool:
        return addr in self._addr_to_index

    def next_instr_addr(self, addr: int) -> Optional[int]:
        """Address of the instruction following the one at ``addr``."""
        idx = self._addr_to_index[addr] + 1
        if idx >= len(self.instrs):
            return None
        return self.instrs[idx].addr

    def function_at(self, addr: int) -> Optional[str]:
        cache = self._func_at_cache
        stats = self.index_stats
        if addr in cache:
            stats["function_at_hits"] += 1
            return cache[addr]
        stats["function_at_misses"] += 1
        name: Optional[str] = None
        i = bisect.bisect_right(self._ranges, (addr, float("inf"), "")) - 1
        if i >= 0:
            start, end, candidate = self._ranges[i]
            if start <= addr < end:
                name = candidate
        cache[addr] = name
        return name

    def probes_at(self, addr: int) -> List[ProbeRecord]:
        if not self.has_addr(addr):
            return []
        return self.instr_at(addr).probes

    def instructions_in_range(self, begin: int, end: int) -> List[MInstr]:
        """Instructions with begin <= addr <= end (inclusive, like LBR ranges).

        Memoized per (begin, end): aggregated LBR ranges repeat the same few
        hot intervals thousands of times, so profgen's rescans collapse to
        dict hits.  Cached lists must be treated as read-only.
        """
        cache = self._instr_range_cache
        stats = self.index_stats
        instrs = cache.get((begin, end))
        if instrs is not None:
            stats["instr_range_hits"] += 1
            return instrs
        stats["instr_range_misses"] += 1
        lo = bisect.bisect_left(self._addrs, begin)
        hi = bisect.bisect_right(self._addrs, end)
        instrs = self.instrs[lo:hi]
        cache[(begin, end)] = instrs
        return instrs

    def scan_instructions_in_range(self, begin: int, end: int) -> List[MInstr]:
        """Cache-free reference scan for :meth:`instructions_in_range`;
        used by profgen's legacy path and the differential tests."""
        lo = bisect.bisect_left(self._addrs, begin)
        hi = bisect.bisect_right(self._addrs, end)
        return self.instrs[lo:hi]

    # -- probe range index ---------------------------------------------------
    def _build_probe_index(self) -> None:
        """One-time prefix-sum index: instruction i's probe records live at
        ``_probe_flat[_probe_offsets[i]:_probe_offsets[i + 1]]``, so any
        address range maps to one contiguous slice with no per-instruction
        scanning."""
        flat: List[ProbeRecord] = []
        offsets: List[int] = [0]
        for minstr in self.instrs:
            if minstr.probes:
                flat.extend(minstr.probes)
            offsets.append(len(flat))
        self._probe_flat = flat
        self._probe_offsets = offsets

    def probe_records_in_range(self, begin: int, end: int) -> List[ProbeRecord]:
        """All probe records on instructions with begin <= addr <= end, in
        instruction order (identical to scanning :meth:`instructions_in_range`
        and concatenating each ``minstr.probes``).  Served from the prefix
        index plus a per-(begin, end) memo; results are read-only."""
        cache = self._probe_range_cache
        stats = self.index_stats
        records = cache.get((begin, end))
        if records is not None:
            stats["probe_range_hits"] += 1
            return records
        stats["probe_range_misses"] += 1
        if self._probe_flat is None:
            self._build_probe_index()
        lo = bisect.bisect_left(self._addrs, begin)
        hi = bisect.bisect_right(self._addrs, end)
        records = self._probe_flat[self._probe_offsets[lo]:
                                  self._probe_offsets[hi]]
        cache[(begin, end)] = records
        return records


def link(module: Module, lowered: Optional[Dict[str, MFunction]] = None,
         config: Optional[LowerConfig] = None) -> Binary:
    """Lower (if needed) and link ``module`` into a :class:`Binary`."""
    if lowered is None:
        lowered = lower_module(module, config)
    binary = Binary(module.name)
    binary.global_arrays = dict(module.global_arrays)
    binary.entry_function = module.entry_function
    # Probe GUIDs resolve through insertion-time records, so inlined-away
    # (DFE'd) functions keep their identity in the metadata.
    binary.guid_to_name.update(module.probe_guid_names)

    profiled = any(m.entry_count is not None for m in lowered.values())
    order = list(lowered.values())
    if profiled:
        order.sort(key=lambda m: -(m.entry_count or 0.0))

    cursor = TEXT_BASE
    block_addr: Dict[Tuple[str, str], int] = {}

    def place(mfn: MFunction, blocks) -> Tuple[int, int]:
        nonlocal cursor
        start = cursor
        # Address assignment is reverse order independent: empty blocks share
        # the address of whatever comes next.
        pending_empty: List[str] = []
        for mblock in blocks:
            if not mblock.instrs:
                pending_empty.append(mblock.label)
                continue
            for label in pending_empty:
                block_addr[(mfn.name, label)] = cursor
            pending_empty.clear()
            block_addr[(mfn.name, mblock.label)] = cursor
            for minstr in mblock.instrs:
                minstr.addr = cursor
                binary.instrs.append(minstr)
                cursor += minstr.size
        for label in pending_empty:
            block_addr[(mfn.name, label)] = cursor
        return start, cursor

    # Hot text.
    for mfn in order:
        symbol = FunctionSymbol(mfn.name, mfn.guid)
        symbol.params = list(mfn.params)
        symbol.local_arrays = dict(mfn.local_arrays)
        symbol.entry_count = mfn.entry_count
        start, end = place(mfn, mfn.hot_blocks())
        symbol.entry_addr = start
        symbol.hot_range = (start, end)
        binary.symbols[mfn.name] = symbol
        binary.guid_to_name[mfn.guid] = mfn.name
    # Cold text, far after everything hot.
    for mfn in order:
        cold = mfn.cold_blocks()
        if not cold:
            continue
        start, end = place(mfn, cold)
        if start != end:
            binary.symbols[mfn.name].cold_range = (start, end)

    binary.text_size = cursor - TEXT_BASE

    # Resolve branch targets.
    for mfn in order:
        for mblock in mfn.blocks:
            for minstr in mblock.instrs:
                if minstr.kind in ("jmp", "br"):
                    minstr.target_addr = block_addr[(mfn.name, minstr.target)]
                elif minstr.kind in ("call", "tailcall"):
                    minstr.target_addr = binary.symbols[minstr.a].entry_addr
        binary.symbols[mfn.name].num_instrs = len(mfn.instructions())

    binary._addrs = [i.addr for i in binary.instrs]
    binary._addr_to_index = {addr: i for i, addr in enumerate(binary._addrs)}
    ranges = []
    for symbol in binary.symbols.values():
        ranges.append((symbol.hot_range[0], symbol.hot_range[1], symbol.name))
        if symbol.cold_range is not None:
            ranges.append((symbol.cold_range[0], symbol.cold_range[1],
                           symbol.name))
    binary._ranges = sorted(ranges)
    return binary
