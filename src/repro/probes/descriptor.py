"""Probe descriptors: the per-function probe inventory.

At insertion time every function gets a :class:`FunctionProbeDescriptor`
recording which probe ids exist, which are block probes vs call-site probes,
and the CFG checksum at insertion time.  Profile generation and profile
annotation both consult descriptors: the former to know what a raw probe id
means, the latter to detect stale profiles via checksum mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class ProbeKind:
    BLOCK = "block"
    CALL = "call"


class ProbeDesc:
    """Descriptor of one probe: id, kind, and home block at insertion time."""

    __slots__ = ("probe_id", "kind", "block_label", "callee")

    def __init__(self, probe_id: int, kind: str, block_label: str,
                 callee: Optional[str] = None):
        self.probe_id = probe_id
        self.kind = kind
        self.block_label = block_label
        self.callee = callee

    def __repr__(self) -> str:
        target = f" -> {self.callee}" if self.callee else ""
        return f"<Probe {self.probe_id} {self.kind} @{self.block_label}{target}>"


class FunctionProbeDescriptor:
    """All probes of one function plus its insertion-time CFG checksum."""

    def __init__(self, name: str, guid: int, checksum: int):
        self.name = name
        self.guid = guid
        self.checksum = checksum
        self.probes: Dict[int, ProbeDesc] = {}

    def add(self, desc: ProbeDesc) -> None:
        self.probes[desc.probe_id] = desc

    def call_probes(self) -> List[ProbeDesc]:
        return [p for p in self.probes.values() if p.kind == ProbeKind.CALL]

    def __repr__(self) -> str:
        return f"<FunctionProbeDescriptor {self.name} ({len(self.probes)} probes)>"


class ProbeDescriptorTable:
    """Module-wide descriptor registry, keyed by function GUID and name."""

    def __init__(self) -> None:
        self.by_guid: Dict[int, FunctionProbeDescriptor] = {}
        self.by_name: Dict[str, FunctionProbeDescriptor] = {}

    def add(self, desc: FunctionProbeDescriptor) -> None:
        self.by_guid[desc.guid] = desc
        self.by_name[desc.name] = desc

    def get_by_name(self, name: str) -> Optional[FunctionProbeDescriptor]:
        return self.by_name.get(name)
