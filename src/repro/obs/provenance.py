"""Provenance manifests: which binary, which samples, which faults — for
every generated profile.

A production PGO service must answer "where did this profile come from and
can I trust it?" without re-running anything.  The manifest is that answer,
written alongside the profile text (``<profile>.manifest.json``):

* **binary identity** — :meth:`repro.codegen.binary.Binary.identity` of the
  profiled build, plus the identity stamped on the sample session;
* **perf lineage** — sample counts (total/unique/dedup ratio), PMU config,
  instructions retired, iteration count;
* **fault lineage** — the fault spec (if any) and the ground-truth
  injection digest, so corrupted-on-purpose profiles are self-describing;
* **fallback chain** — every degradation hop with its reason;
* **drop accounting** — ``correlate.drop.* / annotate.drop.* /
  profile.drop.*`` totals attributable to this profile;
* **quality** — scores from :mod:`repro.quality.overlap` (trim fidelity:
  block overlap of the final profile against its pre-trim form);
* **profile stats** — records / total samples / size / context depth.

``repro validate --manifest`` cross-checks a profile against its manifest;
``repro report`` renders the manifests carried by ``profile_generated``
events as the provenance table.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from ..profile.profiles import ContextProfile, FlatProfile
from ..quality.overlap import block_overlap_program

MANIFEST_SCHEMA_VERSION = 1

#: Manifest file naming convention, shared by writer and readers.
MANIFEST_SUFFIX = ".manifest.json"

Profile = Union[FlatProfile, ContextProfile]


def manifest_path_for(profile_path: str) -> str:
    return profile_path + MANIFEST_SUFFIX


def profile_block_counts(profile: Profile) -> Dict[str, Dict[str, float]]:
    """Flatten a profile to ``{function: {body key: count}}``.

    Context profiles aggregate every context onto its leaf function, which
    makes pre-trim and post-trim profiles directly comparable with the
    block-overlap metric regardless of how contexts were merged.
    """
    out: Dict[str, Dict[str, float]] = {}
    if isinstance(profile, ContextProfile):
        records = profile.contexts.values()
    else:
        records = profile.functions.values()
    for samples in records:
        counts = out.setdefault(samples.name, {})
        for key, count in samples.body.items():
            label = str(key)
            counts[label] = counts.get(label, 0.0) + count
    return out


def trim_overlap_score(raw_counts: Dict[str, Dict[str, float]],
                       profile: Profile) -> float:
    """Block overlap D(P) of the final (trimmed) profile vs its raw form."""
    return block_overlap_program(profile_block_counts(profile), raw_counts)


class ProfileManifest:
    """Everything known about one generated profile's origin."""

    def __init__(self, *,
                 variant: str,
                 kind: str,
                 binary_identity: Optional[str] = None,
                 perf: Optional[Dict[str, Any]] = None,
                 faults: Optional[Dict[str, Any]] = None,
                 fallbacks: Optional[List[Dict[str, str]]] = None,
                 drops: Optional[Dict[str, int]] = None,
                 quality: Optional[Dict[str, float]] = None,
                 profile_stats: Optional[Dict[str, float]] = None,
                 created_at: Optional[float] = None,
                 shards: Optional[List[Dict[str, Any]]] = None):
        self.schema_version = MANIFEST_SCHEMA_VERSION
        self.variant = variant
        self.kind = kind  # dwarf | probe | context | instr
        self.binary_identity = binary_identity
        self.perf: Dict[str, Any] = perf or {}
        self.faults: Dict[str, Any] = faults or {}
        #: [{"from": variant, "to": variant, "reason": str}, ...]
        self.fallbacks: List[Dict[str, str]] = fallbacks or []
        self.drops: Dict[str, int] = drops or {}
        self.quality: Dict[str, float] = quality or {}
        self.profile_stats: Dict[str, float] = profile_stats or {}
        self.created_at = created_at
        #: Per-shard provenance, in shard order: ``[{"shard": i,
        #: "samples": n, "used": n, "broken": n, "unique": n,
        #: "dropped": {reason: n}}, ...]``.  Profile generation is serial
        #: and writes none; manifests from older sharded runs or outside
        #: tools may carry it, and :meth:`shard_accounting_consistent`
        #: audits it.  The field is additive, so schema version 1 stands.
        self.shards: List[Dict[str, Any]] = shards or []

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "variant": self.variant,
            "kind": self.kind,
            "binary_identity": self.binary_identity,
            "perf": dict(self.perf),
            "faults": dict(self.faults),
            "fallbacks": [dict(hop) for hop in self.fallbacks],
            "drops": dict(self.drops),
            "quality": dict(self.quality),
            "profile_stats": dict(self.profile_stats),
            "created_at": self.created_at,
            "shards": [dict(shard) for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ProfileManifest":
        version = record.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema version {version!r} "
                f"(expected {MANIFEST_SCHEMA_VERSION})")
        for field in ("variant", "kind"):
            if not isinstance(record.get(field), str):
                raise ValueError(f"manifest missing required field {field!r}")
        return cls(
            variant=record["variant"],
            kind=record["kind"],
            binary_identity=record.get("binary_identity"),
            perf=dict(record.get("perf") or {}),
            faults=dict(record.get("faults") or {}),
            fallbacks=[dict(hop) for hop in record.get("fallbacks") or []],
            drops=dict(record.get("drops") or {}),
            quality=dict(record.get("quality") or {}),
            profile_stats=dict(record.get("profile_stats") or {}),
            created_at=record.get("created_at"),
            shards=[dict(shard) for shard in record.get("shards") or []],
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "ProfileManifest":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- consistency --------------------------------------------------------
    def drop_accounting_consistent(self) -> bool:
        """``used + dropped == total`` over the correlate stage, when the
        manifest carries sample accounting at all."""
        total = self.perf.get("samples")
        used = self.perf.get("samples_used")
        if total is None or used is None:
            return True
        dropped = sum(count for name, count in self.drops.items()
                      if name.startswith("correlate.drop."))
        return used + dropped == total

    def shard_accounting_consistent(self) -> bool:
        """Summed per-shard accounting must equal the merged profile's.

        For every drop reason, the per-shard deltas must sum to the merged
        drop accounting, and per-shard total/used sample counts must sum
        to the manifest's ``perf`` tallies — partitioning is exact, so any
        discrepancy means a shard was lost, double-merged, or mislabeled.
        Vacuously true for unsharded manifests.
        """
        if not self.shards:
            return True
        summed: Dict[str, int] = {}
        total = used = 0
        for shard in self.shards:
            total += int(shard.get("samples", 0))
            used += int(shard.get("used", 0))
            for reason, count in (shard.get("dropped") or {}).items():
                key = f"correlate.drop.{reason}"
                summed[key] = summed.get(key, 0) + int(count)
        merged = {name: count for name, count in self.drops.items()
                  if name.startswith("correlate.drop.")}
        if summed != merged:
            return False
        if (self.perf.get("samples") is not None
                and total != self.perf["samples"]):
            return False
        if (self.perf.get("samples_used") is not None
                and used != self.perf["samples_used"]):
            return False
        return True

    def __repr__(self) -> str:
        return (f"<ProfileManifest {self.variant}/{self.kind} "
                f"binary={self.binary_identity} "
                f"fallbacks={len(self.fallbacks)}>")
