"""Deterministic fault injectors for every profile-pipeline boundary.

Four injector kinds — three per boundary the *data* pipeline crosses, one
for the *operational* plane of the fleet service:

* ``perf`` — corrupt raw :class:`~repro.hw.perf_data.PerfData` before
  profile generation (truncated LBR rings, dropped/duplicated samples,
  out-of-range addresses, shuffled stack frames);
* ``profile`` — corrupt a generated :class:`~repro.profile.profiles`
  object before application (stale checksums, missing/extra probes,
  counter overflow, GUID collisions / moved functions, mutated inline
  trees — the "profile from a different build" family);
* ``text`` — corrupt the serialized text encoding before loading
  (malformed lines: bit-rot, truncation splices);
* ``fleet`` — operational failures of the continuous-profiling fleet
  service (DESIGN.md sec. 15): crashed and hung collection workers, slow
  collections that blow task deadlines, collection results lost in
  flight, and
  clock-skewed generation timestamps.  Fleet injectors have no data-plane
  hook — they are *decision points* the fleet orchestrator draws through
  :class:`~repro.fleet.faults.FaultPlane`, from the same per-injector
  seeded streams, so every retry/degradation path has a replayable
  trigger.

Every injector draws from a :class:`random.Random` seeded per
``(spec seed, injector name)``, so a spec replays identically, and records
what it touched in an :class:`InjectionReport` — the ground truth the fuzz
tests reconcile drop counters against (exact accounting).

Injectors never mutate their input: ``apply_perf_faults`` /
``apply_profile_faults`` / ``apply_text_faults`` copy first, corrupt the
copy, and hand it back with the report.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List, Optional, Tuple, Union

from .. import obs
from ..codegen.binary import TEXT_BASE
from ..hw.perf_data import PerfData, PerfSample
from ..profile.profiles import ContextProfile, FlatProfile
from .spec import FaultSpec

Profile = Union[FlatProfile, ContextProfile]


class InjectionReport:
    """What a fault application actually did, per injector and metric."""

    def __init__(self) -> None:
        #: (injector name, metric) -> count.
        self.events: Counter = Counter()

    def add(self, injector: str, metric: str, n: int = 1) -> None:
        self.events[(injector, metric)] += n

    def get(self, injector: str, metric: str) -> int:
        return self.events.get((injector, metric), 0)

    def total(self, metric: Optional[str] = None) -> int:
        """Event count across injectors — for one metric, or all of them."""
        if metric is None:
            return sum(self.events.values())
        return sum(count for (_inj, m), count in self.events.items()
                   if m == metric)

    def __repr__(self) -> str:
        body = ", ".join(f"{inj}.{metric}={count}"
                         for (inj, metric), count in sorted(self.events.items()))
        return f"<InjectionReport {body or 'clean'}>"


class Injector:
    """One named corruption; subclasses override one ``apply_*`` hook."""

    name = ""
    kind = ""  # "perf" | "profile" | "text"

    def apply_perf(self, rng: random.Random, data: PerfData,
                   intensity: float, report: InjectionReport) -> None:
        raise NotImplementedError

    def apply_profile(self, rng: random.Random, profile: Profile,
                      intensity: float, report: InjectionReport) -> None:
        raise NotImplementedError

    def apply_text(self, rng: random.Random, text: str,
                   intensity: float, report: InjectionReport) -> str:
        raise NotImplementedError


def _out_of_range_addr(rng: random.Random) -> int:
    """An address guaranteed to lie below the text section."""
    return rng.randint(0x1000, TEXT_BASE - 1)


# ---------------------------------------------------------------------------
# perf-data injectors
# ---------------------------------------------------------------------------


class TruncateLBR(Injector):
    """Truncated LBR rings: keep only the newest entries of a sample's ring
    (what a mid-record collection cutoff produces)."""

    name = "truncate_lbr"
    kind = "perf"

    def apply_perf(self, rng, data, intensity, report):
        for i, sample in enumerate(data.samples):
            if not sample.lbr or rng.random() >= intensity:
                continue
            keep = rng.randint(0, len(sample.lbr) - 1)
            lbr = sample.lbr[len(sample.lbr) - keep:]
            data.samples[i] = PerfSample(lbr, sample.stack, sample.ip)
            report.add(self.name, "samples_truncated")
            if not lbr:
                report.add(self.name, "samples_emptied")


class DropSamples(Injector):
    """Dropped samples: the kernel ran out of ring-buffer space."""

    name = "drop_samples"
    kind = "perf"

    def apply_perf(self, rng, data, intensity, report):
        kept: List[PerfSample] = []
        for sample in data.samples:
            if rng.random() < intensity:
                report.add(self.name, "samples_dropped")
            else:
                kept.append(sample)
        data.samples[:] = kept


class DuplicateSamples(Injector):
    """Duplicated samples: replayed ring-buffer pages double-count payloads."""

    name = "dup_samples"
    kind = "perf"

    def apply_perf(self, rng, data, intensity, report):
        duplicates: List[PerfSample] = []
        for sample in data.samples:
            if rng.random() < intensity:
                duplicates.append(sample)
                report.add(self.name, "samples_duplicated")
        data.samples.extend(duplicates)


class CorruptAddresses(Injector):
    """Out-of-range addresses: every LBR entry and stack frame of a hit
    sample points outside the binary (JIT pages, vdso, a different build)."""

    name = "corrupt_addrs"
    kind = "perf"

    def apply_perf(self, rng, data, intensity, report):
        for i, sample in enumerate(data.samples):
            if rng.random() >= intensity:
                continue
            lbr = tuple((_out_of_range_addr(rng), _out_of_range_addr(rng))
                        for _ in sample.lbr)
            stack = tuple(_out_of_range_addr(rng) for _ in sample.stack)
            data.samples[i] = PerfSample(lbr, stack, sample.ip)
            report.add(self.name, "samples_corrupted")
            if not lbr:
                report.add(self.name, "samples_corrupted_empty_lbr")


class ShuffleStack(Injector):
    """Shuffled stack frames: a torn stack walk delivers frames out of
    order (degrades context reconstruction, must never crash it)."""

    name = "shuffle_stack"
    kind = "perf"

    def apply_perf(self, rng, data, intensity, report):
        for i, sample in enumerate(data.samples):
            if len(sample.stack) < 2 or rng.random() >= intensity:
                continue
            stack = list(sample.stack)
            rng.shuffle(stack)
            data.samples[i] = PerfSample(sample.lbr, tuple(stack), sample.ip)
            report.add(self.name, "stacks_shuffled")


# ---------------------------------------------------------------------------
# profile injectors
# ---------------------------------------------------------------------------


def _profile_records(profile: Profile):
    """(key, FunctionSamples) pairs in deterministic order for either kind."""
    if isinstance(profile, ContextProfile):
        return sorted(profile.contexts.items(), key=lambda kv: str(kv[0]))
    return sorted(profile.functions.items())


class StaleChecksum(Injector):
    """Stale function bodies: the recorded CFG checksum no longer matches
    the IR (source drift between profiling build and this build)."""

    name = "stale_checksum"
    kind = "profile"

    def apply_profile(self, rng, profile, intensity, report):
        for _key, samples in _profile_records(profile):
            if samples.checksum is None or rng.random() >= intensity:
                continue
            # XOR with an odd value always flips the low bit: guaranteed stale.
            samples.checksum ^= rng.getrandbits(32) | 1
            report.add(self.name, "checksums_staled")


class MissingProbes(Injector):
    """Missing probes: body entries vanished (trimmed, truncated, or from
    a build whose probe universe shrank)."""

    name = "missing_probes"
    kind = "profile"

    def apply_profile(self, rng, profile, intensity, report):
        for _key, samples in _profile_records(profile):
            for key in sorted(samples.body, key=str):
                if rng.random() < intensity:
                    del samples.body[key]
                    report.add(self.name, "probes_removed")
            samples.finalize()


class ExtraProbes(Injector):
    """Extra probes: body entries for probe ids this build never placed
    (a build whose probe universe grew, or plain corruption)."""

    name = "extra_probes"
    kind = "profile"

    def apply_profile(self, rng, profile, intensity, report):
        for _key, samples in _profile_records(profile):
            if rng.random() >= intensity:
                continue
            dwarf_keys = any(isinstance(k, tuple) for k in samples.body)
            for n in range(rng.randint(1, 3)):
                bogus = 100_000 + rng.randint(0, 999)
                key = (bogus, 0) if dwarf_keys else bogus
                samples.body[key] = float(rng.randint(1, 1000))
                report.add(self.name, "probes_added")
            samples.finalize()


class CounterOverflow(Injector):
    """Counter overflow: counts blown up to 2^63-scale values (wrapped
    accumulators); consumers must keep summing/scaling without crashing."""

    name = "counter_overflow"
    kind = "profile"

    def apply_profile(self, rng, profile, intensity, report):
        for _key, samples in _profile_records(profile):
            if not samples.body or rng.random() >= intensity:
                continue
            for key in samples.body:
                samples.body[key] = float(2 ** 63) + samples.body[key]
            samples.head = float(2 ** 63) + samples.head
            samples.finalize()
            report.add(self.name, "counters_overflowed")


class GuidCollision(Injector):
    """Profile from a different build: records renamed onto other functions
    (GUID collision) or onto names this binary does not have (moved/renamed
    functions -> unknown GUIDs)."""

    name = "guid_collision"
    kind = "profile"

    def apply_profile(self, rng, profile, intensity, report):
        if isinstance(profile, ContextProfile):
            for key, samples in _profile_records(profile):
                if key not in profile.contexts or rng.random() >= intensity:
                    continue
                samples = profile.contexts.pop(key)
                leaf, site = key[-1]
                new_key = key[:-1] + ((f"__moved_{leaf}", site),)
                samples.name = f"__moved_{leaf}"
                existing = profile.contexts.get(new_key)
                if existing is None:
                    profile.contexts[new_key] = samples
                else:
                    existing.merge(samples)
                report.add(self.name, "records_moved")
            return
        for name, _samples in _profile_records(profile):
            if name not in profile.functions or rng.random() >= intensity:
                continue
            samples = profile.functions.pop(name)
            others = sorted(n for n in profile.functions)
            if others and rng.random() < 0.5:
                target = rng.choice(others)  # collision: merge into victim
                profile.functions[target].merge(samples)
                report.add(self.name, "records_collided")
            else:
                samples.name = f"__moved_{name}"
                profile.functions[samples.name] = samples
                report.add(self.name, "records_moved")


class MutateInlineTree(Injector):
    """Changed inline trees: a caller frame removed from a context key, the
    shape a different build's inliner would have produced.  No-op on flat
    profiles (they have no contexts)."""

    name = "mutate_inline_tree"
    kind = "profile"

    def apply_profile(self, rng, profile, intensity, report):
        if not isinstance(profile, ContextProfile):
            return
        for key, _samples in _profile_records(profile):
            if (len(key) < 2 or key not in profile.contexts
                    or rng.random() >= intensity):
                continue
            samples = profile.contexts.pop(key)
            drop_at = rng.randrange(len(key) - 1)  # never the leaf
            new_key = key[:drop_at] + key[drop_at + 1:]
            existing = profile.contexts.get(new_key)
            if existing is None:
                profile.contexts[new_key] = samples
            else:
                existing.merge(samples)
            report.add(self.name, "contexts_mutated")


# ---------------------------------------------------------------------------
# fleet (operational) injectors
# ---------------------------------------------------------------------------


class FleetInjector(Injector):
    """Operational injector: a named, seeded decision point of the fleet
    orchestrator rather than a data corruption.

    Intensity is the per-decision firing probability (per busy worker per
    tick for crash/hang, per task start for slow collections, per
    generation for lost results and clock skew).  The orchestrator draws
    from the spec's per-injector stream (:meth:`FaultSpec.rng_for`) in
    deterministic simulation order — same spec, same fleet seed, same
    failures, tick for tick.
    """

    kind = "fleet"
    #: One-line description of when the orchestrator consults the injector.
    decision = ""


class WorkerCrash(FleetInjector):
    """Collection worker dies mid-task: its task is orphaned and must be
    re-queued exactly once by crash recovery; the supervisor respawns a
    replacement worker."""

    name = "worker_crash"
    decision = "per busy worker per tick"


class WorkerHang(FleetInjector):
    """Collection worker wedges: heartbeats stop while the task neither
    progresses nor fails, until hang detection cancels it cooperatively."""

    name = "worker_hang"
    decision = "per busy worker per tick"


class SlowCollection(FleetInjector):
    """Collection runs several times slower than planned (loaded host,
    throttled PMU) — the way per-task deadlines actually get exceeded."""

    name = "slow_collection"
    decision = "per task start"


class DropShardResult(FleetInjector):
    """The collection result is lost in flight, so the whole collection
    attempt fails and retries."""

    name = "drop_shard"
    decision = "per profile generation"


class ClockSkew(FleetInjector):
    """Generation timestamp skewed against the fleet clock (NTP drift on
    the collection host): freshness-window decisions see the wrong age."""

    name = "clock_skew"
    decision = "per profile generation"


# ---------------------------------------------------------------------------
# text injectors
# ---------------------------------------------------------------------------


class MalformedText(Injector):
    """Malformed text-format lines: body lines replaced with junk that can
    never parse (bit-rot / splice damage in a stored profile)."""

    name = "malformed_text"
    kind = "text"

    def apply_text(self, rng, text, intensity, report):
        out: List[str] = []
        for line in text.splitlines():
            if line.startswith(" ") and line.strip() \
                    and rng.random() < intensity:
                out.append(" @@corrupt@@: not-a-count")
                report.add(self.name, "lines_corrupted")
            else:
                out.append(line)
        return "\n".join(out) + ("\n" if text.endswith("\n") else "")


#: Registry of every injector, by name — the fault taxonomy.
INJECTORS = {injector.name: injector for injector in [
    TruncateLBR(), DropSamples(), DuplicateSamples(), CorruptAddresses(),
    ShuffleStack(),
    StaleChecksum(), MissingProbes(), ExtraProbes(), CounterOverflow(),
    GuidCollision(), MutateInlineTree(),
    MalformedText(),
    WorkerCrash(), WorkerHang(), SlowCollection(), DropShardResult(),
    ClockSkew(),
]}


# ---------------------------------------------------------------------------
# application entry points (copy, corrupt the copy, report)
# ---------------------------------------------------------------------------


def clone_perf_data(data: PerfData) -> PerfData:
    """Shallow-per-sample copy: injectors replace sample objects wholesale,
    so sharing the (immutable-payload) samples is safe."""
    copy = PerfData(data.period, data.lbr_depth, data.pebs)
    copy.samples = list(data.samples)
    copy.instructions_retired = data.instructions_retired
    copy.binary_id = data.binary_id
    return copy


def clone_profile(profile: Profile) -> Profile:
    if isinstance(profile, ContextProfile):
        copy = ContextProfile()
        copy.contexts = {key: samples.clone()
                         for key, samples in profile.contexts.items()}
        return copy
    copy = FlatProfile(profile.kind)
    copy.functions = {name: samples.clone()
                      for name, samples in profile.functions.items()}
    return copy


def _emit_injected(kind: str, report: InjectionReport,
                   total_before: int) -> None:
    """Record what this application pass actually corrupted (the report may
    arrive pre-populated from an earlier pass, so emit the delta)."""
    delta = report.total() - total_before
    if delta:
        obs.emit("faults_injected", kind=kind, count=delta)


def apply_perf_faults(data: PerfData, spec: Optional[FaultSpec],
                      report: Optional[InjectionReport] = None
                      ) -> Tuple[PerfData, InjectionReport]:
    """Apply the spec's perf-data injectors to a copy of ``data``."""
    report = report if report is not None else InjectionReport()
    if spec is None:
        return data, report
    entries = spec.entries_of_kind("perf")
    if not entries:
        return data, report
    data = clone_perf_data(data)
    total_before = report.total()
    for name, intensity in entries:
        INJECTORS[name].apply_perf(spec.rng_for(name), data, intensity,
                                   report)
    _emit_injected("perf", report, total_before)
    return data, report


def apply_profile_faults(profile: Profile, spec: Optional[FaultSpec],
                         report: Optional[InjectionReport] = None
                         ) -> Tuple[Profile, InjectionReport]:
    """Apply the spec's profile injectors to a copy of ``profile``."""
    report = report if report is not None else InjectionReport()
    if spec is None:
        return profile, report
    entries = spec.entries_of_kind("profile")
    if not entries:
        return profile, report
    profile = clone_profile(profile)
    total_before = report.total()
    for name, intensity in entries:
        INJECTORS[name].apply_profile(spec.rng_for(name), profile, intensity,
                                      report)
    _emit_injected("profile", report, total_before)
    return profile, report


def apply_text_faults(text: str, spec: Optional[FaultSpec],
                      report: Optional[InjectionReport] = None
                      ) -> Tuple[str, InjectionReport]:
    """Apply the spec's text injectors to the serialized profile text."""
    report = report if report is not None else InjectionReport()
    if spec is None:
        return text, report
    total_before = report.total()
    for name, intensity in spec.entries_of_kind("text"):
        text = INJECTORS[name].apply_text(spec.rng_for(name), text,
                                          intensity, report)
    _emit_injected("text", report, total_before)
    return text, report
