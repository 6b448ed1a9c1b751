"""Sample loaders: per-variant profile application.

* :func:`annotate_autofdo` — DWARF line matching + Profi inference (the
  profile-guided bottom-up inliner then runs inside the optimization
  pipeline with context-insensitive count scaling — Fig. 3a behaviour);
* :func:`annotate_probe_flat` — probe-id matching with checksum
  verification + inference (probe-only CSSPGO);
* :func:`csspgo_sample_loader` — full CSSPGO: walks functions in the call
  graph's top-down order, annotates each from its base context, replays the
  pre-inliner's persisted ``ShouldBeInlined`` decisions by actually inlining
  those call sites, and annotates every inlined body from its context
  profile slice — accurate post-inline profile (Fig. 3b behaviour);
* :func:`annotate_instr` — exact counter profile (ground-truth correlation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..inference.flow import infer_module_counts
from ..ir.function import Function, Module
from ..ir.instructions import Call, PseudoProbe
from ..opt.inliner import (CALLER_SIZE_LIMIT, bottom_up_order,
                           function_size, inline_call)
from ..opt.pass_manager import OptConfig
from ..probes.instrumentation import InstrumentationMap
from ..profile.context import ContextKey, base_context
from ..profile.function_samples import ATTR_SHOULD_INLINE, FunctionSamples
from ..profile.profiles import ContextProfile, FlatProfile
from ..profile.summary import ProfileSummary
from .matcher import (ChecksumMismatch, annotate_function_dwarf,
                      annotate_function_probe, fold_discriminators)


class AnnotationStats:
    """What happened during profile application (drift diagnostics etc.)."""

    def __init__(self) -> None:
        self.annotated: List[str] = []
        self.rejected_checksum: List[str] = []
        self.no_profile: List[str] = []
        self.inlined_contexts: List[ContextKey] = []

    def usable(self, profile_nonempty: bool) -> bool:
        """Did the profile annotate *anything*?  ``False`` with a non-empty
        profile means every function was rejected or unmatched — the signal
        the driver's degradation chain acts on."""
        return bool(self.annotated) or not profile_nonempty

    def __repr__(self) -> str:
        return (f"<AnnotationStats annotated={len(self.annotated)} "
                f"rejected={len(self.rejected_checksum)} "
                f"static={len(self.no_profile)} "
                f"cs_inlined={len(self.inlined_contexts)}>")


def _reject_checksum(stats: AnnotationStats, name: str, strict: bool,
                     exc: ChecksumMismatch) -> None:
    """Permissive mode: drop one function's profile, count it, carry on.
    Strict mode: surface the typed error."""
    if strict:
        raise exc
    telemetry.count("annotate", "checksum_rejected_functions")
    telemetry.count("annotate.drop", "checksum_mismatch")
    telemetry.emit("samples_dropped", stage="annotate",
                   reason="checksum_mismatch", count=1, function=name)
    stats.rejected_checksum.append(name)


def annotate_autofdo(module: Module, profile: FlatProfile,
                     static_fill: bool = False) -> AnnotationStats:
    stats = AnnotationStats()
    heads: Dict[str, float] = {}
    for name, fn in module.functions.items():
        samples = profile.get(name)
        if samples is None or samples.total <= 0:
            stats.no_profile.append(name)
            continue
        annotate_function_dwarf(fn, samples)
        heads[name] = samples.head
        stats.annotated.append(name)
    infer_module_counts(module, heads, static_fill=static_fill)
    module.profile_summary = ProfileSummary.from_module(module)
    return stats


def annotate_probe_flat(module: Module, profile: FlatProfile,
                        strict: bool = False,
                        static_fill: bool = False) -> AnnotationStats:
    """Probe-only profile application with enforced checksum verification.

    Per-function fallback (permissive mode, the default): a function whose
    recorded checksum disagrees with the IR is dropped from the application
    — counted under ``annotate.drop.checksum_mismatch`` — and the rest of
    the profile still applies.  ``strict=True`` raises
    :class:`~repro.profile.errors.ProfileStaleError` instead.
    """
    stats = AnnotationStats()
    heads: Dict[str, float] = {}
    for name, fn in module.functions.items():
        samples = profile.get(name)
        if samples is None or samples.total <= 0:
            stats.no_profile.append(name)
            continue
        try:
            annotate_function_probe(fn, samples)
        except ChecksumMismatch as exc:
            _reject_checksum(stats, name, strict, exc)
            continue
        heads[name] = samples.head
        stats.annotated.append(name)
    infer_module_counts(module, heads, static_fill=static_fill)
    module.profile_summary = ProfileSummary.from_module(module)
    return stats


def annotate_instr(module: Module, counters: Dict[Tuple[str, int], float],
                   imap: InstrumentationMap) -> AnnotationStats:
    """Exact instrumentation counts: perfect correlation by construction."""
    stats = AnnotationStats()
    for name, fn in module.functions.items():
        num = imap.num_counters.get(name)
        if num is None:
            stats.no_profile.append(name)
            continue
        any_count = 0.0
        for counter_id, block in enumerate(fn.blocks):
            count = float(counters.get((name, counter_id), 0.0))
            block.count = count
            any_count += count
        fn.entry_count = fn.entry.count
        if any_count > 0:
            stats.annotated.append(name)
        else:
            stats.no_profile.append(name)
    module.profile_summary = ProfileSummary.from_module(module)
    return stats


def annotate_fs_autofdo_early(module: Module, profile: FlatProfile,
                              static_fill: bool = False) -> AnnotationStats:
    """FS-AutoFDO's first annotation: discriminators folded away (the fresh
    IR has none yet); drives inlining/unrolling like plain AutoFDO."""
    stats = AnnotationStats()
    heads: Dict[str, float] = {}
    for name, fn in module.functions.items():
        samples = profile.get(name)
        if samples is None or samples.total <= 0:
            stats.no_profile.append(name)
            continue
        annotate_function_dwarf(fn, fold_discriminators(samples))
        heads[name] = samples.head
        stats.annotated.append(name)
    infer_module_counts(module, heads, static_fill=static_fill)
    module.profile_summary = ProfileSummary.from_module(module)
    return stats


def annotate_fs_autofdo_late(module: Module, profile: FlatProfile) -> int:
    """FS-AutoFDO's late-stage annotation: after the optimizer duplicated
    code and FS discriminators were assigned, re-annotate the *optimized*
    CFG with full (line, discriminator) keys.  Inlined instructions look up
    the inlinee's own samples (dwarf profiles attribute by leaf function).
    Only works to the extent the profiling build's code generation matches
    this build's — the stability requirement of paper sec. IV.A."""
    annotated = 0
    heads: Dict[str, float] = {}
    for name, fn in module.functions.items():
        any_counts = False
        for block in fn.blocks:
            best = None
            for instr in block.instrs:
                if instr.dloc is None:
                    continue
                leaf = instr.dloc.leaf_function(name)
                samples = profile.get(leaf)
                if samples is None:
                    continue
                count = samples.body.get((instr.dloc.line,
                                          instr.dloc.discriminator))
                if count is not None and (best is None or count > best):
                    best = count
            block.count = best if best is not None else 0.0
            if best:
                any_counts = True
        samples = profile.get(name)
        if samples is not None and samples.total > 0:
            fn.entry_count = samples.head
            heads[name] = samples.head
        if any_counts:
            annotated += 1
    infer_module_counts(module, heads)
    module.profile_summary = ProfileSummary.from_module(module)
    return annotated


# ---------------------------------------------------------------------------
# Full CSSPGO top-down sample loader
# ---------------------------------------------------------------------------


def csspgo_sample_loader(module: Module, profile: ContextProfile,
                         config: Optional[OptConfig] = None,
                         strict: bool = False,
                         static_fill: bool = False) -> AnnotationStats:
    """Annotate + replay pre-inliner decisions, top-down.

    Requires a pre-inliner-transformed profile: surviving non-base contexts
    carry the ``ShouldBeInlined`` attribute (Algorithm 2 output).  The
    compiler honors the pre-inliner's decisions "when possible" (paper
    sec. III.B(b)): marks are dropped — and their context subtrees merged
    back into base profiles — when the compiler's own inline limits (callee
    size, caller growth, noinline, recursion, checksum) say no.
    """
    config = config or OptConfig()
    stats = AnnotationStats()
    heads: Dict[str, float] = {}
    order = list(reversed(bottom_up_order(module)))  # top-down
    for name in order:
        fn = module.function(name)
        base = profile.base(name)
        if base is None or base.total <= 0:
            if not profile.contexts_of(name):
                stats.no_profile.append(name)
                continue
        if base is not None:
            try:
                annotate_function_probe(fn, base)
            except ChecksumMismatch as exc:
                _reject_checksum(stats, name, strict, exc)
                continue
            heads[name] = base.head
            stats.annotated.append(name)
        _replay_inline_decisions(module, fn, profile, stats, config)
    infer_module_counts(module, heads, static_fill=static_fill)
    module.profile_summary = ProfileSummary.from_module(module)
    return stats


def _replay_inline_decisions(module: Module, fn: Function,
                             profile: ContextProfile,
                             stats: AnnotationStats,
                             config: OptConfig) -> None:
    """BFS over marked child contexts, inlining and annotating each."""
    # Worklist of (profile context, probe chain) pairs; the probe chain is
    # the (guid, probe_id) spelling of the context used to locate call sites
    # and cloned probes inside ``fn``.
    worklist: List[Tuple[ContextKey, tuple]] = [(base_context(fn.name), ())]
    while worklist:
        ctx_key, chain = worklist.pop()
        for child_key in profile.children_of(ctx_key):
            child = profile.contexts.get(child_key)
            if child is None or ATTR_SHOULD_INLINE not in child.attributes:
                continue
            caller_name, callsite_probe = child_key[-2]
            callee_name = child_key[-1][0]
            if not module.has_function(callee_name):
                continue
            callee = module.function(callee_name)
            checksum_ok = not (child.checksum is not None
                               and callee.probe_checksum is not None
                               and child.checksum != callee.probe_checksum)
            if not checksum_ok:
                telemetry.count("annotate", "checksum_rejected_inline_sites")
                telemetry.count("annotate.drop", "inline_site_checksum_mismatch")
                stats.rejected_checksum.append(f"{callee_name}@inline")
            # The compiler's own limits gate the pre-inliner's wish.
            within_limits = (function_size(callee) <= config.inline_hot_threshold
                             and function_size(fn) < CALLER_SIZE_LIMIT)
            site = (None if callee is fn or callee.noinline or not checksum_ok
                    or not within_limits
                    else _find_callsite(fn, chain, callsite_probe, callee_name))
            if site is None:
                # Cannot honor the pre-inliner's decision (noinline callee,
                # drifted checksum, or the call site no longer exists): the
                # callee stays outlined, so its context subtree is merged
                # back into the callee's standalone profile before that
                # function is annotated (it comes later in top-down order).
                telemetry.count("annotate", "preinline_decisions_dropped")
                profile.promote_subtree(child_key)
                continue
            block_label, call_index, call = site
            child_chain = call.probe_context()
            telemetry.count("annotate", "preinline_decisions_replayed")
            telemetry.remark(
                "sample-loader", "Inlined", fn.name,
                f"{callee_name} inlined into {fn.name} (pre-inliner "
                f"ShouldBeInlined replay, context depth {len(child_key)})",
                loc=call.dloc, callee=callee_name)
            inline_call(module, fn, block_label, call_index, count_scale=None)
            _annotate_cloned_blocks(fn, child_chain, child)
            stats.inlined_contexts.append(child_key)
            worklist.append((child_key, child_chain))


def _find_callsite(fn: Function, chain: tuple, callsite_probe: int,
                   callee_name: str):
    """Locate the call whose probe context is ``chain + (fn-or-inlinee,
    callsite_probe)`` and whose callee matches."""
    for block in fn.blocks:
        for idx, instr in enumerate(block.instrs):
            if not isinstance(instr, Call) or instr.callee != callee_name:
                continue
            if instr.probe_id != callsite_probe:
                continue
            if instr.inline_probe_stack != chain:
                continue
            return block.label, idx, instr
    return None


def _annotate_cloned_blocks(fn: Function, child_chain: tuple,
                            child: FunctionSamples) -> None:
    """Set counts on blocks whose probes came from this inlined context."""
    for block in fn.blocks:
        for instr in block.instrs:
            if (isinstance(instr, PseudoProbe)
                    and instr.inline_stack == child_chain):
                if instr.probe_id in child.dangling:
                    block.count = None
                else:
                    block.count = child.body.get(instr.probe_id, 0.0)
                break
