"""Profile containers for every PGO variant.

* :class:`FlatProfile` — one :class:`FunctionSamples` per function.  Used by
  AutoFDO (body keyed by (line, discriminator)), probe-only CSSPGO (body keyed
  by probe id), and instrumentation PGO (exact block counts keyed by probe
  id of the counter's block).
* :class:`ContextProfile` — one record per *calling context* (full CSSPGO).
  Contexts form a trie; ``base`` lookups and prefix queries support the
  pre-inliner and the sample loader.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .context import (ContextKey, base_context, format_context, is_prefix,
                      leaf_function)
from .function_samples import FunctionSamples


class FlatProfile:
    """Context-insensitive profile: function name -> samples."""

    #: body-key kinds
    KIND_DWARF = "dwarf"
    KIND_PROBE = "probe"
    KIND_INSTR = "instr"

    def __init__(self, kind: str):
        self.kind = kind
        self.functions: Dict[str, FunctionSamples] = {}

    def get_or_create(self, name: str) -> FunctionSamples:
        samples = self.functions.get(name)
        if samples is None:
            samples = FunctionSamples(name)
            self.functions[name] = samples
        return samples

    def get(self, name: str) -> Optional[FunctionSamples]:
        return self.functions.get(name)

    def finalize(self) -> None:
        for samples in self.functions.values():
            samples.finalize()

    def total_samples(self) -> float:
        return sum(s.total for s in self.functions.values())

    def merge(self, other: "FlatProfile") -> None:
        """Accumulate another flat profile's counts into this one.

        Only *additive* kinds merge: body counts of probe and instr profiles
        are plain sums, so merging partials of any partition reproduces the
        unpartitioned profile exactly.  DWARF profiles are refused — their
        max-heuristic body counts are not additive (a max of partial sums is
        not the max of the total).

        ``other`` is never mutated; records it alone carries are cloned in.
        """
        if self.kind != other.kind:
            raise ValueError(
                f"cannot merge {other.kind!r} profile into {self.kind!r} "
                f"profile")
        if self.kind == FlatProfile.KIND_DWARF:
            raise ValueError(
                "DWARF profiles do not merge: the max-heuristic is not "
                "additive")
        for name, samples in other.functions.items():
            existing = self.functions.get(name)
            if existing is None:
                self.functions[name] = samples.clone()
            else:
                if existing.checksum is None:
                    existing.checksum = samples.checksum
                existing.attributes |= samples.attributes
                existing.merge(samples)

    def __repr__(self) -> str:
        return f"<FlatProfile {self.kind} ({len(self.functions)} functions)>"


class ContextProfile:
    """Context-sensitive probe profile: context key -> samples."""

    def __init__(self) -> None:
        self.contexts: Dict[ContextKey, FunctionSamples] = {}

    def get_or_create(self, context: ContextKey) -> FunctionSamples:
        samples = self.contexts.get(context)
        if samples is None:
            samples = FunctionSamples(leaf_function(context))
            self.contexts[context] = samples
        return samples

    def get(self, context: ContextKey) -> Optional[FunctionSamples]:
        return self.contexts.get(context)

    def base(self, function_name: str) -> Optional[FunctionSamples]:
        return self.contexts.get(base_context(function_name))

    def contexts_of(self, function_name: str) -> List[ContextKey]:
        """All context keys whose leaf is ``function_name``."""
        return [ctx for ctx in self.contexts
                if leaf_function(ctx) == function_name]

    def children_of(self, context: ContextKey) -> List[ContextKey]:
        """Direct child contexts, *including implied ones*.

        A child may have no record of its own (its counts were trimmed into
        a base profile) while deeper descendants survive; such intermediate
        trie nodes are synthesized from the descendants' key prefixes so
        consumers (the pre-inliner, the sample loader) can still walk the
        trie edge by edge.
        """
        depth = len(context)
        children = set()
        for ctx in self.contexts:
            if len(ctx) <= depth or not is_prefix(context, ctx):
                continue
            prefix = ctx[:depth + 1]
            if len(ctx) > depth + 1:
                # Normalize the implied leaf frame: clear its callsite slot.
                prefix = prefix[:-1] + ((prefix[-1][0], None),)
            children.add(prefix)
        return sorted(children, key=format_context)

    def subtree_of(self, context: ContextKey) -> List[ContextKey]:
        """``context`` itself plus every deeper context beneath it."""
        return [ctx for ctx in self.contexts if is_prefix(context, ctx)]

    def subtree_total(self, context: ContextKey) -> float:
        """Total samples of a context and everything inlined beneath it."""
        return sum(self.contexts[c].total for c in self.subtree_of(context))

    def promote_subtree(self, context: ContextKey) -> None:
        """Re-root ``context`` and its subtree at the leaf function's base.

        This is the paper's ``MoveContextProfileToBaseProfile`` generalized
        to whole subtrees: when a context is *not* inlined into its caller,
        its samples — and the relative structure beneath it — belong to the
        callee's standalone copy.
        """
        strip = len(context) - 1
        if strip <= 0:
            return
        for ctx in self.subtree_of(context):
            samples = self.contexts.pop(ctx)
            new_key = ctx[strip:]
            existing = self.contexts.get(new_key)
            if existing is None:
                self.contexts[new_key] = samples
            else:
                existing.attributes |= samples.attributes
                existing.merge(samples)

    def finalize(self) -> None:
        for samples in self.contexts.values():
            samples.finalize()

    def total_samples(self) -> float:
        return sum(s.total for s in self.contexts.values())

    def merge_context_into_base(self, context: ContextKey) -> None:
        """Fold one context's counts into its leaf function's base context."""
        samples = self.contexts.pop(context)
        base = self.get_or_create(base_context(samples.name))
        if base.checksum is None:
            base.checksum = samples.checksum
        base.merge(samples)

    def flatten(self) -> FlatProfile:
        """Collapse all contexts into a context-insensitive probe profile."""
        flat = FlatProfile(FlatProfile.KIND_PROBE)
        for context, samples in self.contexts.items():
            merged = flat.get_or_create(samples.name)
            if merged.checksum is None:
                merged.checksum = samples.checksum
            merged.merge(samples)
        flat.finalize()
        return flat

    def __repr__(self) -> str:
        return f"<ContextProfile ({len(self.contexts)} contexts)>"
