"""Profile generation from raw samples (the llvm-profgen equivalent)."""

from .frame_inferrer import FrameInferrer, TailCallGraph
from .profgen import (RawAggregation, aggregate_samples,
                      context_profile_from_agg, dwarf_profile_from_counts,
                      dwarf_range_counts, generate_context_profile,
                      generate_dwarf_profile, generate_probe_profile,
                      probe_profile_from_agg)
from .unwinder import (CallSample, PayloadResult, RangeSample, UnwindResult,
                       Unwinder)

__all__ = [
    "CallSample", "FrameInferrer", "PayloadResult", "RangeSample",
    "RawAggregation", "TailCallGraph", "UnwindResult", "Unwinder",
    "aggregate_samples", "context_profile_from_agg",
    "dwarf_profile_from_counts", "dwarf_range_counts",
    "generate_context_profile", "generate_dwarf_profile",
    "generate_probe_profile", "probe_profile_from_agg",
]
