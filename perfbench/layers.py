"""The per-layer ledger's vocabulary: which entry points make up each layer,
where the benchmark binds its wrappers, and what each layer metric predicts.

Layers are named after the ``src/repro`` packages on the default pipeline
path.  ``fleet``, ``obs``, ``telemetry``, ``faults`` and ``analysis`` are off
that path and are not measured.

Every entry point is listed at the module that *calls* it, because that is
the binding the call goes through: ``repro.pgo.driver`` and
``repro.pgo.quality_eval`` import ``build``, ``execute`` and the profgen
functions by name, so a wrapper on the defining module would miss them.
This module imports nothing from ``repro``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

LAYERS: Tuple[str, ...] = (
    "pgo", "probes", "annotate", "inference", "opt", "codegen", "hw",
    "correlate", "profile", "preinline", "quality")

#: layer -> caller module -> entry points called through that module.
BINDINGS: Dict[str, Dict[str, List[str]]] = {
    "pgo": {
        "repro.pgo.driver": ["run_pgo", "build"],
        "repro.pgo.quality_eval": ["build"],
    },
    "probes": {
        "repro.pgo.build": ["insert_pseudo_probes", "instrument_module"],
        "repro.pgo.quality_eval": ["insert_pseudo_probes"],
    },
    "annotate": {
        "repro.pgo.build": [
            "annotate_autofdo", "annotate_fs_autofdo_early",
            "annotate_fs_autofdo_late", "annotate_instr",
            "annotate_probe_flat", "csspgo_sample_loader"],
        "repro.pgo.quality_eval": [
            "annotate_autofdo", "annotate_instr", "annotate_probe_flat"],
    },
    "inference": {
        "repro.annotate.sample_loader": ["infer_module_counts"],
    },
    "opt": {
        "repro.pgo.build": ["optimize_module"],
    },
    "codegen": {
        "repro.pgo.build": ["lower_module", "link", "build_dwarf",
                            "build_probe_metadata", "measure_sizes"],
    },
    "hw": {
        "repro.pgo.driver": ["execute"],
        "repro.pgo.quality_eval": ["execute"],
        "repro.hw.decoded": ["decode_program"],
    },
    "correlate": {
        "repro.pgo.driver": ["generate_context_profile",
                             "generate_dwarf_profile",
                             "generate_probe_profile"],
        "repro.pgo.quality_eval": ["generate_context_profile",
                                   "generate_dwarf_profile",
                                   "generate_probe_profile"],
    },
    "profile": {
        "repro.pgo.driver": ["trim_cold_contexts"],
    },
    "preinline": {
        "repro.pgo.driver": ["extract_function_sizes", "run_preinliner"],
    },
    "quality": {
        "repro.pgo.quality_eval": ["block_overlap_program",
                                   "module_block_counts"],
    },
}

#: Layers whose spans must fire on each workload.  ``compare_variants`` never
#: scores overlap; ``evaluate_profile_quality`` never trims or pre-inlines.
FIRES: Dict[str, Tuple[str, ...]] = {
    "server": tuple(layer for layer in LAYERS if layer != "quality"),
    "large-module": tuple(layer for layer in LAYERS if layer != "quality"),
    "quality-dense": tuple(layer for layer in LAYERS
                           if layer not in ("profile", "preinline")),
}

#: How the ledger reads.  Runs are serial, so a faster layer saves at most
#: its own self-time share of ``wall_s``.  Each row: layer metrics, the
#: end-to-end metrics they should move, the workload where they move most,
#: and the workload where they should not move.
INTERACTIONS: List[Tuple[Tuple[str, ...], Tuple[str, ...], str, str]] = [
    (("pgo.self_s", "pgo.fallback_hops"), ("wall_s",), "any",
     "- (a growing pgo.self_s means a layer went unmeasured)"),
    (("probes.self_s",), ("wall_s",), "large-module", "quality-dense"),
    (("annotate.self_s", "annotate.annotated_frac"),
     ("wall_s", "csspgo_vs_autofdo"), "large-module", "quality-dense"),
    (("inference.self_s", "inference.functions", "inference.fallback_frac",
      "inference.cache_hit_frac"), ("wall_s",), "large-module",
     "quality-dense"),
    (("opt.self_s", "opt.calls", "opt.ir_instrs_out"), ("wall_s",),
     "large-module", "quality-dense"),
    (("codegen.self_s", "codegen.machine_instrs"),
     ("wall_s", "csspgo_text_bytes"), "large-module", "quality-dense"),
    (("hw.collect_s", "hw.measure_s", "hw.runs", "hw.instrs_retired",
      "hw.ns_per_instr", "hw.samples"), ("wall_s",),
     "server, then quality-dense", "large-module"),
    (("hw.decode_s", "hw.decodes"), ("wall_s",), "large-module",
     "- (every workload decodes each binary it runs)"),
    (("correlate.self_s", "correlate.us_per_sample", "correlate.unique_frac",
      "correlate.unwind_hit_frac"), ("wall_s",), "quality-dense",
     "large-module"),
    (("profile.trim_s", "preinline.self_s"), ("wall_s",), "server",
     "large-module"),
    (("quality.self_s",), ("wall_s",), "quality-dense", "server"),
]
