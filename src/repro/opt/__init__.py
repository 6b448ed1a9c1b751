"""Optimization passes and pipeline (see DESIGN.md sec. 2)."""

from .constprop import constprop, constprop_function
from .dce import dce, dce_function
from .dfe import dead_function_elimination, reachable_functions
from .if_convert import if_convert, if_convert_function
from .inliner import (CALLEE_SIZE_LIMIT, CALLER_SIZE_LIMIT, InlineResult,
                      bottom_up_order, call_graph, function_size, inline_call,
                      run_bottom_up_inliner, should_inline_profiled,
                      should_inline_static)
from .layout import (block_layout, edge_weights, ext_tsp_layout_function,
                     ext_tsp_score, split_hot_cold_function)
from .licm import licm, licm_function
from .liveness import (LivenessInfo, compute_liveness, live_in_any,
                       registers_of)
from .loop_unroll import loop_unroll, unroll_function
from .pass_manager import OptConfig, PassManager
from .pipeline import build_pass_manager, optimize_module
from .simplify_cfg import (fold_forwarding_blocks, merge_straightline_blocks,
                           remove_unreachable_blocks, simplify_cfg,
                           simplify_cfg_function)
from .tail_merge import tail_merge, tail_merge_function

__all__ = [
    "CALLEE_SIZE_LIMIT", "CALLER_SIZE_LIMIT", "InlineResult", "LivenessInfo",
    "OptConfig", "PassManager", "block_layout", "bottom_up_order",
    "build_pass_manager",
    "call_graph", "compute_liveness", "constprop", "constprop_function",
    "dce", "dce_function",
    "dead_function_elimination", "edge_weights",
    "ext_tsp_layout_function", "ext_tsp_score", "fold_forwarding_blocks",
    "function_size", "if_convert", "if_convert_function", "inline_call",
    "licm", "licm_function", "live_in_any", "loop_unroll",
    "merge_straightline_blocks",
    "optimize_module", "registers_of", "remove_unreachable_blocks",
    "reachable_functions", "run_bottom_up_inliner", "should_inline_profiled", "should_inline_static",
    "simplify_cfg", "simplify_cfg_function", "split_hot_cold_function",
    "tail_merge", "tail_merge_function", "unroll_function",
]
