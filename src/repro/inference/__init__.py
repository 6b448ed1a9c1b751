"""Profile inference (the Profi-equivalent flow smoothing).

``flow`` holds the formulation and both solver paths (sparse default,
dense differential oracle); ``skeleton``/``sparse`` the structure-keyed
factorization cache; ``incremental`` the cross-run solution memo.  See
DESIGN.md sec. 14.
"""

from .flow import (CONSERVATION_WEIGHT, infer_function_counts,
                   infer_module_counts)
from .incremental import InferenceSession, current, install, uninstall
from .skeleton import CFGSkeleton, extract_skeleton, observation_pattern
from .sparse import SolverCache, SystemTemplate, default_cache

__all__ = ["CONSERVATION_WEIGHT", "CFGSkeleton", "InferenceSession",
           "SolverCache", "SystemTemplate", "current", "default_cache",
           "extract_skeleton", "infer_function_counts",
           "infer_module_counts", "install", "observation_pattern",
           "uninstall"]
