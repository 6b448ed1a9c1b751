"""Profile inference: making sampled block counts flow-consistent.

The paper (sec. II.A, IV.A) runs Profi [Levin et al. / "Profile inference
revisited"] for *both* AutoFDO and CSSPGO — inference smooths hardware
sampling noise and fills blocks whose counts are unknown (probe-less blocks
created by later passes, dangling probes after if-conversion).

This implementation solves the same problem with a bounded least-squares
flow formulation instead of min-cost flow (the published MCF is one way to
minimize deviation-from-observation subject to flow conservation; bounded
least squares minimizes the L2 analogue and handles unknowns naturally):

* variables — one flow per CFG edge, plus a virtual source->entry edge and
  ret->sink edges, all constrained nonnegative;
* hard-ish rows — flow conservation at every block (large weight);
* soft rows — observed block counts (inflow should match the sample count)
  and the observed head/entry count.

Block counts are then read back as inflow, and the function entry count as
the solved virtual source->entry flow.  Functions with no observations
at all are left untouched — unless ``static_fill`` is requested, in which
case they receive static pseudo-counts from ``analysis.static_profile``
(entry counts propagated from sampled callers, block counts from static
branch-probability frequencies).  The blend is conservative by contract:
functions inference ran on keep their counts bit-for-bit; only functions
the sampler never saw are filled.

Two solver paths share this formulation (DESIGN.md sec. 14):

* the **sparse path** (default when scipy is available) builds the system
  from a cached :class:`~repro.inference.sparse.SystemTemplate` — COO/CSR
  incidence matrices and a structure-keyed ``splu`` factorization reused
  across functions and runs — and defers to the exact oracle solver
  whenever the fast solve cannot guarantee the oracle's answer;
* the **dense path** (``dense=True``) is the original row-by-row
  formulation, kept as the differential oracle the sparse path is pinned
  against.

Every departure from the primary solver is classified and counted
(``inference.solver_fallback.*`` telemetry counters, ``solver_fallback``
obs events) instead of being silently swallowed.  Module-level inference
additionally consults the installed :class:`~repro.inference.incremental.
InferenceSession` (solution memoization across rolling profile
generations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .. import obs, telemetry
from ..ir.cfg import reachable_blocks
from ..ir.function import Function, Module
from ..ir.instructions import Ret

if TYPE_CHECKING:  # runtime imports stay lazy (sparse needs scipy)
    from .incremental import InferenceSession
    from .skeleton import CFGSkeleton
    from .sparse import SolverCache

#: Relative weight of flow-conservation rows vs observation rows.
CONSERVATION_WEIGHT = 50.0


def _scipy_available() -> bool:
    try:
        from . import sparse  # noqa: F401 (probe the import)
    except ImportError:  # pragma: no cover - scipy present in dev envs
        return False
    return sparse.HAVE_SCIPY


def _record_fallback(fn_name: str, reason: str) -> None:
    """Count one classified departure from the primary solver."""
    telemetry.count("inference", "solver_fallback")
    telemetry.count("inference", f"solver_fallback.{reason}")
    obs.emit("solver_fallback", function=fn_name, reason=reason)


def _lstsq_clip(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Last-resort solver: unconstrained lstsq clipped at the bounds."""
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return np.clip(solution, 0.0, None)


def _solve_dense(fn_name: str, matrix: np.ndarray,
                 target: np.ndarray) -> np.ndarray:
    try:
        from scipy.optimize import lsq_linear
    except ImportError:
        _record_fallback(fn_name, "scipy_missing")
        return _lstsq_clip(matrix, target)
    try:
        return lsq_linear(matrix, target, bounds=(0.0, np.inf),
                          max_iter=200).x
    except Exception:
        _record_fallback(fn_name, "solver_error")
        return _lstsq_clip(matrix, target)


def _infer_dense(fn: Function, head_count: Optional[float]) -> None:
    """The original dense formulation — the differential oracle."""
    reachable = [b for b in fn.blocks if b.label in reachable_blocks(fn)]
    observed = [b for b in reachable if b.count is not None]
    labels = [b.label for b in reachable]
    index = {label: i for i, label in enumerate(labels)}

    # Edge list: (src_block_index or -1 for SRC, dst_block_index or -2 for
    # SINK)
    edges: List[Tuple[int, int]] = [(-1, index[fn.entry.label])]
    for block in reachable:
        i = index[block.label]
        succs = [s for s in block.successors() if s in index]
        for succ in succs:
            edges.append((i, index[succ]))
        if isinstance(block.instrs[-1], Ret) or not succs:
            edges.append((i, -2))

    num_edges = len(edges)
    rows: List[np.ndarray] = []
    rhs: List[float] = []

    # Flow conservation per block: inflow - outflow = 0.
    for block in reachable:
        i = index[block.label]
        row = np.zeros(num_edges)
        for e, (src, dst) in enumerate(edges):
            if dst == i:
                row[e] += 1.0
            if src == i:
                row[e] -= 1.0
        rows.append(row * CONSERVATION_WEIGHT)
        rhs.append(0.0)

    # Observations: inflow of observed blocks.
    for block in observed:
        i = index[block.label]
        row = np.zeros(num_edges)
        for e, (_src, dst) in enumerate(edges):
            if dst == i:
                row[e] = 1.0
        rows.append(row)
        rhs.append(float(block.count))
    if head_count is not None:
        row = np.zeros(num_edges)
        row[0] = 1.0
        rows.append(row)
        rhs.append(float(head_count))

    matrix = np.vstack(rows)
    target = np.asarray(rhs)
    solution = _solve_dense(fn.name, matrix, target)

    for block in reachable:
        i = index[block.label]
        inflow = sum(solution[e] for e, (_s, d) in enumerate(edges) if d == i)
        block.count = float(max(0.0, inflow))
    _set_entry_count(fn, head_count, float(solution[0]))


def _set_entry_count(fn: Function, head_count: Optional[float],
                     source_flow: float) -> None:
    """Entry count: the observed head if given, else the *solved* virtual
    source->entry flow — consistent with block inflows even when the entry
    block is a loop header (its inflow then includes back edges, which are
    not function entries)."""
    if head_count is not None:
        fn.entry_count = float(head_count)
    else:
        fn.entry_count = max(0.0, source_flow)


def solve_system(fn_name: str, skeleton: "CFGSkeleton",
                 obs_indices: Tuple[int, ...], obs_values: List[float],
                 head_count: Optional[float], cache: "SolverCache"
                 ) -> Tuple[float, np.ndarray, Optional[str]]:
    """Solve one function's system on the sparse path.

    Returns ``(source_flow, per-block inflow, fallback_reason)``; pure in
    its inputs, so its results are memoizable (``inference.incremental``).
    ``fallback_reason`` is reported by the caller.
    """
    from .sparse import solve_raw
    return solve_raw(cache, skeleton.digest, skeleton.n_blocks,
                     skeleton.edges, obs_indices, obs_values, head_count)


def _infer_sparse(fn: Function, head_count: Optional[float],
                  cache: "SolverCache") -> None:
    from .skeleton import extract_skeleton, observation_pattern
    skeleton = extract_skeleton(fn)
    obs_indices, obs_values = observation_pattern(fn, skeleton)
    source_flow, inflow, reason = solve_system(
        fn.name, skeleton, obs_indices, obs_values, head_count, cache)
    if reason is not None:
        _record_fallback(fn.name, reason)
    _apply_solution(fn, skeleton.labels, head_count, source_flow, inflow)


def _apply_solution(fn: Function, labels: List[str],
                    head_count: Optional[float], source_flow: float,
                    inflow: np.ndarray) -> None:
    for i, label in enumerate(labels):
        fn.block(label).count = float(inflow[i])
    _set_entry_count(fn, head_count, source_flow)


def infer_function_counts(fn: Function, head_count: Optional[float] = None,
                          *, dense: bool = False,
                          cache: "Optional[SolverCache]" = None) -> bool:
    """Smooth ``fn``'s annotated block counts in place.

    ``head_count`` — observed function entry count (probe/head samples).
    ``dense`` forces the original dense differential-oracle path;
    ``cache`` overrides the process-wide solver cache on the sparse path.
    Returns False when the function carries no observations to infer from.
    """
    live = reachable_blocks(fn)
    has_observation = head_count is not None or any(
        b.count is not None for b in fn.blocks if b.label in live)
    if not has_observation:
        return False
    if dense or not _scipy_available():
        _infer_dense(fn, head_count)
        return True
    from .sparse import default_cache
    _infer_sparse(fn, head_count, cache if cache is not None
                  else default_cache())
    return True


def infer_module_counts(module: Module,
                        head_counts: Optional[Dict[str, float]] = None,
                        static_fill: bool = False, *,
                        dense: bool = False,
                        session: "Optional[InferenceSession]" = None
                        ) -> int:
    """Run inference over every annotated function; returns how many ran.

    With ``static_fill`` the functions inference could *not* run on (no
    observations at all) are filled with static pseudo-counts instead of
    staying count-less; see ``analysis.static_profile``.

    ``session`` (default: the installed
    :class:`~repro.inference.incremental.InferenceSession`, if any)
    supplies the solver cache and memoizes solutions across repeated
    runs.
    """
    from .incremental import current as current_session
    sess = session if session is not None else current_session()
    use_dense = (dense or (sess is not None and sess.dense)
                 or not _scipy_available())
    if use_dense:
        return _infer_module_dense(module, head_counts, static_fill)

    from .skeleton import extract_skeleton, observation_pattern
    from .sparse import default_cache
    cache = sess.cache if sess is not None else default_cache()

    inferred: List[str] = []
    reused = 0
    fallbacks = 0
    solved = 0
    for name, fn in module.functions.items():
        head = head_counts.get(name) if head_counts else None
        skeleton = extract_skeleton(fn)
        obs_indices, obs_values = observation_pattern(fn, skeleton)
        if not obs_indices and head is None:
            continue
        if sess is not None:
            memo = sess.lookup(name, skeleton.digest, obs_indices,
                               obs_values, head)
            if memo is not None:
                source_flow, inflow = memo
                _apply_solution(fn, skeleton.labels, head, source_flow,
                                inflow)
                inferred.append(name)
                reused += 1
                continue
        source_flow, inflow, reason = solve_system(
            name, skeleton, obs_indices, obs_values, head, cache)
        solved += 1
        if reason is not None:
            fallbacks += 1
            _record_fallback(name, reason)
        _apply_solution(fn, skeleton.labels, head, source_flow, inflow)
        inferred.append(name)
        if sess is not None:
            sess.store(name, skeleton.digest, obs_indices, obs_values,
                       head, source_flow, inflow)

    if sess is not None:
        sess.reused += reused
        sess.solved += solved
        telemetry.count("inference", "incremental_reuse", reused)
        telemetry.count("inference", "incremental_solves", solved)
    telemetry.count("inference", "functions_inferred", len(inferred))
    obs.emit("inference_run", functions=len(module.functions),
             inferred=len(inferred), solver="sparse", reused=reused,
             solved=solved, fallbacks=fallbacks)

    if static_fill:
        _fill_static(module, inferred)
    return len(inferred)


def _infer_module_dense(module: Module,
                        head_counts: Optional[Dict[str, float]],
                        static_fill: bool) -> int:
    """Serial dense-oracle module loop (``dense=True`` / no scipy)."""
    inferred: List[str] = []
    for name, fn in module.functions.items():
        head = head_counts.get(name) if head_counts else None
        if infer_function_counts(fn, head, dense=True):
            inferred.append(name)
    telemetry.count("inference", "functions_inferred", len(inferred))
    obs.emit("inference_run", functions=len(module.functions),
             inferred=len(inferred), solver="dense", reused=0,
             solved=len(inferred), fallbacks=0)
    if static_fill:
        _fill_static(module, inferred)
    return len(inferred)


def _fill_static(module: Module, inferred: List[str]) -> None:
    from ..analysis.static_profile import fill_static_counts
    known = {name: module.functions[name].entry_count
             for name in inferred
             if module.functions[name].entry_count is not None}
    fill_static_counts(module, known_entries=known, skip=inferred)
