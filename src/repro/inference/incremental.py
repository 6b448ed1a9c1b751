"""Incremental re-solve: solution memoization across rolling generations.

The fleet story (ROADMAP item 1) re-runs profile inference every freshness
window over mostly-unchanged inputs: the same binaries keep serving, most
functions' sampled counts move little or not at all between collections.
A solved system is a pure function of ``(skeleton digest, observation
pattern, observation values)``, so an :class:`InferenceSession` memoizes
``(source_flow, inflow)`` results under exactly that key and short-circuits
the solver entirely on a repeat:

* **exact mode** (``tolerance=0.0``, the default) reuses a solution only
  for bit-identical observation vectors — reuse can never change counts;
* **tolerance mode** (``tolerance > 0``) additionally reuses the previous
  solution when every observation moved by at most the given relative
  tolerance — the rolling-window "nothing interesting changed" fast path,
  trading exactness for skipping the solve entirely.

The session also carries the solver cache (factorizations — see
``inference.sparse``) and the solver choice, so ``pgo/driver.py`` wires
the whole inference configuration through one installed object without
touching the annotation call chain.  The module-level
:func:`install`/:func:`uninstall`/:func:`current` mirror the
``telemetry``/``obs`` session pattern: nothing installed means no
memoization and zero overhead.

Reuse and solve totals are exposed both as attributes (``session.reused``/
``session.solved``) and as ``inference.incremental_reuse`` /
``inference.incremental_solves`` telemetry counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from .sparse import SolverCache

#: Memo key minus the observation values: (function name, digest,
#: obs pattern, has_head).  The name is not needed for soundness (solves
#: are pure in the other three plus the values) but keeps two functions
#: that share a structure from thrashing one slot — repeat runs then reuse
#: every unchanged function, not just one per structure.
_PatternKey = Tuple[str, str, Tuple[int, ...], bool]


def _max_rel_delta(new: np.ndarray, old: np.ndarray) -> float:
    """Largest per-observation relative change (denominator floored at 1)."""
    if new.size == 0:
        return 0.0
    return float(np.max(np.abs(new - old) / np.maximum(np.abs(old), 1.0)))


class InferenceSession:
    """One installed inference configuration + solution memo."""

    def __init__(self, *, cache: "Optional[SolverCache]" = None,
                 tolerance: float = 0.0, memoize: bool = True,
                 dense: bool = False, capacity: int = 65536):
        from .sparse import default_cache
        #: Factorization cache shared by every solve under this session.
        self.cache = cache if cache is not None else default_cache()
        #: Maximum relative observation drift for tolerance-mode reuse.
        self.tolerance = tolerance
        #: ``memoize=False`` keeps the session purely as a configuration
        #: carrier (cache/dense) with the memo disabled.
        self.memoize = memoize
        #: Route every solve through the dense differential oracle.
        self.dense = dense
        #: Memo entries kept before the memo resets (runaway-churn guard).
        self.capacity = capacity
        self.reused = 0
        self.solved = 0
        self._memo: Dict[_PatternKey,
                         Tuple[np.ndarray, float, np.ndarray]] = {}

    def lookup(self, name: str, digest: str, obs_indices: Tuple[int, ...],
               obs_values: List[float], head_count: Optional[float]
               ) -> Optional[Tuple[float, np.ndarray]]:
        """Return the memoized ``(source_flow, inflow)`` or ``None``.

        A hit requires the same skeleton and observation pattern, plus
        observation values (head included) equal to the stored run's —
        exactly, or within :attr:`tolerance` relative drift.
        """
        if not self.memoize:
            return None
        key = self._key(name, digest, obs_indices, head_count)
        entry = self._memo.get(key)
        if entry is None:
            return None
        stored_values, source_flow, inflow = entry
        values = self._values(obs_values, head_count)
        if values.shape != stored_values.shape:
            return None
        if self.tolerance <= 0.0:
            if not np.array_equal(values, stored_values):
                return None
        elif _max_rel_delta(values, stored_values) > self.tolerance:
            return None
        return source_flow, inflow.copy()

    def store(self, name: str, digest: str, obs_indices: Tuple[int, ...],
              obs_values: List[float], head_count: Optional[float],
              source_flow: float, inflow: np.ndarray) -> None:
        if not self.memoize:
            return
        if len(self._memo) >= self.capacity:
            self._memo.clear()
        key = self._key(name, digest, obs_indices, head_count)
        self._memo[key] = (self._values(obs_values, head_count),
                           source_flow, inflow.copy())

    @staticmethod
    def _key(name: str, digest: str, obs_indices: Tuple[int, ...],
             head_count: Optional[float]) -> _PatternKey:
        return (name, digest, obs_indices, head_count is not None)

    @staticmethod
    def _values(obs_values: List[float],
                head_count: Optional[float]) -> np.ndarray:
        values = list(obs_values)
        if head_count is not None:
            values.append(float(head_count))
        return np.asarray(values)

    def stats(self) -> Dict[str, int]:
        return {"reused": self.reused, "solved": self.solved,
                "memo_size": len(self._memo)}

    def clear(self) -> None:
        self._memo.clear()

    def __repr__(self) -> str:
        return (f"<InferenceSession memo={len(self._memo)} "
                f"reused={self.reused} solved={self.solved} "
                f"tol={self.tolerance}>")


#: The installed session, or None (no memoization — the default).
_active: Optional[InferenceSession] = None


def install(session: Optional[InferenceSession] = None) -> InferenceSession:
    """Install ``session`` (or a fresh default one) process-wide."""
    global _active
    _active = session if session is not None else InferenceSession()
    return _active


def uninstall() -> None:
    global _active
    _active = None


def current() -> Optional[InferenceSession]:
    return _active
