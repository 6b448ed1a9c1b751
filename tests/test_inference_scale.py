"""Production-scale inference: sparse-vs-dense differential, skeleton
digests, the solver cache, and incremental re-solve.

The sparse fast path (``inference.sparse``) is pinned against the dense
formulation it replaced — the dense path stays in the tree purely as the
differential oracle these tests run (DESIGN.md sec. 14).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, telemetry
from repro.analysis import fill_static_counts
from repro.inference import (InferenceSession, SolverCache,
                             infer_function_counts, infer_module_counts)
from repro.inference import incremental as inference_session
from repro.inference.skeleton import (SINK, SRC, extract_skeleton,
                                      observation_pattern, skeleton_digest)
from repro.inference.sparse import HAVE_SCIPY, solve_raw
from repro.ir import ModuleBuilder, verify_module
from repro.workloads import WorkloadSpec, build_workload
from tests.conftest import build_diamond_module, build_loop_module

needs_scipy = pytest.mark.skipif(not HAVE_SCIPY,
                                 reason="scipy unavailable; sparse path "
                                        "degrades to dense")


@pytest.fixture(autouse=True)
def _no_leaked_sessions():
    """Inference sessions and obs are process-global; never leak them."""
    yield
    inference_session.uninstall()
    obs.uninstall()


def build_observed_workload(seed: int, jitter: float = 0.05):
    """Small generated module with flow-consistent noisy observations."""
    module = build_workload(WorkloadSpec("diff", seed=seed, n_leaf=4,
                                         n_dispatch=2, n_mid=3, n_wrapper=1,
                                         n_workers=2, n_services=2,
                                         requests=40))
    fill_static_counts(module)
    rng = random.Random(seed + 1000)
    heads = {}
    for name, fn in module.functions.items():
        for block in fn.blocks:
            if block.count is not None:
                block.count *= 1 + jitter * (rng.random() - 0.5)
        if fn.entry_count is not None:
            heads[name] = fn.entry_count
        fn.entry_count = None
    return module, heads


def module_counts(module):
    return {(name, block.label): block.count
            for name, fn in module.functions.items()
            for block in fn.blocks}


def assert_counts_close(reference, counts, rel=1e-6):
    assert set(reference) == set(counts)
    for key, ref in reference.items():
        a, b = ref or 0.0, counts[key] or 0.0
        assert abs(a - b) <= rel * max(1.0, abs(a)), (key, a, b)


def build_self_loop_entry():
    """main(): the entry block is its own loop header (entry -> entry)."""
    mb = ModuleBuilder("selfloop")
    f = mb.function("main", ["%n"])
    f.block("entry").add("%n", "%n", -1).cmp(
        "slt", "%c", 0, "%n").condbr("%c", "entry", "exit")
    f.block("exit").ret("%n")
    module = mb.build()
    verify_module(module)
    return module


class TestDifferential:
    """Sparse path == dense oracle on everything we can throw at it."""

    @needs_scipy
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_sparse_matches_dense_on_workloads(self, seed):
        module, heads = build_observed_workload(seed)
        dense = module.clone()
        infer_module_counts(dense, heads, dense=True)
        sparse = module.clone()
        infer_module_counts(sparse, heads)
        assert_counts_close(module_counts(dense), module_counts(sparse))
        for name, fn in dense.functions.items():
            other = sparse.function(name).entry_count
            if fn.entry_count is None:
                assert other is None
            else:
                assert other == pytest.approx(fn.entry_count,
                                              rel=1e-6, abs=1e-6)

    @needs_scipy
    @pytest.mark.parametrize("counts,head", [
        ({"entry": 10.0, "loop": 510.0, "body": 500.0, "exit": 10.0}, 10.0),
        ({"entry": 10.0, "loop": 510.0}, 10.0),      # unknowns filled
        ({"loop": 100.0}, None),                      # no head row
    ])
    def test_sparse_matches_dense_handbuilt(self, counts, head):
        results = []
        for dense in (True, False):
            module = build_loop_module()
            fn = module.function("main")
            for label, count in counts.items():
                fn.block(label).count = count
            assert infer_function_counts(fn, head, dense=dense)
            results.append({b.label: b.count for b in fn.blocks})
        assert_counts_close(results[0], results[1])


class TestSkeleton:
    def test_edge_list_matches_dense_formulation(self):
        fn = build_loop_module().function("main")
        skeleton = extract_skeleton(fn)
        assert skeleton.labels == ["entry", "loop", "body", "exit"]
        assert skeleton.edges[0] == (SRC, 0)
        assert (3, SINK) in skeleton.edges           # ret block -> sink
        assert (2, 1) in skeleton.edges              # body -> loop back edge

    def test_unreachable_blocks_excluded(self):
        mb = ModuleBuilder("dead")
        f = mb.function("main", ["%x"])
        f.block("entry").br("live")
        f.block("live").ret("%x")
        f.block("dead").ret("%x")
        fn = mb.build().function("main")
        skeleton = extract_skeleton(fn)
        assert skeleton.labels == ["entry", "live"]

    def test_digest_ignores_labels(self):
        plain = build_diamond_module().function("main")
        mb = ModuleBuilder("renamed")
        f = mb.function("main", ["%x"])
        f.block("a").cmp("slt", "%c", "%x", 5).condbr("%c", "b", "c")
        f.block("b").mul("%r", "%x", 3).br("d")
        f.block("c").add("%r", "%x", 100).br("d")
        f.block("d").ret("%r")
        renamed = mb.build().function("main")
        assert (extract_skeleton(plain).digest
                == extract_skeleton(renamed).digest)
        assert (extract_skeleton(plain).digest
                != extract_skeleton(build_loop_module()
                                    .function("main")).digest)

    def test_observation_pattern_splits_indices_and_values(self):
        fn = build_loop_module().function("main")
        fn.block("loop").count = 510.0
        fn.block("exit").count = 10.0
        skeleton = extract_skeleton(fn)
        indices, values = observation_pattern(fn, skeleton)
        assert indices == (1, 3)
        assert values == [510.0, 10.0]


# Random-but-valid CFG edge structures: block 0 is the entry; every other
# block gets at least one in-edge candidate.  Not necessarily connected —
# the digest is defined on any edge list.
_edge_lists = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(min_value=-1, max_value=n - 1),
                  st.integers(min_value=-2, max_value=n - 1)),
        min_size=1, max_size=24).map(lambda edges: (n, tuple(edges))))


class TestDigestProperties:
    @given(_edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_digest_deterministic(self, structure):
        n_blocks, edges = structure
        assert (skeleton_digest(n_blocks, edges)
                == skeleton_digest(n_blocks, edges))

    @given(_edge_lists, _edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_digest_injective_on_structure(self, left, right):
        digests = skeleton_digest(*left), skeleton_digest(*right)
        assert (digests[0] == digests[1]) == (left == right)

    @needs_scipy
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=2),
           st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_observation_values_never_touch_the_cached_template(
            self, values_a, values_b):
        fn = build_loop_module().function("main")
        skeleton = extract_skeleton(fn)
        cache = SolverCache()
        for values in (values_a, values_b):
            solve_raw(cache, skeleton.digest, skeleton.n_blocks,
                      skeleton.edges, (1, 3), values, None)
        # Same structure + pattern: one template, re-solved with new RHS.
        assert len(cache) == 1
        assert cache.misses == 1 and cache.hits == 1


@needs_scipy
class TestSolverCache:
    def test_structural_twins_share_a_template(self):
        cache = SolverCache()
        for seed_label in ("first", "second"):
            mb = ModuleBuilder(seed_label)
            f = mb.function("main", ["%x"])
            f.block(f"{seed_label}_e").cmp("slt", "%c", "%x", 5).condbr(
                "%c", f"{seed_label}_t", f"{seed_label}_f")
            f.block(f"{seed_label}_t").br(f"{seed_label}_j")
            f.block(f"{seed_label}_f").br(f"{seed_label}_j")
            f.block(f"{seed_label}_j").ret("%x")
            fn = mb.build().function("main")
            fn.block(f"{seed_label}_e").count = 10.0
            infer_function_counts(fn, 10.0, cache=cache)
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "size": 1}

    def test_capacity_bounds_the_cache(self):
        cache = SolverCache(capacity=2)
        fn = build_loop_module().function("main")
        skeleton = extract_skeleton(fn)
        for pattern in ((0,), (1,), (2,)):
            solve_raw(cache, skeleton.digest, skeleton.n_blocks,
                      skeleton.edges, pattern, [5.0], None)
        assert cache.evictions == 1
        assert len(cache) == 1  # cleared at capacity, then one insert

    def test_cache_hit_solution_identical_to_miss(self):
        results = []
        for _ in range(2):
            cache = SolverCache()
            values = ([10.0, 510.0, 500.0, 10.0], [10.0, 510.0, 500.0, 10.0])
            fn = build_loop_module().function("main")
            skeleton = extract_skeleton(fn)
            for vals in values:
                results.append(solve_raw(cache, skeleton.digest,
                                         skeleton.n_blocks, skeleton.edges,
                                         (0, 1, 2, 3), vals, 10.0))
        for source_flow, inflow, reason in results[1:]:
            assert source_flow == results[0][0]
            assert np.array_equal(inflow, results[0][1])
            assert reason is None


@needs_scipy
class TestFallbackClassification:
    def _counts_for(self, module, head, dense):
        clone = module.clone()
        infer_module_counts(clone, head, dense=dense)
        return module_counts(clone)

    def test_rank_deficient_counted_and_bit_identical(self):
        module = build_diamond_module()
        module.function("main").block("entry").count = None
        session = telemetry.enable()
        obs_session = obs.install()
        try:
            # Head-only diamond: two branch flows, one constraint — the
            # normal equations cannot pick the oracle's min-norm answer.
            sparse = self._counts_for(module, {"main": 100.0}, dense=False)
            assert session.counter("inference", "solver_fallback") == 1
            assert session.counter(
                "inference", "solver_fallback.rank_deficient") == 1
            events = [e for e in obs_session.log.events
                      if e.type == "solver_fallback"]
            assert [(e.fields["function"], e.fields["reason"])
                    for e in events] == [("main", "rank_deficient")]
        finally:
            telemetry.disable()
        dense = self._counts_for(module, {"main": 100.0}, dense=True)
        assert sparse == dense  # fallback runs the oracle: bit-identical

    def test_negative_flow_counted_and_bit_identical(self):
        module = build_diamond_module()
        fn = module.function("main")
        # Wildly inconsistent: the unconstrained optimum goes negative,
        # so the fast path must defer to the bounded oracle.
        for label, count in [("entry", 10.0), ("then", 50.0),
                             ("else", 0.0), ("join", 5.0)]:
            fn.block(label).count = count
        session = telemetry.enable()
        try:
            sparse = self._counts_for(module, {"main": 10.0}, dense=False)
            assert session.counter(
                "inference", "solver_fallback.negative_flow") == 1
        finally:
            telemetry.disable()
        dense = self._counts_for(module, {"main": 10.0}, dense=True)
        assert sparse == dense

    def test_clean_solve_counts_no_fallback(self):
        module = build_loop_module()
        fn = module.function("main")
        for label, count in [("entry", 10.0), ("loop", 510.0),
                             ("body", 500.0), ("exit", 10.0)]:
            fn.block(label).count = count
        session = telemetry.enable()
        try:
            infer_module_counts(module, {"main": 10.0})
            assert session.counter("inference", "solver_fallback") == 0
        finally:
            telemetry.disable()


class TestEntryCountReadback:
    @needs_scipy
    @pytest.mark.parametrize("dense", [True, False])
    def test_self_loop_entry_uses_source_flow_not_inflow(self, dense):
        # The entry block's *inflow* includes its own back edge (10), but
        # only the virtual SRC->entry flow (2) is function entries.
        module = build_self_loop_entry()
        fn = module.function("main")
        fn.block("entry").count = 10.0
        fn.block("exit").count = 2.0
        assert infer_function_counts(fn, dense=dense)
        assert fn.entry_count == pytest.approx(2.0, rel=0.05)
        assert fn.block("entry").count == pytest.approx(10.0, rel=0.05)

    @pytest.mark.parametrize("dense", [True, False])
    def test_observed_head_wins(self, dense):
        module = build_loop_module()
        fn = module.function("main")
        fn.block("loop").count = 100.0
        assert infer_function_counts(fn, head_count=7.0, dense=dense)
        assert fn.entry_count == 7.0


@needs_scipy
class TestIncrementalSession:
    def test_repeat_run_skips_every_solve(self):
        module, heads = build_observed_workload(seed=41)
        session = inference_session.install(InferenceSession())
        telemetry_session = telemetry.enable()
        try:
            first = module.clone()
            infer_module_counts(first, heads)
            assert session.reused == 0 and session.solved > 0
            solved = session.solved
            second = module.clone()
            infer_module_counts(second, heads)
            assert session.reused == solved  # 100% >= the 90% contract
            assert telemetry_session.counter(
                "inference", "incremental_reuse") == solved
            assert module_counts(second) == module_counts(first)
        finally:
            telemetry.disable()

    def test_changed_values_solve_again_in_exact_mode(self):
        module, heads = build_observed_workload(seed=43)
        session = inference_session.install(InferenceSession())
        first = module.clone()
        infer_module_counts(first, heads)
        drifted = module.clone()
        for fn in drifted.functions.values():
            for block in fn.blocks:
                if block.count is not None:
                    block.count *= 1.001
        infer_module_counts(drifted, heads)
        assert session.reused == 0

    def test_tolerance_mode_reuses_under_drift(self):
        module, heads = build_observed_workload(seed=43)
        session = inference_session.install(InferenceSession(tolerance=0.01))
        first = module.clone()
        infer_module_counts(first, heads)
        drifted = module.clone()
        for fn in drifted.functions.values():
            for block in fn.blocks:
                if block.count is not None:
                    block.count *= 1.001  # within the 1% tolerance
        infer_module_counts(drifted, heads)
        assert session.reused == session.solved
        # Reuse serves the *previous* solution verbatim.
        assert module_counts(drifted) == module_counts(first)

    def test_memoize_off_is_config_only(self):
        module, heads = build_observed_workload(seed=47)
        session = inference_session.install(InferenceSession(memoize=False))
        infer_module_counts(module.clone(), heads)
        infer_module_counts(module.clone(), heads)
        assert session.reused == 0
        assert session.stats()["memo_size"] == 0

    def test_driver_installs_and_uninstalls_a_session(self):
        from repro import PGODriverConfig, PGOVariant, run_pgo
        from repro.hw import PMUConfig
        module = build_workload(WorkloadSpec("drv", seed=9, n_leaf=3,
                                             n_dispatch=1, n_mid=2,
                                             n_wrapper=1, n_workers=1,
                                             n_services=1, requests=30))
        config = PGODriverConfig(pmu=PMUConfig(period=31))
        assert inference_session.current() is None
        result = run_pgo(module, PGOVariant.AUTOFDO, [30], [30],
                         config=config)
        assert result.eval is not None
        assert inference_session.current() is None  # uninstalled after
