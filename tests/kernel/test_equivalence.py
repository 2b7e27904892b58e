"""Kernel vs the dict-join oracle: bit-for-bit equivalence on real workloads.

The compiled kernel is a pure representation change of the Section 4
join — same pruning, same iteration order for every float sum — so
estimates must be *identical* (``==``, not approx) to the oracle's
(:mod:`tests.pathjoin_oracle`) across the full workload suite of all
three datasets, in all four (``fixpoint``, ``depth_consistent``) modes,
at the estimate, trace and join-result levels.
"""

from __future__ import annotations

from repro.core.options import EstimateOptions
from repro.core.pathjoin import path_join
from tests.pathjoin_oracle import oracle_join, oracle_joins

MODES = [
    {"fixpoint": fixpoint, "depth_consistent": depth_consistent}
    for fixpoint in (True, False)
    for depth_consistent in (True, False)
]


def _all_items(workload):
    return (
        workload.simple
        + workload.branch
        + workload.order_branch
        + workload.order_trunk
    )


def _spans(trace):
    stack = [trace["root"]]
    while stack:
        span = stack.pop()
        yield span["name"]
        stack.extend(span.get("children", ()))


def _uncached_estimates(system, items, **modes):
    """Every item estimated for real (the semantic cache would otherwise
    answer the oracle arm with the kernel arm's values)."""
    saved = system.semcache.capacity, system.semcache.ttl_s
    system.semcache.configure(0, None)
    try:
        return [system.estimate(item.query, **modes) for item in items]
    finally:
        system.semcache.configure(*saved)


def _oracle_estimates(system, items, **modes):
    with oracle_joins():
        return _uncached_estimates(system, items, **modes)


class TestEstimateEquivalence:
    def test_every_workload_query_is_bit_identical(self, kernel_envs):
        for name, system, workload in kernel_envs:
            items = _all_items(workload)
            assert items, name
            for modes in MODES:
                oracle = _oracle_estimates(system, items, **modes)
                kernel = _uncached_estimates(system, items, **modes)
                mismatches = [
                    (item.text, lhs, rhs)
                    for item, lhs, rhs in zip(items, oracle, kernel)
                    if lhs != rhs
                ]
                assert mismatches == [], "%s %s: %d mismatches" % (
                    name, modes, len(mismatches)
                )

    def test_kernel_served_every_join(self, kernel_envs):
        for name, system, workload in kernel_envs:
            items = workload.no_order()[:20]
            before = system.kernel().stats()["joins"]
            for item in items:
                for modes in MODES:
                    system.join(item.query, **modes)
            served = system.kernel().stats()["joins"] - before
            assert served == len(items) * len(MODES), name

    def test_traced_executions_match_untraced(self, kernel_envs):
        name, system, workload = kernel_envs[0]
        for item in _all_items(workload)[:40]:
            traced = system.estimate(item.text, options=EstimateOptions(trace=True))
            assert traced.value == system.estimate(item.query)
            assert "bitset_join" in set(_spans(traced.trace))

    def test_batch_equals_individual(self, kernel_envs):
        for name, system, workload in kernel_envs:
            items = _all_items(workload)[:60]
            texts = [item.text for item in items]
            batch = system.estimate(texts)
            singles = [system.estimate(item.query) for item in items]
            assert batch == singles, name

    def test_batch_with_duplicates_and_asts(self, kernel_envs):
        name, system, workload = kernel_envs[0]
        item = workload.simple[0]
        batch = system.estimate([item.text, item.query, item.text])
        assert batch == [system.estimate(item.query)] * 3


class TestJoinEquivalence:
    def test_join_results_identical(self, kernel_envs):
        """pids (values *and* dict order), depths and frequencies agree
        on every node of every order-free workload query, in every mode."""
        for name, system, workload in kernel_envs:
            provider, table = system.path_provider, system.encoding_table
            for item in workload.no_order()[:80]:
                for modes in MODES:
                    oracle = oracle_join(item.query, provider, table, **modes)
                    compiled = path_join(item.query, provider, table, **modes)
                    where = (item.text, modes)
                    assert compiled.empty == oracle.empty, where
                    for node in item.query.nodes():
                        lhs, rhs = oracle.pids(node), compiled.pids(node)
                        assert rhs == lhs, where
                        assert list(rhs) == list(lhs), where  # insertion order
                        assert compiled.depths(node) == oracle.depths(node), where
                        assert compiled.frequency(node) == oracle.frequency(node), where

    def test_ablations_fall_back_to_legacy(self, kernel_envs):
        """The paper's ablation modes (no fixpoint / no depth filter) run
        on the kernel too, and match the oracle's estimates."""
        name, system, workload = kernel_envs[0]
        items = workload.branch[:5]
        for modes in ({"fixpoint": False}, {"depth_consistent": False}):
            kernel = _uncached_estimates(system, items, **modes)
            assert kernel == _oracle_estimates(system, items, **modes)


class TestHistogramProviders:
    def test_histogram_backed_synopsis_is_equivalent(self, ssplays_small):
        """Non-zero variance swaps in the p-histogram provider; the
        kernel must compile it identically too."""
        from repro.core.system import EstimationSystem
        from repro.workload import WorkloadGenerator

        system = EstimationSystem.build(ssplays_small, p_variance=100.0, o_variance=100.0)
        workload = WorkloadGenerator(ssplays_small, seed=13).full_workload(
            raw_simple=40, raw_branch=40, raw_order=50
        )
        items = _all_items(workload)
        for modes in MODES:
            oracle = _oracle_estimates(system, items, **modes)
            assert _uncached_estimates(system, items, **modes) == oracle, modes

    def test_depth_refined_synopsis_is_equivalent(self, xmark_small):
        """Depth-refined statistics seed the kernel from empirical depths
        and re-sum pruned pids' per-depth frequencies."""
        from repro.core.system import EstimationSystem
        from repro.workload import WorkloadGenerator

        system = EstimationSystem.build(
            xmark_small, use_histograms=False, depth_refined=True
        )
        workload = WorkloadGenerator(xmark_small, seed=13).full_workload(
            raw_simple=40, raw_branch=40, raw_order=40
        )
        items = _all_items(workload)
        for modes in MODES:
            oracle = _oracle_estimates(system, items, **modes)
            assert _uncached_estimates(system, items, **modes) == oracle, modes
