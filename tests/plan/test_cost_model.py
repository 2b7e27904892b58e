"""The cost model's memoization and the planner's estimate reuse.

The cost model memoizes by rendered sub-query text, so each distinct
sub-pattern of a bushy node costs one estimate per planner lifetime.
"""

from __future__ import annotations

import pytest

from repro.core.system import EstimationSystem
from repro.plan.cost import AXIS_WEIGHTS, CostModel, step_cost
from repro.plan.planner import CostBasedPlanner
from repro.xpath.ast import QueryAxis
from repro.xpath.parser import parse_query

BUSHY = "//A[/B][/C][/E]/$D"


@pytest.fixture(scope="module")
def system(figure1):
    return EstimationSystem.build(figure1, p_variance=0, o_variance=0)


class TestCostModel:
    def test_subpattern_estimates_are_memoized(self, system):
        model = CostModel(system)
        query = parse_query("//A/$B")
        first = model.subpattern_estimate(query)
        assert model.cache_info()["misses"] == 1
        assert model.subpattern_estimate(query) == first
        assert model.cache_info() == {"hits": 1, "misses": 1, "entries": 1}

    def test_clear_drops_everything(self, system):
        model = CostModel(system)
        model.subpattern_estimate(parse_query("//A/$B"))
        model.tag_total("A")
        model.frequency_map("A")
        model.clear()
        assert model.cache_info()["entries"] == 0

    def test_tag_total_matches_provider(self, system):
        model = CostModel(system)
        expected = float(
            sum(f for _, f in system.path_provider.frequency_pairs("B"))
        )
        assert model.tag_total("B") == expected
        assert model.tag_total("B") == expected  # cached path

    def test_step_cost_weights_by_axis(self):
        child = step_cost(QueryAxis.CHILD, 10.0, 5.0)
        desc = step_cost(QueryAxis.DESCENDANT, 10.0, 5.0)
        assert child == AXIS_WEIGHTS[QueryAxis.CHILD] * 15.0
        assert desc > child

    def test_unpruned_factors_shrink_with_branches(self, system):
        pattern = CostModel(system).prepare(parse_query(BUSHY), use_path_ids=False)
        node = pattern.query.root  # the A node carries the branches
        assert node.tag == "A"
        none = pattern.factor(node, ())
        some = pattern.factor(node, (0,))
        all_of_them = pattern.factor(node, range(len(node.edges)))
        assert none == 1.0
        assert none >= some >= all_of_them >= 0.0

    def test_pruned_factors_are_neutral(self, system):
        pattern = CostModel(system).prepare(parse_query(BUSHY), use_path_ids=True)
        node = pattern.query.root
        assert pattern.factor(node, (0, 1)) == 1.0


class TestCostBasedPlannerMemo:
    def test_shared_model_warms_across_plans(self, system):
        planner = CostBasedPlanner(system)
        planner.plan(BUSHY, use_path_ids=False)
        misses = planner.cost_model.cache_info()["misses"]
        planner.plan(BUSHY, use_path_ids=False)
        assert planner.cost_model.cache_info()["misses"] == misses

    def test_invalidate_kernel_clears_cost_memo(self, system):
        planner = system.planner()
        planner.plan(BUSHY, use_path_ids=False)
        assert planner.cost_model.cache_info()["entries"] > 0
        system.invalidate_kernel()
        assert planner.cost_model.cache_info()["entries"] == 0
