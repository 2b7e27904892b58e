"""Property tests for order-axis estimation over random documents.

The workload generator runs against arbitrary documents, so random trees
give random *positive* order queries with known actuals — the properties
assert the estimator's soundness (positive actual ⇒ positive estimate)
and its exactness envelope (v=0 estimates equal the truth whenever the
uniformity assumptions hold trivially, i.e. a single sibling group shape).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.system import EstimationSystem
from repro.workload import WorkloadGenerator
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument


def records(seed: int, record_count: int) -> XmlDocument:
    """A flat record corpus: root -> records -> fields (no recursion)."""
    rng = random.Random(seed)
    field_tags = ["f1", "f2", "f3", "f4"]
    root = el("root")
    for _ in range(record_count):
        record = el("rec")
        for _ in range(rng.randint(1, 6)):
            field = el(rng.choice(field_tags))
            if rng.random() < 0.3:
                field.append(el("leaf"))
            record.append(field)
        root.append(record)
    return XmlDocument(root)


@st.composite
def record_document(draw) -> XmlDocument:
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return records(seed, draw(st.integers(min_value=2, max_value=12)))


class TestOrderSoundness:
    @settings(max_examples=25, deadline=None)
    @given(record_document(), st.integers(min_value=0, max_value=10**6))
    def test_positive_order_queries_get_positive_estimates(self, document, seed):
        generator = WorkloadGenerator(document, seed=seed)
        branch_items, trunk_items = generator.order_queries(30)
        if not branch_items:
            return
        system = EstimationSystem.build(
            document, p_variance=0, o_variance=0, build_binary_tree=False
        )
        for item in branch_items + trunk_items:
            estimate = system.estimate(item.query)
            assert estimate >= 0.0
            assert item.actual > 0  # generator guarantee
            assert estimate > 0.0

    @settings(max_examples=25, deadline=None)
    @given(record_document(), st.integers(min_value=0, max_value=10**6))
    def test_trunk_estimate_below_counterpart_bound(self, document, seed):
        """Equation 5 never exceeds the order-free upper bound."""
        from repro.core.noorder import estimate_no_order
        from repro.core.transform import clone_query

        generator = WorkloadGenerator(document, seed=seed)
        _, trunk_items = generator.order_queries(25)
        if not trunk_items:
            return
        system = EstimationSystem.build(
            document, p_variance=0, o_variance=0, build_binary_tree=False
        )
        for item in trunk_items:
            counterpart, mapping = clone_query(item.query, order_to_structural=True)
            bound = estimate_no_order(
                counterpart,
                system.path_provider,
                system.encoding_table,
                target=mapping[item.query.target.node_id],
            )
            assert system.estimate(item.query) <= bound + 1e-9


class TestHistogramMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(record_document())
    # 25 elements on which v=2 needs one bucket more than v=0 (o-histogram
    # 192 -> 204 -> 204 bytes): the case the slack below exists for.
    @example(records(seed=1457, record_count=6))
    def test_order_memory_monotone(self, document):
        # Algorithm 2's greedy box cover is not pointwise monotone in the
        # variance threshold: a looser bound can let an early box grow
        # over cells that would otherwise seed one larger merge, costing
        # an extra bucket or two.  Figure 9's memory-vs-variance claim is
        # a trend, so it is asserted within that greedy jitter.
        from repro.histograms.ohistogram import BUCKET_BYTES

        slack = 2 * BUCKET_BYTES
        sizes = []
        for variance in (0, 2, 8):
            system = EstimationSystem.build(
                document, p_variance=0, o_variance=variance, build_binary_tree=False
            )
            sizes.append(system.summary_sizes().get("o_histogram", 0.0))
        for finer, coarser in zip(sizes, sizes[1:]):
            assert coarser <= finer + slack
