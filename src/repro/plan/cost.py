"""The planner's cost model: estimates in, step costs out.

Every quantity the planner needs reduces to selectivity estimates of
*sub-patterns* of the query:

* the **initial size** of a pattern node's candidate list — the path
  join's pid-pruned frequency ``f_Q(n)`` when path-id pruning is on,
  the tag's total frequency otherwise;
* the **filter factor** of a branch set ``S`` at node ``u`` — how much
  of ``u``'s list survives semijoining against those branches:
  ``est(spine(u) + S) / est(spine(u))``;
* the **reduced size** of a node after its whole subtree has filtered
  it — ``initial × factor(all edges)``.

A semijoin step sweeps both of its input lists, so its cost is
``weight(axis) × (E[filtered list] + E[partner list])`` with per-axis
weights reflecting the primitives' constants (descendant semijoins pay
a binary search per element, sibling semijoins a per-parent map).

Sub-pattern estimates are memoized by rendered query text in a
:class:`CostModel` shared across queries (and service threads — a
duplicated compute is wasted work, never a wrong answer), which is also
what fixes the old planner's quadratic re-estimation on bushy queries:
every distinct sub-pattern is estimated exactly once per synopsis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.xpath.ast import Edge, Query, QueryAxis, QueryNode

__all__ = ["AXIS_WEIGHTS", "CostModel", "PatternCost", "step_cost"]

#: Relative per-item sweep cost of the semijoin primitives by axis.
#: CHILD is the O(n + m) hash sweep baseline; DESCENDANT pays a binary
#: search per candidate; the sibling-order axes build a per-parent
#: extremum map.
AXIS_WEIGHTS = {
    QueryAxis.CHILD: 1.0,
    QueryAxis.DESCENDANT: 1.25,
    QueryAxis.FOLLS: 1.1,
    QueryAxis.PRES: 1.1,
}

#: Weight for axes outside the table (scoped order, future axes).
DEFAULT_AXIS_WEIGHT = 1.5


def step_cost(axis: QueryAxis, filtered_size: float, partner_size: float) -> float:
    """Expected cost of one semijoin step over the two input lists."""
    return AXIS_WEIGHTS.get(axis, DEFAULT_AXIS_WEIGHT) * (filtered_size + partner_size)


class CostModel:
    """Memoized sub-pattern estimates over one estimation system.

    The memo is keyed by rendered sub-query text, so repeated
    sub-patterns — across edges of one query, across queries, across
    replans — cost one estimate total.  ``None`` entries record
    sub-patterns the estimator cannot handle (e.g. more than one order
    axis after slicing); the planner treats those as neutral.
    """

    def __init__(self, system) -> None:
        self.system = system
        self._estimates: Dict[str, Optional[float]] = {}
        self._tag_totals: Dict[str, float] = {}
        self._freq_maps: Dict[str, Dict[int, float]] = {}
        self.hits = 0
        self.misses = 0

    # -- caching -------------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._estimates),
        }

    def clear(self) -> None:
        """Drop all memoized estimates (synopsis replaced or mutated)."""
        self._estimates.clear()
        self._tag_totals.clear()
        self._freq_maps.clear()

    # -- primitive quantities ------------------------------------------

    def subpattern_estimate(self, subquery: Query) -> Optional[float]:
        """Estimated target cardinality of ``subquery`` (memoized)."""
        key = subquery.to_string()
        if key in self._estimates:
            self.hits += 1
            return self._estimates[key]
        self.misses += 1
        try:
            value: Optional[float] = float(self.system.estimate(subquery))
        except Exception:
            value = None  # unestimable slice: neutral for planning
        self._estimates[key] = value
        return value

    def tag_total(self, tag: str) -> float:
        """Total frequency of ``tag`` in the synopsis (memoized)."""
        cached = self._tag_totals.get(tag)
        if cached is None:
            cached = self.system.kernel().tag_total(tag)
            self._tag_totals[tag] = cached
        return cached

    def frequency_map(self, tag: str) -> Dict[int, float]:
        """Raw per-pid frequencies of ``tag`` (memoized)."""
        cached = self._freq_maps.get(tag)
        if cached is None:
            cached = dict(self.system.path_provider.frequency_map(tag))
            self._freq_maps[tag] = cached
        return cached

    # -- per-query view ------------------------------------------------

    def prepare(self, query: Query, use_path_ids: bool = True) -> "PatternCost":
        return PatternCost(self, query, use_path_ids)


class PatternCost:
    """Cost-model quantities for one query pattern.

    Holds the one path join the initial sizes come from and the per-node
    factor memos; the underlying sub-pattern estimates live in the
    shared :class:`CostModel`.
    """

    def __init__(self, model: CostModel, query: Query, use_path_ids: bool):
        self.model = model
        self.query = query
        self.use_path_ids = use_path_ids
        self._join = None
        if use_path_ids:
            try:
                self._join = model.system.join(query)
            except Exception:
                self._join = None  # fall back to tag totals
        self._factors: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        self._finals: Dict[int, float] = {}

    # -- sizes ---------------------------------------------------------

    def initial(self, node: QueryNode) -> float:
        """Expected initial candidate-list size of ``node``.

        With path-id pruning: the *raw* frequency summed over the pids
        the path join keeps — exactly the pruned list length under exact
        statistics.  Without pruning, the tag's total frequency.
        """
        if self._join is not None:
            freqs = self.model.frequency_map(node.tag)
            return float(
                sum(freqs.get(pid, 0.0) for pid in self._join.pids(node))
            )
        return self.model.tag_total(node.tag)

    def factor(self, node: QueryNode, positions: Sequence[int]) -> float:
        """Fraction of ``node``'s list surviving the branch subset.

        ``positions`` index into ``node.edges``; each branch is taken
        with its *full* subtree, so ``factor(node, all)`` prices the
        node's entire downstream reduction.

        With path-id pruning active the factors are neutral (``1.0``):
        the path join has already applied every constraint the synopsis
        can see, so the estimator predicts no further pid-level
        reduction — any element-level shrink the semijoins still achieve
        shows up as (legitimate) drift only when the statistics and the
        document disagree.
        """
        if self._join is not None:
            return 1.0
        key = (node.node_id, tuple(sorted(positions)))
        cached = self._factors.get(key)
        if cached is not None:
            return cached
        if not key[1]:
            value = 1.0
        else:
            base = self.model.subpattern_estimate(self._subquery(node, ()))
            kept = self.model.subpattern_estimate(self._subquery(node, key[1]))
            if base is None or kept is None or base <= 0.0:
                value = 1.0
            else:
                value = min(1.0, kept / base)
        self._factors[key] = value
        return value

    def marginal(self, node: QueryNode, applied: Sequence[int], position: int) -> float:
        """Incremental filter factor of one more branch after ``applied``."""
        before = self.factor(node, applied)
        after = self.factor(node, tuple(applied) + (position,))
        if before <= 0.0:
            return 1.0
        return min(1.0, after / before)

    def reduced(self, node: QueryNode) -> float:
        """Expected size of ``node``'s list once its subtree reduced it."""
        return self.initial(node) * self.factor(node, range(len(node.edges)))

    def partner(self, node: QueryNode) -> float:
        """Expected size of ``node``'s list when its parent edge joins it.

        With path-id pruning this is the joined ``f_Q(n)`` — the
        constraint-propagated frequency, the sharpest size signal the
        synopsis offers; without pruning it is the factor-model
        :meth:`reduced` size.
        """
        if self._join is not None:
            return float(self._join.frequency(node))
        return self.reduced(node)

    def final(self, node: QueryNode) -> float:
        """Expected size of ``node``'s list in the fully reduced pattern."""
        cached = self._finals.get(node.node_id)
        if cached is None:
            estimate = self.model.subpattern_estimate(self._retarget(node))
            cached = self.reduced(node) if estimate is None else estimate
            self._finals[node.node_id] = cached
        return cached

    # -- sub-query construction ----------------------------------------

    def _subquery(self, node: QueryNode, positions: Tuple[int, ...]) -> Query:
        """Spine root→``node`` plus the selected branches, target ``node``."""
        query = self.query
        spine = query.spine_to(node)
        clones: Dict[int, QueryNode] = {}

        def clone_chain(index: int) -> QueryNode:
            original = spine[index]
            copy = QueryNode(original.tag)
            clones[original.node_id] = copy
            if index + 1 < len(spine):
                link = query.parent_link(spine[index + 1])
                assert link is not None
                copy.edges.append(Edge(link[0], clone_chain(index + 1), False))
            else:
                for position in positions:
                    edge = node.edges[position]
                    copy.edges.append(
                        Edge(edge.axis, copy_subtree(edge.node), edge.is_predicate)
                    )
            return copy

        root = clone_chain(0)
        return Query(root, query.root_axis, target=clones[node.node_id])

    def _retarget(self, node: QueryNode) -> Query:
        """A clone of the full pattern with ``node`` as the target."""
        query = self.query
        clones: Dict[int, QueryNode] = {}

        def clone(original: QueryNode) -> QueryNode:
            copy = QueryNode(original.tag)
            clones[original.node_id] = copy
            for edge in original.edges:
                copy.edges.append(Edge(edge.axis, clone(edge.node), edge.is_predicate))
            return copy

        root = clone(query.root)
        return Query(root, query.root_axis, target=clones[node.node_id])


def copy_subtree(node: QueryNode) -> QueryNode:
    """Deep copy of a pattern subtree (ids re-assigned on finalize)."""
    copy = QueryNode(node.tag)
    for edge in node.edges:
        copy.edges.append(Edge(edge.axis, copy_subtree(edge.node), edge.is_predicate))
    return copy
