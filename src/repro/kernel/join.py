"""The bitset path join over a compiled :class:`SynopsisKernel`.

The one engine behind :func:`repro.core.pathjoin.path_join`.  The
per-node state is one Python-int bitset per depth, and each pruning step
is an AND against a memoized OR of containment-matrix rows.  All four
(``fixpoint``, ``depth_consistent``) modes run here:

* **Depth-consistent fixpoint** (the default): forward+backward sweeps
  with per-node version counters until nothing changes — the unique
  arc-consistent fixpoint.
* **Single pass** (``fixpoint=False``): a static pre-pass first drops
  every placement that no placement of its neighbour's *starting* pid
  set could support (at any depth the encoding table allows), then one
  forward sweep runs.  Without the pre-pass a single sweep prunes less.
* **Pairwise** (``depth_consistent=False``): one bitset per node over
  every provider pid (ids without a feasible depth included), the upper
  side of each constraint pruned before the lower; ``depths()`` is
  empty.

Depth-refined statistics seed the depth-consistent modes from the
empirical depths, and a node whose placements were pruned re-sums its
per-depth frequencies over the surviving depths.  Frequencies are summed
over indexes in provider order, so every mode reproduces the dict-based
reference join of the test suite bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.pathjoin import JoinResult, derive_constraints
from repro.kernel.compiled import SynopsisKernel, TagTable, or_rows, popcount
from repro.obs.trace import NULL_TRACER
from repro.pathenc.relationship import Axis
from repro.xpath.ast import Query, QueryAxis, QueryNode

__all__ = ["KernelJoinResult", "QueryPlan", "build_query_plan", "kernel_join"]


class QueryPlan:
    """Resolved constraint steps for one query over one kernel.

    ``node_tables[node_id]`` is the node's interned tag table;
    ``steps`` holds ``(upper_id, lower_id, child?, containment pair)``
    in :func:`derive_constraints` order; ``refined`` is True when some
    node carries depth-refined frequencies.
    """

    __slots__ = ("node_tables", "steps", "refined")

    def __init__(
        self,
        node_tables: Tuple[TagTable, ...],
        steps: Tuple[Tuple[int, int, bool, object], ...],
    ):
        self.node_tables = node_tables
        self.steps = steps
        self.refined = any(table.depth_freqs is not None for table in node_tables)


def build_query_plan(
    kernel: SynopsisKernel, query: Query, tracer=NULL_TRACER
) -> QueryPlan:
    nodes = query.nodes()
    node_tables = tuple(kernel.tag_table(node.tag, tracer) for node in nodes)
    steps = []
    for upper, axis, lower in derive_constraints(query):
        child = axis is Axis.CHILD
        pair = kernel.containment(upper.tag, lower.tag, child, tracer)
        steps.append((upper.node_id, lower.node_id, child, pair))
    return QueryPlan(node_tables, tuple(steps))


class KernelJoinResult(JoinResult):
    """Join result backed by bitset states; same reading API as
    :class:`~repro.core.pathjoin.JoinResult`, materialized on demand in
    ascending index (= provider) order.

    ``states`` is ``None`` for an empty join.  ``depthless`` marks a
    pairwise result (one mask per node, no depths); ``resum[node_id]``
    is True for depth-refined nodes whose placements were pruned, whose
    frequencies are re-summed over the surviving depths.
    """

    def __init__(
        self,
        query: Query,
        tables: Tuple[TagTable, ...],
        states: Optional[List[List[int]]],
        depthless: bool = False,
        resum: Optional[List[bool]] = None,
    ):
        self.query = query
        self._tables = tables
        self._states = states
        self._depthless = depthless
        self._resum = resum
        # Per-node OR of the depth masks; the states are frozen once the
        # fixpoint converges, so the fold is computed at most once per
        # node and shared by every reader.
        self._alive: Optional[List[Optional[int]]] = (
            None if states is None else [None] * len(states)
        )

    def _alive_mask(self, node_id: int) -> int:
        assert self._alive is not None and self._states is not None
        mask = self._alive[node_id]
        if mask is None:
            mask = 0
            for depth_mask in self._states[node_id]:
                mask |= depth_mask
            self._alive[node_id] = mask
        return mask

    def _freqs(self, node_id: int):
        """Index -> frequency for one node's surviving indexes."""
        compiled = self._tables[node_id]
        if self._resum is None or not self._resum[node_id]:
            return compiled.freqs
        # Per-depth frequencies are counts, so the re-sum is exact in
        # any depth order.
        depth_freqs = compiled.depth_freqs
        sums: Dict[int, float] = {}
        for depth, mask in enumerate(self._states[node_id]):
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                sums[index] = sums.get(index, 0.0) + depth_freqs[index].get(depth, 0.0)
                mask ^= low
        return sums

    def pids(self, node: QueryNode) -> Dict[int, float]:
        out: Dict[int, float] = {}
        if self._states is None:
            return out
        pids = self._tables[node.node_id].pids
        freqs = self._freqs(node.node_id)
        alive = self._alive_mask(node.node_id)
        while alive:
            low = alive & -alive
            index = low.bit_length() - 1
            out[pids[index]] = freqs[index]
            alive ^= low
        return out

    def depths(self, node: QueryNode) -> Dict[int, Set[int]]:
        out: Dict[int, Set[int]] = {}
        if self._states is None or self._depthless:
            return out
        state = self._states[node.node_id]
        pids = self._tables[node.node_id].pids
        # One pass over the depth masks, scattering set bits into the
        # per-pid depth sets — instead of re-scanning enumerate(state)
        # once per surviving pid.
        for depth, mask in enumerate(state):
            while mask:
                low = mask & -mask
                pid = pids[low.bit_length() - 1]
                bucket = out.get(pid)
                if bucket is None:
                    out[pid] = {depth}
                else:
                    bucket.add(depth)
                mask ^= low
        return out

    def frequency(self, node: QueryNode) -> float:
        if self._states is None:
            return 0.0
        freqs = self._freqs(node.node_id)
        alive = self._alive_mask(node.node_id)
        # Ascending index order == the provider's order, so the float
        # sum is associativity-identical to a dict sum over the pids.
        total = 0.0
        while alive:
            low = alive & -alive
            total += freqs[low.bit_length() - 1]
            alive ^= low
        return total

    @property
    def empty(self) -> bool:
        return self._states is None

    def survivor_count(self) -> int:
        if self._states is None:
            return 0
        total = 0
        for node_id in range(len(self._states)):
            total += popcount(self._alive_mask(node_id))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._states is None:
            return "<KernelJoinResult empty>"
        counts = [
            popcount(self._alive_mask(node_id))
            for node_id in range(len(self._states))
        ]
        return "<KernelJoinResult pids per node: %s>" % counts


def kernel_join(
    kernel: SynopsisKernel,
    query: Query,
    provider=None,
    tracer=NULL_TRACER,
    max_rounds: int = 64,
    fixpoint: bool = True,
    depth_consistent: bool = True,
) -> KernelJoinResult:
    """The path join on compiled bitsets, in any of its four modes."""
    kernel.joins += 1
    with tracer.aggregate("join") as join_span:
        plan = kernel.query_plan(query, tracer)
        tables = plan.node_tables
        with tracer.aggregate("pathid-match") as match_span:
            if depth_consistent:
                states = [list(compiled.init_at) for compiled in tables]
            else:
                states = [[(1 << len(compiled.pids)) - 1] for compiled in tables]
            if tracer.enabled:
                for node, compiled in zip(query.nodes(), tables):
                    if provider is not None:
                        # Surface the p-histogram lookup traffic of the
                        # join's reads (the tracing provider counts
                        # cells/buckets as a side effect).
                        provider.frequency_pairs(node.tag)
                    match_span.incr(
                        "pids_matched",
                        compiled.alive_count if depth_consistent
                        else len(compiled.pids),
                    )

        if query.root_axis is QueryAxis.CHILD:
            root_id = query.root.node_id
            root_state = states[root_id]
            if not depth_consistent:
                feasible = tables[root_id].feasible_at
                states[root_id] = [feasible[0] if feasible else 0]
            elif root_state:
                states[root_id] = [root_state[0]] + [0] * (len(root_state) - 1)

        resum_check = depth_consistent and plan.refined
        start = states[:] if resum_check else None
        with tracer.aggregate("bitset_join") as bitset_span:
            bitset_span.incr("constraints", len(plan.steps))
            if depth_consistent:
                empty = _depth_rounds(states, plan, fixpoint, max_rounds, join_span)
            else:
                rounds = max_rounds if fixpoint else 1
                empty = _pairwise_rounds(states, plan.steps, rounds, join_span)
        if empty or any(not any(state) for state in states):
            result = KernelJoinResult(query, tables, None)
        else:
            resum = None
            if resum_check:
                # Copy-on-write states: a pruned node holds a new list.
                resum = [
                    compiled.depth_freqs is not None and state is not first
                    for compiled, state, first in zip(tables, states, start)
                ]
            result = KernelJoinResult(
                query, tables, states, depthless=not depth_consistent, resum=resum
            )
        join_span.incr("surviving_pids", result.survivor_count())
    return result


def _depth_rounds(
    states: List[List[int]],
    plan: QueryPlan,
    fixpoint: bool,
    max_rounds: int,
    join_span,
) -> bool:
    """Depth-consistent pruning in place; True when some node died."""
    steps = plan.steps
    if not steps:
        join_span.incr("rounds")
        return False
    if fixpoint:
        schedule = steps + tuple(reversed(steps))
        rounds = max_rounds
    else:
        if _static_prepass(states, plan):
            return True
        schedule = steps
        rounds = 1
    version = [0] * len(states)
    last_seen: List[Tuple[int, int]] = [(-1, -1)] * len(schedule)
    for _ in range(rounds):
        join_span.incr("rounds")
        changed = False
        for index, (uid, lid, child, pair) in enumerate(schedule):
            if last_seen[index] == (version[uid], version[lid]):
                continue
            upper = states[uid]
            lower = states[lid]
            new_upper, new_lower = _prune_step(upper, lower, child, pair, upper)
            if new_lower is not lower:
                states[lid] = new_lower
                version[lid] += 1
                changed = True
                if not any(new_lower):
                    return True
            if new_upper is not upper:
                states[uid] = new_upper
                version[uid] += 1
                changed = True
                if not any(new_upper):
                    return True
            last_seen[index] = (version[uid], version[lid])
        if not changed:
            break
    return False


def _static_prepass(states: List[List[int]], plan: QueryPlan) -> bool:
    """Drop placements no starting placement of a neighbour supports.

    Each node's *static* placements are its starting pid set at every
    depth the encoding table allows; every constraint restricts both of
    its sides against the other side's static placements (all computed
    before any restriction).  True when some node died.
    """
    static = []
    for compiled, state in zip(plan.node_tables, states):
        seeded = 0
        for mask in state:
            seeded |= mask
        static.append([mask & seeded for mask in compiled.feasible_at])
    for uid, lid, child, pair in plan.steps:
        upper, lower = _prune_step(
            states[uid], states[lid], child, pair, static[uid], static[lid]
        )
        states[uid], states[lid] = upper, lower
        if not any(lower) or not any(upper):
            return True
    return False


def _prune_step(
    upper: List[int],
    lower: List[int],
    child: bool,
    pair,
    upper_support: List[int],
    lower_support: Optional[List[int]] = None,
) -> Tuple[List[int], List[int]]:
    """Prune both sides of one constraint; returns (new upper, new lower).

    Lower index j survives at depth dl iff some compatible upper index is
    set in ``upper_support`` at dl-1 (child) / any depth < dl
    (descendant); then upper index i survives at depth du iff some
    compatible lower index is set in ``lower_support`` — by default the
    *new* lower state — at du+1 / any depth > du.  Copy-on-write: an
    unpruned side is returned as the same list.
    """
    down_rows, up_rows = pair.down, pair.up
    down_memo, up_memo = pair.down_memo, pair.up_memo
    upper_len = len(upper)
    lower_len = len(lower)
    support_len = upper_len if upper_support is upper else len(upper_support)

    # Lower side.
    new_lower = lower
    if child:
        for dl in range(lower_len):
            alive = lower[dl]
            if not alive:
                continue
            du = dl - 1
            bits = upper_support[du] if 0 <= du < support_len else 0
            kept = alive & or_rows(down_rows, bits, down_memo) if bits else 0
            if kept != alive:
                if new_lower is lower:
                    new_lower = lower[:]
                new_lower[dl] = kept
    else:
        below = 0
        for dl in range(lower_len):
            du = dl - 1
            if 0 <= du < support_len:
                below |= upper_support[du]
            alive = lower[dl]
            if not alive:
                continue
            kept = alive & or_rows(down_rows, below, down_memo) if below else 0
            if kept != alive:
                if new_lower is lower:
                    new_lower = lower[:]
                new_lower[dl] = kept

    # Upper side.
    if lower_support is None:
        lower_support, support_len = new_lower, lower_len
    else:
        support_len = len(lower_support)
    new_upper = upper
    if child:
        for du in range(upper_len):
            alive = upper[du]
            if not alive:
                continue
            dl = du + 1
            bits = lower_support[dl] if dl < support_len else 0
            kept = alive & or_rows(up_rows, bits, up_memo) if bits else 0
            if kept != alive:
                if new_upper is upper:
                    new_upper = upper[:]
                new_upper[du] = kept
    else:
        above = 0
        for depth in range(upper_len + 1, support_len):
            above |= lower_support[depth]
        for du in range(upper_len - 1, -1, -1):
            dl = du + 1
            if dl < support_len:
                above |= lower_support[dl]
            alive = upper[du]
            if not alive:
                continue
            kept = alive & or_rows(up_rows, above, up_memo) if above else 0
            if kept != alive:
                if new_upper is upper:
                    new_upper = upper[:]
                new_upper[du] = kept
    return new_upper, new_lower


def _pairwise_rounds(
    states: List[List[int]], steps, rounds: int, join_span
) -> bool:
    """Pid-level pairwise pruning in place (the paper's literal test:
    containment on any one path, no depths); True when some node died."""
    masks = [state[0] for state in states]
    for _ in range(rounds):
        join_span.incr("rounds")
        changed = False
        for uid, lid, _child, pair in steps:
            upper, lower = masks[uid], masks[lid]
            if not upper or not lower:
                return True
            kept_upper = upper & or_rows(pair.up, lower, pair.up_memo)
            kept_lower = (
                lower & or_rows(pair.down, kept_upper, pair.down_memo)
                if kept_upper else 0
            )
            if kept_upper != upper or kept_lower != lower:
                changed = True
                masks[uid] = kept_upper
                masks[lid] = kept_lower
        if not changed:
            break
    states[:] = [[mask] for mask in masks]
    return False
