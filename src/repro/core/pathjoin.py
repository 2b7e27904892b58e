"""The path join (Section 4 of the paper).

For each query node the join starts from every (path id, frequency) pair of
its tag and prunes ids that cannot satisfy the query's structural
constraints, using the containment tests of Section 2.

Constraint derivation from the pattern edges:

* a structural edge ``U -/-> L`` or ``U -//-> L`` constrains (U, L) with
  the child / descendant relationship;
* a sibling-order edge ``X -folls/pres-> Y`` makes ``Y`` a child of ``X``'s
  structural parent ``P``, related to ``P`` by the same axis that relates
  ``X`` to ``P`` (siblings share the parent);
* a scoped-order edge ``X -foll/pre-> Y`` places ``Y`` somewhere below
  ``P``, i.e. a descendant constraint (P, Y).

**Depth-consistent containment.**  The paper checks the tag relationship
"in any one of the root-to-leaf paths" of the contained id.  Under
recursive schemas (XMark's ``parlist``/``listitem``) that pairwise test
lets a chain query match through *different* recursion levels per step and
breaks the exactness of Theorem 4.1.  Because a document node lies on every
path of its id at one fixed depth, each ``(tag, id)`` group has a feasible
depth set (:meth:`~repro.pathenc.encoding.EncodingTable.tag_depths`), and
the join can propagate (id, depth) survival instead of id survival alone.
This is the default; ``depth_consistent=False`` restores the plain pairwise
test for the ablation benchmark (DESIGN.md §5).

The paper prunes each adjacent pair with a nested loop; we optionally
iterate the pairwise pruning to a fixpoint — a pruned id can enable further
pruning upstream (Figure 3 needs two passes to reach the published state).
``fixpoint=False`` keeps the single-pass behaviour for the other ablation.

This module owns the join's contract — :class:`JoinResult` and the
constraint derivation — and the :func:`path_join` entry point; the join
itself runs on the compiled bitset kernel (:mod:`repro.kernel.join`) in
every mode.  The original dict-of-sets implementation lives on in the
test suite as the kernel's bit-identity oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.providers import PathStatsProvider
from repro.kernel.compiled import live_kernel
from repro.obs.trace import NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.pathenc.relationship import Axis
from repro.xpath.ast import Query, QueryAxis, QueryNode

_STRUCTURAL_AXIS = {
    QueryAxis.CHILD: Axis.CHILD,
    QueryAxis.DESCENDANT: Axis.DESCENDANT,
}


class JoinResult:
    """Surviving (path id → frequency) maps per query node."""

    def __init__(
        self,
        query: Query,
        surviving: List[Dict[int, float]],
        depths: Optional[List[Dict[int, Set[int]]]] = None,
    ):
        self.query = query
        self._surviving = surviving
        self._depths = depths

    def pids(self, node: QueryNode) -> Dict[int, float]:
        """Surviving path ids (and their frequencies) of one query node."""
        return dict(self._surviving[node.node_id])

    def depths(self, node: QueryNode) -> Dict[int, Set[int]]:
        """Surviving (path id → feasible depths); empty in pairwise mode."""
        if self._depths is None:
            return {}
        return {pid: set(ds) for pid, ds in self._depths[node.node_id].items()}

    def frequency(self, node: QueryNode) -> float:
        """The paper's f_Q(n): summed frequency of surviving ids."""
        return sum(self._surviving[node.node_id].values())

    @property
    def empty(self) -> bool:
        """True when any node lost all its path ids (negative query)."""
        return any(not pids for pids in self._surviving)

    def survivor_count(self) -> int:
        """Total surviving path ids across all nodes (trace counter)."""
        return sum(len(pids) for pids in self._surviving)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = [len(pids) for pids in self._surviving]
        return "<JoinResult pids per node: %s>" % counts


def derive_constraints(query: Query) -> List[Tuple[QueryNode, Axis, QueryNode]]:
    """All (upper, axis, lower) structural constraints implied by a query."""
    constraints: List[Tuple[QueryNode, Axis, QueryNode]] = []
    for axis, source, dest in query.iter_edges():
        if axis.is_structural:
            constraints.append((source, _STRUCTURAL_AXIS[axis], dest))
            continue
        parent_link = query.parent_link(source)
        if axis.is_sibling_order:
            if parent_link is None:
                # The order edge hangs off the query root: the sibling pair
                # lives under an unknown document node; no upper constraint
                # can be derived from path ids alone.
                continue
            parent_axis, parent = parent_link
            if parent_axis.is_structural:
                constraints.append((parent, _STRUCTURAL_AXIS[parent_axis], dest))
            else:
                # Source is itself order-connected: fall back to the nearest
                # structural ancestor with a descendant constraint.
                anchor = _structural_anchor(query, parent)
                if anchor is not None:
                    constraints.append((anchor, Axis.DESCENDANT, dest))
        else:  # scoped foll/pre: dest lives below source's structural parent
            anchor = _structural_anchor(query, source)
            if anchor is not None:
                constraints.append((anchor, Axis.DESCENDANT, dest))
    return constraints


def _structural_anchor(query: Query, node: QueryNode) -> Optional[QueryNode]:
    """Nearest edge-ancestor reached via a structural edge's source."""
    link = query.parent_link(node)
    while link is not None:
        axis, parent = link
        if axis.is_structural:
            return parent
        link = query.parent_link(parent)
    return None




def path_join(
    query: Query,
    provider: PathStatsProvider,
    table: EncodingTable,
    fixpoint: bool = True,
    depth_consistent: bool = True,
    max_rounds: int = 64,
    tracer=NULL_TRACER,
) -> JoinResult:
    """Run the path join and return the surviving id sets.

    The join runs on the live compiled kernel of (``provider``,
    ``table``) — :func:`repro.kernel.live_kernel` compiles one on first
    use and hands every later join the same one until the synopsis is
    invalidated.  A tracing provider is unwrapped for the lookup and
    still sees the per-node reads, so traced joins report their
    ``p-hist lookup`` traffic.

    ``tracer`` (a :class:`repro.obs.trace.Tracer` or the default no-op
    :data:`~repro.obs.trace.NULL_TRACER`) accrues a ``join`` aggregate
    span with ``pathid-match`` nested under it; repeated joins inside
    one estimate merge into one span each.
    """
    return live_kernel(provider, table).join(
        query,
        provider=provider,
        tracer=tracer,
        max_rounds=max_rounds,
        fixpoint=fixpoint,
        depth_consistent=depth_consistent,
    )
