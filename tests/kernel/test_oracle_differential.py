"""Differential test: the kernel join vs the dict-join oracle.

Seeded random documents — the level-tagged trees of the integration
properties plus recursive ones, where depth consistency and depth-refined
statistics actually matter — and random branch / order queries over their
tags.  For every provider kind (p-histogram, exact, depth-refined, and
each of those behind the tracing decorator) and all four (``fixpoint``,
``depth_consistent``) modes, the kernel's :class:`JoinResult` must equal
the oracle's in ``pids`` (values and order), ``depths``, ``frequency``
and ``empty``.

The cases the kernel must reproduce exactly:

* **single pass** runs the static pre-pass (support over the starting
  pid sets at every encoding-table depth) before its one forward sweep;
* **pairwise** starts from every provider pid, feasible depth or not,
  prunes the upper side before the lower, and reports no depths;
* **depth-refined** statistics seed from the empirical depths and re-sum
  per-depth frequencies of pruned pids.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pathjoin import path_join
from repro.core.providers import ExactPathStats
from repro.histograms.phistogram import PHistogramSet
from repro.obs.providers import TracingPathStats
from repro.obs.trace import Tracer
from repro.pathenc import label_document
from repro.stats import collect_pathid_frequencies
from repro.stats.depth_refined import DepthRefinedPathStats
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument
from repro.xmltree.node import XmlNode
from repro.xpath import parse_query
from tests.integration.test_properties import random_document
from tests.kernel.test_containment import random_case
from tests.pathjoin_oracle import oracle_join

MODES = [
    (fixpoint, depth_consistent)
    for fixpoint in (True, False)
    for depth_consistent in (True, False)
]


@st.composite
def recursive_document(draw) -> XmlDocument:
    """A small random tree over a tiny alphabet: tags repeat at several
    depths, so (tag, pid) groups span recursion levels."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    alphabet = "abc"[: draw(st.integers(min_value=2, max_value=3))]
    max_depth = draw(st.integers(min_value=2, max_value=6))

    def grow(node: XmlNode, depth: int) -> None:
        if depth > max_depth:
            return
        for _ in range(rng.randint(0, 3)):
            grow(node.append(el(rng.choice(alphabet))), depth + 1)

    root = el("a")
    grow(root, 1)
    return XmlDocument(root)


def random_query_text(rng: random.Random, tags) -> str:
    """A trunk of 1-3 steps, optionally with a structural or
    sibling-order predicate on one step."""

    def step() -> str:
        return rng.choice(["/", "//"]) + rng.choice(tags)

    trunk = [step() for _ in range(rng.randint(1, 3))]
    roll = rng.random()
    if roll < 0.6:
        predicate = "".join(step() for _ in range(rng.randint(1, 2)))
        if roll < 0.2:
            predicate += "/%s::%s" % (
                rng.choice(["folls", "pres", "foll", "pre"]), rng.choice(tags)
            )
        position = rng.randrange(len(trunk))
        trunk[position] += "[%s]" % predicate
    return "".join(trunk)


def providers(document: XmlDocument):
    """The encoding table and every provider kind built over it
    (p-histograms exact and bucketed, exact, depth-refined)."""
    labeled = label_document(document)
    table = collect_pathid_frequencies(labeled)
    return labeled.encoding_table, [
        PHistogramSet.from_table(table, 0.0),
        PHistogramSet.from_table(table, 4.0),
        ExactPathStats(table),
        DepthRefinedPathStats.collect(labeled),
    ]


def assert_same_join(
    query, provider, oracle_provider, table, fixpoint, depth_consistent,
    tracer=None,
):
    modes = dict(fixpoint=fixpoint, depth_consistent=depth_consistent)
    if tracer is None:
        kernel = path_join(query, provider, table, **modes)
    else:
        kernel = path_join(query, provider, table, tracer=tracer, **modes)
    oracle = oracle_join(query, oracle_provider, table, **modes)
    where = (query.to_string(), fixpoint, depth_consistent)
    assert kernel.empty == oracle.empty, where
    for node in query.nodes():
        kernel_pids, oracle_pids = kernel.pids(node), oracle.pids(node)
        assert kernel_pids == oracle_pids, where
        assert list(kernel_pids) == list(oracle_pids), where  # provider order
        assert kernel.depths(node) == oracle.depths(node), where
        assert kernel.frequency(node) == oracle.frequency(node), where


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(random_document(), recursive_document()),
    st.integers(min_value=0, max_value=10**6),
)
def test_kernel_join_equals_oracle(document, query_seed):
    rng = random.Random(query_seed)
    table, all_providers = providers(document)
    tags = sorted({node.tag for node in document})
    queries = [parse_query(random_query_text(rng, tags)) for _ in range(6)]
    for provider in all_providers:
        for query in queries:
            for fixpoint, depth_consistent in MODES:
                assert_same_join(
                    query, provider, provider, table, fixpoint, depth_consistent
                )
                tracer = Tracer("differential")
                assert_same_join(
                    query,
                    TracingPathStats(provider, tracer),
                    TracingPathStats(provider, Tracer("oracle")),
                    table, fixpoint, depth_consistent, tracer=tracer,
                )


@pytest.mark.parametrize("seed", range(16))
def test_arbitrary_pid_sets_equal_oracle(seed):
    """Synthetic pid sets over recursive encoding tables: some ids have no
    feasible depth for their tag, which the pairwise join must keep and
    the depth-consistent joins must drop."""
    table, provider, tags = random_case(seed)
    rng = random.Random(seed)
    for _ in range(10):
        query = parse_query(random_query_text(rng, tags))
        for fixpoint, depth_consistent in MODES:
            assert_same_join(
                query, provider, provider, table, fixpoint, depth_consistent
            )
