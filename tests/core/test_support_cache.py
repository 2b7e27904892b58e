"""Tests for the static support cache of the dict-join oracle.

:mod:`tests.pathjoin_oracle` keeps the original dict-of-sets join as the
kernel's bit-identity reference; its support maps and cached initial
state must stay correct for the oracle to be trusted.
"""

import pytest

from repro.core.pathjoin import path_join
from repro.core.providers import ExactPathStats
from repro.pathenc import label_document
from repro.pathenc.encoding import EncodingTable
from repro.pathenc.relationship import Axis
from repro.stats import collect_pathid_frequencies
from repro.xpath import parse_query
from tests.pathjoin_oracle import _SupportCache, oracle_join


@pytest.fixture()
def env(figure1):
    labeled = label_document(figure1)
    provider = ExactPathStats(collect_pathid_frequencies(labeled))
    return provider, labeled.encoding_table


class TestSupportMaps:
    def test_child_support(self, env, pid):
        _, table = env
        down, up, down_alive, up_alive = _SupportCache.support(
            table, "A", [pid[6], pid[7], pid[8]], "B", [pid[5], pid[8]], child=True
        )
        # B(p5) at depth 2 is supported by every A at depth 1.
        assert set(down[(pid[5], 2)]) == {pid[6], pid[7], pid[8]}
        # B(p8) at depth 2 only by A(p8) (equal ids, Case 1).
        assert set(down[(pid[8], 2)]) == {pid[8]}
        assert down_alive[pid[5]] == {2}
        assert up_alive[pid[7]] == {1}

    def test_no_support_for_incompatible(self, env, pid):
        _, table = env
        down, _, _, _ = _SupportCache.support(
            table, "C", [pid[2]], "F", [pid[1]], child=True
        )
        assert down == {}  # p2 cannot contain p1 (Example 4.1)

    def test_cache_reuse_and_extension(self, env, pid):
        _, table = env
        first = _SupportCache.support(table, "A", [pid[6]], "B", [pid[5]], True)
        again = _SupportCache.support(table, "A", [pid[6]], "B", [pid[5]], True)
        assert first is again  # cached object identity
        extended = _SupportCache.support(
            table, "A", [pid[6], pid[7]], "B", [pid[5]], True
        )
        assert (pid[5], 2) in extended[0]
        assert set(extended[0][(pid[5], 2)]) >= {pid[6], pid[7]}

    def test_separate_tables_do_not_share(self, figure1, pid):
        table_a = EncodingTable.from_document(figure1)
        table_b = EncodingTable.from_document(figure1)
        a = _SupportCache.support(table_a, "A", [pid[6]], "B", [pid[5]], True)
        b = _SupportCache.support(table_b, "A", [pid[6]], "B", [pid[5]], True)
        assert a is not b


class TestJoinSharedStateSafety:
    """Both engines share per-tag starting state across joins (the
    oracle caches it on the provider, the kernel in its tag tables)."""

    def test_initial_state_not_mutated_by_joins(self, env, pid):
        provider, table = env
        # A pruning join must not corrupt the cached initial state for
        # subsequent joins.
        narrowing = parse_query("//A/C/F")
        wide = parse_query("//A")
        for join in (oracle_join, path_join):
            first = join(narrowing, provider, table)
            assert set(first.pids(narrowing.root)) == {pid[7]}
            second = join(wide, provider, table)
            assert set(second.pids(wide.root)) == {pid[6], pid[7], pid[8]}

    def test_repeated_joins_are_deterministic(self, env):
        provider, table = env
        query = parse_query("//A[/C/F]/B/D")
        for join in (oracle_join, path_join):
            results = [join(query, provider, table) for _ in range(3)]
            for node in query.nodes():
                assert (
                    results[0].pids(node)
                    == results[1].pids(node)
                    == results[2].pids(node)
                )
