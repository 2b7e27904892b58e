"""Shared fixtures for the compiled-kernel tests.

One estimation system + workload per dataset, package scoped: the
equivalence tests sweep every workload class through both the kernel and
the dict-join oracle, so building the synopses once matters.
"""

from __future__ import annotations

import pytest

from repro.core.system import EstimationSystem
from repro.workload import WorkloadGenerator


def _env(document, name, raw_simple=60, raw_branch=60, raw_order=80):
    workload = WorkloadGenerator(document, seed=13).full_workload(
        raw_simple=raw_simple, raw_branch=raw_branch, raw_order=raw_order
    )
    system = EstimationSystem.build(document, p_variance=0, o_variance=0)
    return name, system, workload


@pytest.fixture()
def figure1_system(figure1):
    return EstimationSystem.build(figure1, p_variance=0, o_variance=0)


@pytest.fixture(scope="package")
def kernel_envs(ssplays_small, dblp_small, xmark_small):
    """``(name, system, workload)`` triples for the three datasets."""
    return [
        _env(ssplays_small, "SSPlays"),
        _env(dblp_small, "DBLP"),
        _env(xmark_small, "XMark"),
    ]
