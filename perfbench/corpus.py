"""Benchmark inputs: XML files on disk and the Section-7 query pool.

The corpus depends only on the dataset scale.  Documents come from
``repro.datasets`` at their default seeds and queries from
``repro.workload.WorkloadGenerator`` at a fixed seed, with the exact
count of every query evaluated on the document that is served.  That
evaluation takes seconds per dataset, so the corpus is written once
under ``perfbench/.cache/`` and reused by every later run at the same
scale.  What a run seed changes (popularity ranks, draw sequence,
cold order) is derived from the corpus in milliseconds by
:mod:`schedule`.

DBLP is served delta-capable from the first ``BASE_SHARE`` of its
top-level records; the held-back records are cut into fixed chunks of
``CHUNK_RECORDS`` that ``POST /delta`` appends in document order.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

DATASETS = ("SSPlays", "DBLP", "XMark")
DELTA_DATASET = "DBLP"
BASE_SHARE = 0.8
CHUNK_RECORDS = 5
WORKLOAD_SEED = 17
RAW_PER_CLASS = 700
RAW_SCOPED = 300
#: Bump when the corpus layout or its generation parameters change, so
#: a stale cache is never reused.
CORPUS_VERSION = 1

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_ROOT = os.path.join(HERE, ".cache")


def corpus_dir(scale: float) -> str:
    return os.path.join(CACHE_ROOT, "corpus-v%d-scale%g" % (CORPUS_VERSION, scale))


def xml_path(directory: str, dataset: str) -> str:
    return os.path.join(directory, dataset + ".xml")


def _query_pool(document) -> List[Dict[str, object]]:
    """Every distinct Section-7 query of one document, with its exact
    count and the estimation route the system takes for it."""
    from repro.core.system import EstimationSystem
    from repro.workload import WorkloadGenerator

    generator = WorkloadGenerator(document, seed=WORKLOAD_SEED)
    workload = generator.full_workload(RAW_PER_CLASS, RAW_PER_CLASS, RAW_PER_CLASS)
    items = (
        workload.simple + workload.branch + workload.order_branch
        + workload.order_trunk + generator.scoped_order_queries(RAW_SCOPED)
    )
    pool: List[Dict[str, object]] = []
    seen = set()
    for item in items:
        if item.text in seen:
            continue
        seen.add(item.text)
        pool.append({
            "text": item.text,
            "route": EstimationSystem.select_route(item.query),
            "actual": item.actual,
        })
    return pool


def _generate(directory: str, scale: float) -> None:
    from repro.datasets import generate
    from repro.xmltree.parser import parse_xml
    from repro.xmltree.serializer import serialize

    staging = directory + ".tmp-%d" % os.getpid()
    os.makedirs(staging)
    pools: Dict[str, List[Dict[str, object]]] = {}
    for dataset in DATASETS:
        document = generate(dataset, scale=scale)
        if dataset == DELTA_DATASET:
            root = document.root
            records = [serialize(child) for child in root.children]
            keep = int(len(records) * BASE_SHARE)
            text = "<%s>%s</%s>" % (root.tag, "".join(records[:keep]), root.tag)
            held = records[keep:]
            chunks = [
                "".join(held[i:i + CHUNK_RECORDS])
                for i in range(0, len(held), CHUNK_RECORDS)
            ]
            with open(os.path.join(staging, "deltas.json"), "w") as handle:
                json.dump({"root_tag": root.tag, "chunks": chunks}, handle)
            document = parse_xml(text, name=dataset)
        else:
            text = serialize(document)
        with open(xml_path(staging, dataset), "w", encoding="utf-8") as handle:
            handle.write(text)
        pools[dataset] = _query_pool(document)
    with open(os.path.join(staging, "pool.json"), "w") as handle:
        json.dump(pools, handle)
    os.rename(staging, directory)


def ensure(scale: float) -> str:
    """The corpus directory for ``scale``, generating it on first use."""
    directory = corpus_dir(scale)
    if not os.path.isdir(directory):
        started = time.perf_counter()
        _generate(directory, scale)
        print(
            "corpus generated in %.1fs: %s" % (time.perf_counter() - started, directory),
            flush=True,
        )
    return directory


def load(directory: str):
    """``(pools, deltas)`` of a generated corpus."""
    with open(os.path.join(directory, "pool.json")) as handle:
        pools = json.load(handle)
    with open(os.path.join(directory, "deltas.json")) as handle:
        deltas = json.load(handle)
    return pools, deltas
