"""Per-seed request schedules over the corpus query pool.

Every workload is a closed loop on one keep-alive connection: the next
request is sent only after the previous reply arrived, because a query
optimizer waits for each estimate.  The hot set is a fixed sample of
the corpus pool, stratified so every dataset contributes every
estimation route; the seed picks the popularity rank of each hot query,
the zipf draw sequence and the order of the cold queries.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Optional

from corpus import DATASETS, DELTA_DATASET

WORKLOADS = ("hot_zipf", "cold_distinct", "write_mix")
ROUTES = ("no_order", "order", "scoped")
ZIPF_S = 1.1
#: 40 per route and dataset: 360 hot queries in all, which fits both the
#: serve default plan cache (512) and semantic cache (4096 per synopsis).
HOT_PER_ROUTE = 40
#: The hot set itself is fixed, so every run serves the same queries and
#: ``mean_rel_error`` is a property of the program, not of the seed.
HOT_SET_SEED = 0
#: write_mix sends one ``POST /delta`` before every this many reads.
READS_PER_DELTA = 1000


class Item(NamedTuple):
    dataset: str
    text: str
    route: str
    actual: int


class Delta(NamedTuple):
    chunk: int


class Plan(NamedTuple):
    probes: List[Item]  # one per dataset: the set-up's first estimates
    hot: List[Item]  # also the warm-up, sent once in this order
    cold: List[Item]


def make_plan(workload: str, pools: Dict[str, List[dict]], seed: int) -> Plan:
    pick = random.Random(HOT_SET_SEED)
    probes = [Item(ds, pools[ds][0]["text"], pools[ds][0]["route"], pools[ds][0]["actual"])
              for ds in DATASETS]
    hot: List[Item] = []
    cold: List[Item] = []
    for dataset in DATASETS:
        chosen = set()
        for route in ROUTES:
            candidates = [e for e in pools[dataset] if e["route"] == route]
            for entry in pick.sample(candidates, min(HOT_PER_ROUTE, len(candidates))):
                chosen.add(entry["text"])
        for entry in pools[dataset]:
            item = Item(dataset, entry["text"], entry["route"], entry["actual"])
            (hot if entry["text"] in chosen else cold).append(item)
    if workload == "write_mix":
        hot = [item for item in hot if item.dataset == DELTA_DATASET]
        cold = []
    rng = random.Random(seed)
    rng.shuffle(hot)  # list position is the popularity rank
    rng.shuffle(cold)
    return Plan(probes=probes, hot=hot, cold=cold)


def zipf_draws(items: List[Item], rng: random.Random) -> Iterator[Item]:
    """Zipf draws over each synopsis's items by list position, with the
    synopses taking turns so the synopsis mix does not depend on the seed."""
    groups = [[item for item in items if item.dataset == ds] for ds in DATASETS]
    groups = [group for group in groups if group]
    cumulative = [
        list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(group))))
        for group in groups
    ]
    while True:
        draws = [
            rng.choices(group, cum_weights=weights, k=1024)
            for group, weights in zip(groups, cumulative)
        ]
        for turn in zip(*draws):
            yield from turn


def timed_stream(
    workload: str, plan: Plan, seed: int, segment: int, segments: int
) -> Iterator[object]:
    """Segment ``segment`` of ``segments`` of the timed phase:
    :class:`Item` reads and :class:`Delta` uploads.  Each segment has a
    fresh server, so a cold segment sends the cold queries from the
    start, each once, beginning ``segment / segments`` of the way into
    their order, and delta chunks restart at 0."""
    if workload == "cold_distinct":
        start = len(plan.cold) * segment // segments
        yield from plan.cold[start:] + plan.cold[:start]
        return
    draws = zipf_draws(plan.hot, random.Random(seed * 7919 + segment))
    chunk: Optional[int] = 0 if workload == "write_mix" else None
    for count in itertools.count():
        if chunk is not None and count % READS_PER_DELTA == 0:
            yield Delta(chunk)
            chunk += 1
        yield next(draws)
