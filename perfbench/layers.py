"""Per-layer split of a traced run, measured from the benchmark's side.

Nothing inside ``src/`` is instrumented.  Every number comes from
timing a call into one layer's public functions on the same requests
the traced socket phase sent:

* the whole request log is replayed, in order, through an in-process
  ``EstimationService`` wired like ``repro serve`` with its default
  flags, over a copy of the served snapshots.  Per request it times
  the JSON decode and reply encode (wire codec), tier selection plus
  ``admit``/``release`` (admission) and ``handle_estimate`` (service),
  and afterwards ``SynopsisRegistry.get`` per synopsis;
* per distinct query text it times ``parse_query``, ``canonical_key``,
  a semantic-cache hit, a plan-cache hit, ``EstimationSystem.estimate``
  with the result cache off and the parse cache emptied (so it parses
  as a served miss does), and ``EstimationSystem.join`` (parse cached)
  on side objects that the replay does not touch;
* kernel compiles, delta scan/apply, snapshot save, build and load are
  timed on their own.

"Self" values subtract the call one layer down on the same request.
``unattributed.share`` is the part of each traced round trip that no
directly timed call covers (socket, HTTP parsing, thread hand-off,
service glue and the server's garbage collection, which an in-process
replay does not reproduce), as a share of that round trip; its median
is reported.  The per-request rows behind the medians are written to
``perfbench/.out/<workload>-seed<seed>-spans.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict, List, Tuple

import corpus
from schedule import ROUTES, Delta, Item

_ns = time.perf_counter_ns


def _timed_ns(call: Callable[[], object]) -> Tuple[int, object]:
    started = _ns()
    result = call()
    return _ns() - started, result


def _median_of(
    call: Callable[[], object], reps: int, before: Callable[[], object] = lambda: None
) -> float:
    """Median ns of ``call`` over ``reps`` runs, each after an untimed
    ``before``, following one untimed warm-up call (kernel tables)."""
    call()
    samples = []
    for _ in range(reps):
        before()
        samples.append(_timed_ns(call)[0])
    return statistics.median(samples)


def serve_defaults(snapshot_dir: str):
    """The ``repro serve`` flags as parsed with nothing but the snapshot dir."""
    from repro.cli import build_parser

    return build_parser().parse_args(["serve", "--snapshot-dir", snapshot_dir])


def build_service(snapshot_dir: str):
    """An in-process ``EstimationService`` wired the way ``repro serve``
    wires it at its default flags (:func:`check_wiring` compares the two
    after a replay)."""
    from repro.cli import _semcache_capacity
    from repro.obs.slowlog import SlowQueryLog
    from repro.reliability import AdmissionGate
    from repro.reliability.brownout import BrownoutController
    from repro.reliability.shedding import TieredAdmissionGate, default_tiers
    from repro.service import EstimationService, PlanCache, SynopsisRegistry

    args = serve_defaults(snapshot_dir)
    registry = SynopsisRegistry(snapshot_dir, check_interval=args.reload_interval)
    registry.scan()
    brownout = None
    if args.no_qos:
        gate = AdmissionGate(max_inflight=args.max_inflight)
    else:
        gate = TieredAdmissionGate(
            tiers=default_tiers(
                args.max_inflight,
                bulk_max_inflight=args.bulk_inflight,
                standard_queue=args.standard_queue,
                request_deadline_s=args.deadline or None,
            ),
            max_total=args.max_inflight,
        )
        if not args.no_brownout:
            brownout = BrownoutController()
    return EstimationService(
        registry,
        plan_cache=PlanCache(args.plan_cache),
        gate=gate,
        semcache_capacity=_semcache_capacity(args),
        semcache_ttl_s=args.semcache_ttl or None,
        request_deadline_s=args.deadline or None,
        slow_log=SlowQueryLog(
            capacity=args.slowlog_capacity,
            threshold_ms=args.slowlog_threshold_ms,
            top_k=args.slowlog_top_k,
        ),
        trace_sample_rate=args.trace_sample_rate,
        brownout=brownout,
    )


#: ``/metrics`` fields that the in-process replay of a request log must
#: reproduce exactly if it is wired like the served process.
_WIRING_FIELDS = (
    ("plan_cache", "capacity"), ("plan_cache", "hits"), ("plan_cache", "misses"),
    ("plan_cache", "evictions"), ("semcache", "capacity"), ("semcache", "served_hits"),
    ("semcache", "served_misses"), ("semcache", "evictions"),
)


def check_wiring(service, served: dict) -> None:
    """Raise unless the replayed ``service`` shows the cache capacities,
    cache counters and admission set-up of the served ``/metrics``."""
    replayed = service.metrics_document()
    differ = [
        "%s.%s: served %r, replayed %r" % (block, field, served[block][field], replayed[block][field])
        for block, field in _WIRING_FIELDS
        if served[block][field] != replayed[block][field]
    ]
    # The gate kind and brownout show as the keys of the reliability block.
    if set(served["reliability"]) != set(replayed["reliability"]):
        differ.append("reliability keys: served %s, replayed %s" % (
            sorted(served["reliability"]), sorted(replayed["reliability"])))
    if differ:
        raise RuntimeError("replay is not wired like repro serve: " + "; ".join(differ))


def _body(request: bytes) -> bytes:
    return request.split(b"\r\n\r\n", 1)[1]


def _replay(service, bench) -> Dict[int, Dict[str, int]]:
    """Replay every logged request in order; per-estimate call times."""
    timings: Dict[int, Dict[str, int]] = {}
    for index, (action, _, _, _) in enumerate(bench.log):
        if isinstance(action, Delta):
            service.handle_delta(json.loads(_body(bench.delta_requests[action.chunk])))
            continue
        raw = _body(bench.requests[(action.dataset, action.text)])
        decode_ns, payload = _timed_ns(lambda: json.loads(raw))
        started = _ns()
        tier = service.select_tier(payload)
        service.admit(tier)
        admit_ns = _ns() - started
        handle_ns, reply = _timed_ns(lambda: service.handle_estimate(payload, tier=tier))
        release_ns, _ = _timed_ns(lambda: service.release(tier))
        encode_ns, _ = _timed_ns(lambda: json.dumps(reply).encode("utf-8"))
        timings[index] = {
            "codec": decode_ns + encode_ns,
            "admit": admit_ns + release_ns,
            "handle": handle_ns,
        }
    return timings


def _observe_ns(metrics, dataset: str) -> int:
    """The metrics calls one served single estimate makes."""
    started = _ns()
    metrics.observe(dataset, 0.0005, queries=1)
    metrics.observe_tier("interactive", latency_s=0.0005)
    metrics.incr("semcache_hits_total")
    metrics.incr("kernel_hits_total")
    return _ns() - started


def _text_timings(systems, keys: List[Tuple[str, str]]) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Per distinct (dataset, text): median ns of each layer's call."""
    from repro.semcache import SemanticResultCache, canonical_key, options_fingerprint
    from repro.service import PlanCache
    from repro.xpath import parse_query
    from repro.xpath.parser import parse_query_cached

    reps = max(1, min(5, 2000 // max(1, len(keys))))
    fingerprint = options_fingerprint(True, True)
    semcache = SemanticResultCache(capacity=len(keys) + 1)
    plans = PlanCache(len(keys) + 1)
    for system in systems.values():
        system.semcache.configure(0, None)  # estimate_us is the uncached path
    out: Dict[Tuple[str, str], Dict[str, float]] = {}
    for dataset, text in keys:
        system = systems[dataset]
        parsed = parse_query(text)
        key = canonical_key(parsed)
        semcache.put(key, fingerprint, 0.0)
        plans.get_or_compile(dataset, 1, system, text)
        out[(dataset, text)] = {
            "parse": _median_of(lambda: parse_query(text), reps),
            "key": _median_of(lambda: canonical_key(parsed), reps),
            "semget": _median_of(lambda: semcache.get(key, fingerprint), reps),
            "planget": _median_of(lambda: plans.get_or_compile(dataset, 1, system, text), reps),
            # A served miss parses the text for the first time, so the
            # shared parse cache is emptied before each timed estimate.
            "estimate": _median_of(
                lambda: system.estimate(text), reps, before=parse_query_cached.cache_clear
            ),
            "join": _median_of(lambda: system.join(text), reps),
        }
    return out


def _compile_ms(systems, datasets) -> float:
    samples = []
    for dataset in datasets:
        system = systems[dataset]
        for _ in range(3):
            system.invalidate_kernel()
            samples.append(_timed_ns(lambda: system.kernel().compile_full())[0])
    return statistics.median(samples) / 1e6


def _delta_ms(system, chunks: List[str], work: str) -> Dict[str, float]:
    """Scan, apply and snapshot save of the first delta chunks, in-process."""
    from repro import persist

    maintainer = system.incremental
    path = os.path.join(work, "delta-save.json")
    scan, apply, save = [], [], []
    for text in chunks[:7]:
        elapsed, partial = _timed_ns(lambda: maintainer.scan_fragment(text))
        scan.append(elapsed)
        elapsed, outcome = _timed_ns(lambda: maintainer.apply(partial))
        apply.append(elapsed)
        save.append(_timed_ns(lambda: persist.save(outcome.system, path))[0])
    return {
        "delta.scan_ms": statistics.median(scan) / 1e6,
        "delta.apply_ms": statistics.median(apply) / 1e6,
        "persist.save_ms": statistics.median(save) / 1e6,
    }


def _build_s(xml_dir: str, work: str) -> Dict[str, float]:
    """``repro snapshot``'s build and save, in-process, per dataset."""
    from repro import persist
    from repro.build.builder import build_synopsis
    from repro.cluster.delta import IncrementalSynopsis

    out = {}
    for dataset in corpus.DATASETS:
        path = corpus.xml_path(xml_dir, dataset)
        started = _ns()
        if dataset == corpus.DELTA_DATASET:
            system = IncrementalSynopsis.build(path, name=dataset).system
        else:
            system = build_synopsis(path, name=dataset)
        persist.save(system, os.path.join(work, "build-%s.json" % dataset))
        out["build.snapshot_s." + dataset] = (_ns() - started) / 1e9
    return out


def measure(
    bench, replay_dir: str, rtt_ns: Dict[int, int], served: dict
) -> Tuple[Dict[str, float], List[dict]]:
    """Per-layer metrics for the traced requests, and the per-request rows
    (layer durations in ns, keyed by the request's log index) they are
    the medians of.

    ``replay_dir`` holds a copy of the snapshots as served before the
    first request (the replay's delta write-backs rewrite it);
    ``rtt_ns`` maps log index to the traced round trip; ``served`` is the
    server's ``/metrics`` after the socket phase.
    """
    from repro import persist
    from repro.service.metrics import ServiceMetrics

    metrics: Dict[str, float] = {}
    systems = {}
    for dataset in corpus.DATASETS:
        path = os.path.join(replay_dir, dataset + ".json")
        elapsed, systems[dataset] = _timed_ns(lambda: persist.load(path))
        metrics["persist.load_s." + dataset] = elapsed / 1e9
    service = build_service(replay_dir)
    timings = _replay(service, bench)
    check_wiring(service, served)
    # The registry's per-request freshness check (stat, read and checksum
    # of the snapshot at the default reload interval of 0).
    registry_ns = {
        dataset: _median_of(lambda: service.registry.get(dataset), 51)
        for dataset in corpus.DATASETS
    }

    traced = [
        index for index in sorted(rtt_ns)
        if isinstance(bench.log[index][0], Item) and bench.log[index][2] == 200
    ]
    keys = sorted({(bench.log[i][0].dataset, bench.log[i][0].text) for i in traced})
    per_text = _text_timings(systems, keys)
    side_metrics = ServiceMetrics()

    rows = []
    for index in traced:
        action, _, _, body = bench.log[index]
        cache = json.loads(body)["result"]["cache"]
        text = per_text[(action.dataset, action.text)]
        call = timings[index]
        if cache["plan"]:
            inner = text["planget"]
        elif cache["result"]:
            inner = text["parse"] + text["key"] + text["semget"]
        else:
            inner = text["estimate"] + text["key"] + text["semget"]
        observe = _observe_ns(side_metrics, action.dataset)
        registry = registry_ns[action.dataset]
        rtt = rtt_ns[index]
        covered = call["codec"] + call["admit"] + registry + observe + inner
        rows.append({
            "request": index,
            "dataset": action.dataset,
            "route": action.route,
            "rtt": rtt,
            "transport_self": rtt - call["handle"],
            "codec": call["codec"],
            "handle": call["handle"],
            "service_self": call["handle"] - registry - inner - observe,
            "registry": registry,
            "admit": call["admit"],
            "observe": observe,
            "unattributed_share": (rtt - covered) / rtt,
            **text,
            "core_self": text["estimate"] - text["parse"] - text["join"],
        })

    def median(field: str, route: str = "") -> float:
        values = [row[field] for row in rows if not route or row["route"] == route]
        if not values:
            raise RuntimeError("no traced %s request to measure %s on" % (route, field))
        return statistics.median(values)

    for name, field in (
        ("transport.rtt_us", "rtt"),
        ("transport.self_us", "transport_self"),
        ("wire.codec_us", "codec"),
        ("service.handle_us", "handle"),
        ("service.self_us", "service_self"),
        ("admission.admit_us", "admit"),
        ("registry.get_us", "registry"),
        ("metrics.observe_us", "observe"),
        ("plancache.get_us", "planget"),
        ("semcache.key_us", "key"),
        ("semcache.get_us", "semget"),
        ("xpath.parse_us", "parse"),
        ("kernel.join_us", "join"),
    ):
        metrics[name] = median(field) / 1e3
    metrics["unattributed.share"] = median("unattributed_share")
    for route in ROUTES:
        metrics["system.estimate_us." + route] = median("estimate", route) / 1e3
        metrics["core.self_us." + route] = median("core_self", route) / 1e3
    read_datasets = sorted({bench.log[i][0].dataset for i in traced})
    metrics["kernel.compile_ms"] = _compile_ms(systems, read_datasets)
    metrics.update(_delta_ms(systems[corpus.DELTA_DATASET], bench.chunks, bench.work))
    metrics.update(_build_s(bench.xml_dir, bench.work))
    return metrics, rows
