"""Extra experiment — observability overhead, tracing off vs on.

The tentpole constraint of the observability layer: the hooks compiled
into the estimator (null-tracer span sites in the path join, the
histogram providers and the service handler) must be effectively free
when tracing is off.  Two measurements:

* **in-process** — a tight estimation loop over the Table-2 workload via
  the legacy ``estimate()`` float path, via ``query()`` with tracing off
  (the redesigned API's default), and via ``query(trace=True)``.  The
  off/legacy gap is the per-call cost of the structured-result API plus
  every dormant span site; the on/off gap is what a traced request pays.
* **service** — the throughput drive of ``bench_service_throughput``
  with ``trace_sample_rate=0`` vs ``1.0`` (every request traced,
  slow-query log fed, result objects serialized).

The trace-off overhead budget is 2%; timing jitter on shared CI boxes
can exceed that on its own, so the hard gate is a looser sanity bound
and the measured percentages are recorded in the report table for the
regression check to eyeball.
"""

from __future__ import annotations

import threading
import time

from repro.core.options import EstimateOptions
from repro.harness.tables import format_table, record_result
from repro.service import (
    EstimationService,
    PlanCache,
    EndpointClient,
    ServiceServer,
    SynopsisRegistry,
)

#: Options objects reused across the timed loops (allocation-free).
DETAIL = EstimateOptions(detail=True)
TRACED = EstimateOptions(trace=True)

#: Budget for trace-off overhead (documented target; the hard assert
#: below allows timing jitter on top).
OVERHEAD_BUDGET = 0.02
#: Hard gate: trace-off must never cost more than this, jitter included.
OVERHEAD_HARD_LIMIT = 0.15

MAX_QUERIES = 60
REPEATS = 9
CLIENT_THREADS = 4
PASSES_PER_THREAD = 2


def _best_loop_s(actions, repeats=None):
    """Best-of-N loop time for each action, samples interleaved.

    Round-robin interleaving cancels clock-speed drift between the
    sweeps being compared (back-to-back blocks of a few milliseconds
    otherwise swing by more than the overhead being measured); the
    minimum is the standard low-noise statistic for micro-loops.
    """
    best = [float("inf")] * len(actions)
    for _ in range(REPEATS if repeats is None else repeats):
        for index, action in enumerate(actions):
            start = time.perf_counter()
            action()
            elapsed = time.perf_counter() - start
            if elapsed < best[index]:
                best[index] = elapsed
    return best


def _drive_service(system, texts, trace_sample_rate):
    registry = SynopsisRegistry()
    registry.register("SSPlays", system)
    service = EstimationService(
        registry,
        plan_cache=PlanCache(1024),
        trace_sample_rate=trace_sample_rate,
    )
    errors = []

    def worker(offset):
        client = EndpointClient(port=server.port)
        rotated = texts[offset:] + texts[:offset]
        for _ in range(PASSES_PER_THREAD):
            for text in rotated:
                try:
                    client.estimate("SSPlays", text)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append((text, error))
                    return

    with ServiceServer(service, port=0) as server:
        start = time.perf_counter()
        pool = [
            threading.Thread(target=worker, args=(i * 5,))
            for i in range(CLIENT_THREADS)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors[:3]
        traced = service.metrics.counter("traced_requests_total")
        observed = service.slow_log.observed
    qps = CLIENT_THREADS * PASSES_PER_THREAD * len(texts) / elapsed
    return qps, traced, observed


def test_obs_overhead(ctx, benchmark):
    system = ctx.factory("SSPlays").system(0, 0)
    workload = ctx.workload("SSPlays")
    items = (workload.simple + workload.branch + workload.order_branch)[:MAX_QUERIES]
    texts = [item.text for item in items]

    def sweep_estimate():
        for text in texts:
            system.estimate(text)

    def sweep_query_off():
        for text in texts:
            system.estimate(text, options=DETAIL)

    def sweep_query_on():
        for text in texts:
            system.estimate(text, options=TRACED)

    benchmark.pedantic(sweep_query_off, rounds=1, iterations=1)

    # The structured-result paths bypass the semantic result cache, so
    # the plain arm must not read through it either: all three sweeps
    # time real estimates.
    saved = system.semcache.capacity, system.semcache.ttl_s
    system.semcache.configure(0, None)
    try:
        legacy_s, off_s, on_s = _best_loop_s(
            [sweep_estimate, sweep_query_off, sweep_query_on]
        )
    finally:
        system.semcache.configure(*saved)
    off_overhead = off_s / legacy_s - 1.0
    on_overhead = on_s / legacy_s - 1.0

    off_qps, off_traced, _ = _drive_service(system, texts, 0.0)
    on_qps, on_traced, on_observed = _drive_service(system, texts, 1.0)
    requests = CLIENT_THREADS * PASSES_PER_THREAD * len(texts)
    service_overhead = off_qps / max(on_qps, 1e-9) - 1.0

    rows = [
        ["estimate() legacy", "%.1f" % (1e3 * legacy_s), "-", "-"],
        ["query() trace off", "%.1f" % (1e3 * off_s),
         "%+.1f%%" % (100 * off_overhead), "%.0f%%" % (100 * OVERHEAD_BUDGET)],
        ["query() trace on", "%.1f" % (1e3 * on_s),
         "%+.1f%%" % (100 * on_overhead), "-"],
        ["service sample=0", "%.0f qps" % off_qps, "-", "-"],
        ["service sample=1", "%.0f qps" % on_qps,
         "%+.1f%% slower" % (100 * service_overhead), "-"],
    ]
    record_result(
        "obs_overhead",
        format_table(
            ["Path", "best sweep (ms) / QPS", "overhead", "budget"],
            rows,
            title="Extra: observability overhead (%d queries, best of %d)"
            % (len(texts), REPEATS),
        ),
    )

    # Tracing off: every span site dormant, nothing sampled, nothing logged
    # beyond the slowlog ring append.
    assert off_traced == 0
    # Tracing on: every request was traced and fed the slow-query log.
    assert on_traced == requests
    assert on_observed >= requests
    # The hard gate (budget + jitter allowance); the 2% budget itself is
    # tracked via the recorded table.
    assert off_overhead <= OVERHEAD_HARD_LIMIT, (
        "trace-off overhead %.1f%% exceeds the hard limit" % (100 * off_overhead)
    )
    # A traced request must still be in the same league (it re-executes
    # the estimate and serializes the span tree).
    assert on_qps > 0 and off_qps > 0
