"""End-to-end benchmark of ``POST /estimate`` against a real ``repro serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 10 --trace 0

One process drives a ``repro serve`` subprocess over one keep-alive HTTP
connection with one request in flight (a closed loop, as an optimizer
waits for each estimate), and checks every reply bit for bit against
``EstimationSystem.estimate`` on the same snapshot generation, loaded
in-process outside the timed phase.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it gives the host facts.

Workloads (BENCHMARK.json says why each exists):

* ``hot_zipf``: zipf(1.1) draws from 360 hot queries, 120 per synopsis
  (SSPlays, DBLP, XMark), the synopses taking turns; after the warm-up
  nearly every request hits a result cache.
* ``cold_distinct``: every other Section-7 query of the three datasets,
  each sent at most once to a server, so every request misses every
  cache.
* ``write_mix``: zipf reads over DBLP's 120 hot queries with one
  ``POST /delta`` (the next 5 held-back DBLP records) before every
  1000 reads.

All three serve the same snapshots: SSPlays and XMark built plainly,
DBLP built ``--incremental`` from its first 80% of records.

An untraced run (``--trace 0``) is ``SEGMENTS`` rounds of: set up from
the XML files (``setup_s`` is the median), warm up on the hot set, drive
``seconds / SEGMENTS`` of the workload, then send ``TRAILING_DELTAS``
deltas, which give ``delta_p50_ms`` (with write_mix's own) on the
workload's cache state.  A fresh server per round
spreads each run over several server processes, which steadies the
figures on a shared host.  A traced run (``--trace 1``) sets up once,
drives the workload for ``seconds`` the same way, and then reports the
per-layer split of :mod:`layers`.  That split is taken offline, after
the socket phase, so tracing adds nothing to a measured round trip.

The client runs on one core and the server, with the ``repro snapshot``
builds of the set-up, on the others (:func:`serving.split_cores`).  A
fixed reference server shares the server's core: every
``hostspeed.WINDOW_S`` seconds the client times a few round trips to it,
and every timing is reported scaled to a host on which that reference
round trip takes ``hostspeed.REFERENCE_US`` (see :mod:`hostspeed`), so
that a slow period of a shared host does not read as a slow program.
The raw figures are written beside the scaled ones.

Windows in which the host stole time from either core are left out of
every timing (see :mod:`hostspeed`); ``.out`` records how many were.

End-to-end metrics: ``est_p50_us``/``est_p99_us`` are nearest-rank
percentiles of the client round trips of single-query
``POST /estimate`` requests over the run's timed windows;
``est_rps`` divides their count by the sum of those round trips
(deltas included on ``write_mix``), and ``server_cpu_us_per_est`` the
server's utime + stime in those windows (``/proc/<pid>/stat``, read at
every sample) by the estimates sent in them; ``delta_p50_ms`` is the median client round trip of a
``POST /delta``; ``server_peak_rss_mb`` is the median VmHWM of the
servers; ``mean_rel_error`` is the paper's average relative error of
the served base-generation estimates against the exact counts.
``setup_s``, the memory and the error are not scaled.

Host facts and the server's ``/metrics`` counters are written beside
the numbers to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import schedule  # noqa: E402
from schedule import Delta  # noqa: E402
from serving import (  # noqa: E402
    GET_METRICS, GET_SYNOPSES, Connection, ServerProcess, encode_post, pinned_to,
    repro_command, repro_server, split_cores,
)

SCALE = 1.0
SEGMENTS = 3
TRAILING_DELTAS = 6
#: A segment whose share of windows without stolen time is below this
#: is timed on all its windows (a host that steals all the time); the
#: same holds for a run's deltas.
MIN_CLEAN = 0.25
WORK_ROOT = os.path.join(HERE, ".work")
OUT_ROOT = os.path.join(HERE, ".out")


def _import_repro():
    src = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit("perfbench: no repro sources at %s" % src)
    sys.path.insert(0, src)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Bench:
    """Inputs, the running server and the log of every request sent."""

    def __init__(self, workload: str, seed: int, work: str, server_cpus: FrozenSet[int]):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.server_cpus = server_cpus
        self.xml_dir = corpus.ensure(SCALE)
        pools, deltas = corpus.load(self.xml_dir)
        self.plan = schedule.make_plan(workload, pools, seed)
        self.snap_dir = os.path.join(work, "snapshots")
        from repro import persist
        from repro.build.stream import scan_text

        self.chunks: List[str] = deltas["chunks"]
        self.delta_bodies: List[dict] = []
        self.delta_requests: List[bytes] = []
        for text in self.chunks:
            body = {
                "synopsis": corpus.DELTA_DATASET,
                "partial": persist.partial_to_dict(scan_text(text, (deltas["root_tag"],))),
            }
            self.delta_bodies.append(body)
            self.delta_requests.append(encode_post("/delta", body))
        self.requests: Dict[Tuple[str, str], bytes] = {}
        for item in self.plan.probes + self.plan.hot + self.plan.cold:
            self.requests[(item.dataset, item.text)] = encode_post(
                "/estimate", {"synopsis": item.dataset, "query": item.text}
            )
        self.server: Optional[ServerProcess] = None
        #: The CPUs the last server process was found pinned to.
        self.applied_server_cpus: FrozenSet[int] = frozenset()
        self.conn: Optional[Connection] = None
        #: (action, deltas acknowledged before it, status, reply body)
        self.log: List[Tuple[object, int, int, bytes]] = []
        self.deltas_done = 0
        #: (served DBLP generation, deltas acknowledged) per server run.
        self.finals: List[Tuple[int, int]] = []
        # Last, so that nothing after it can fail and leave it running.
        self.speed = hostspeed.HostSpeed(
            frozenset(os.sched_getaffinity(0)), server_cpus, os.path.join(work, "refserver.log")
        )

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """XML on disk -> snapshots -> ``repro serve`` -> one estimate
        answered on every synopsis; returns the wall time."""
        self.stop()
        shutil.rmtree(self.snap_dir, ignore_errors=True)
        self.deltas_done = 0
        log_path = os.path.join(self.work, "server.log")
        started = time.perf_counter()
        for dataset in corpus.DATASETS:
            args = [
                "snapshot", "--file", corpus.xml_path(self.xml_dir, dataset),
                "--name", dataset, "--output", self.snap_dir + os.sep,
            ]
            if dataset == corpus.DELTA_DATASET:
                args.append("--incremental")
            argv, env = repro_command(REPO, args)
            with open(log_path, "ab") as log:
                subprocess.run(argv, env=env, cwd=REPO, check=True,
                               stdout=subprocess.DEVNULL, stderr=log,
                               preexec_fn=pinned_to(self.server_cpus))
        self.server = repro_server(REPO, self.snap_dir, log_path, self.server_cpus)
        self.applied_server_cpus = self.server.cpus
        self.conn = Connection(self.server.port)
        for item in self.plan.probes:
            self.send(item)
        elapsed = time.perf_counter() - started
        if any(status != 200 for _, _, status, _ in self.log[-len(self.plan.probes):]):
            raise RuntimeError("set-up probe failed; see %s" % log_path)
        return elapsed

    def close(self) -> None:
        """Stop the server and the reference server."""
        self.stop()
        self.speed.close()

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- traffic --------------------------------------------------------

    def send(self, action) -> Tuple[int, bytes]:
        if isinstance(action, Delta):
            request = self.delta_requests[action.chunk]
        else:
            request = self.requests[(action.dataset, action.text)]
        status, body = self.conn.call(request)
        self.log.append((action, self.deltas_done, status, body))
        if isinstance(action, Delta) and status == 200:
            self.deltas_done += 1
        return status, body

    def drive(self, stream, seconds: float, est_ns: Dict[int, Tuple[int, int]],
              delta_ns: List[Tuple[int, int]]) -> None:
        """Send ``stream`` actions until it ends, runs out of delta
        chunks or ``seconds`` pass.

        The host speed is sampled first and then before the first
        estimate after each ``hostspeed.WINDOW_S`` (once more at the end,
        for the server CPU read).  Each estimate's
        round trip goes to ``est_ns`` under its log index, each delta's
        to ``delta_ns``, both with the index of the last speed sample.
        The estimate sent right after a sample is checked but not timed:
        the pause left both cores' caches cold.
        """
        perf_ns = time.perf_counter_ns
        deadline = perf_ns() + int(seconds * 1e9)
        window_ns = int(hostspeed.WINDOW_S * 1e9)
        sample = self.speed.sample(self.server)
        next_sample, settle = perf_ns() + window_ns, True
        # The generator's own collector pauses must not land inside a
        # measured round trip; the loop creates no reference cycles.
        gc.disable()
        try:
            while perf_ns() < deadline:
                action = next(stream, None)
                if action is None or (
                    isinstance(action, Delta) and action.chunk >= len(self.delta_requests)
                ):
                    break
                is_delta = isinstance(action, Delta)
                if not is_delta and perf_ns() >= next_sample:
                    sample = self.speed.sample(self.server)
                    next_sample, settle = perf_ns() + window_ns, True
                started = perf_ns()
                self.send(action)
                elapsed = perf_ns() - started
                if is_delta:
                    delta_ns.append((elapsed, sample))
                    continue
                if not settle:
                    est_ns[len(self.log) - 1] = (elapsed, sample)
                settle = False
        finally:
            gc.enable()
        self.speed.sample(self.server)

    def trailing_deltas(self, delta_ns: List[Tuple[int, int]]) -> None:
        """Deltas after the timed reads, each between two host-speed
        samples (its factor is from both) and followed by one untimed
        pass over the DBLP hot queries it invalidated, so every delta
        lands on warm caches and the deltas are spread out in time."""
        refill = [item for item in self.plan.hot if item.dataset == corpus.DELTA_DATASET]
        for _ in range(TRAILING_DELTAS):
            sample = self.speed.sample()
            started = time.perf_counter_ns()
            self.send(Delta(self.deltas_done))
            delta_ns.append((time.perf_counter_ns() - started, sample))
            self.speed.sample()
            for item in refill:
                self.send(item)

    def server_metrics(self) -> dict:
        status, body = self.conn.call_json(GET_METRICS)
        if status != 200:
            raise RuntimeError("GET /metrics failed with %d" % status)
        return body

    # -- checking -------------------------------------------------------

    def verify(self, base: Dict[str, object]) -> Tuple[int, int, float]:
        """Check every logged reply; ``(attempted, failed, mean_rel_error)``.

        Estimates must equal ``EstimationSystem.estimate`` bit for bit on
        the generation the client knows the server is at: the base
        snapshot plus every delta acknowledged so far, replayed through
        an in-process ``IncrementalSynopsis`` in the same order.
        """
        from repro import persist

        generations = [dict(base)]
        maintainer = base[corpus.DELTA_DATASET].incremental
        initial = None
        failed = 0
        errors: Dict[Tuple[str, str], float] = {}
        expected: Dict[Tuple[int, str, str], float] = {}
        for action, done, status, body in self.log:
            try:
                reply = json.loads(body) if status == 200 else None
            except ValueError:
                reply = None
            if reply is None:
                failed += 1
                continue
            if initial is None:
                initial = reply["generation"]
            if isinstance(action, Delta):
                while len(generations) <= done + 1:
                    step = len(generations) - 1
                    partial = persist.partial_from_dict(self.delta_bodies[step]["partial"])
                    outcome = maintainer.apply(partial)
                    generations.append(
                        dict(generations[-1], **{corpus.DELTA_DATASET: outcome.system})
                    )
                if reply.get("generation") != initial + done + 1:
                    failed += 1
                continue
            step = done if action.dataset == corpus.DELTA_DATASET else 0
            key = (step, action.dataset, action.text)
            if key not in expected:
                expected[key] = generations[step][action.dataset].estimate(action.text)
            value = reply.get("result", {}).get("value")
            want = expected[key]
            if (
                type(value) is not type(want)
                or float(value).hex() != float(want).hex()
                or reply.get("generation") != initial + step
            ):
                failed += 1
                continue
            if step == 0 and action.actual > 0:
                errors[(action.dataset, action.text)] = (
                    abs(value - action.actual) / action.actual
                )
        if initial is not None:
            failed += sum(1 for final, done in self.finals if final != initial + done)
        mean_error = sum(errors.values()) / len(errors) if errors else float("nan")
        return len(self.log), failed, mean_error

    def read_final_generation(self) -> None:
        """Record the served DBLP generation for :meth:`verify`."""
        status, body = self.conn.call_json(GET_SYNOPSES)
        if status != 200:
            raise RuntimeError("GET /synopses failed with %d" % status)
        final = next(
            entry["generation"] for entry in body["synopses"]
            if entry["name"] == corpus.DELTA_DATASET
        )
        self.finals.append((final, self.deltas_done))


def load_base(snap_dir: str) -> Dict[str, object]:
    """The served snapshots, loaded in-process for expected values."""
    from repro import persist

    return {
        dataset: persist.load(os.path.join(snap_dir, dataset + ".json"))
        for dataset in corpus.DATASETS
    }


def run_untraced(bench: Bench, seconds: float) -> Tuple[int, int, Dict[str, float], dict]:
    """``SEGMENTS`` times: set up from XML, warm up, then drive the
    workload for ``seconds / SEGMENTS`` on that fresh server.

    Spreading one run over several server processes averages out the
    per-process speed differences a shared host shows.  Every timing is
    scaled by the host-speed factor of its window (:mod:`hostspeed`),
    within the samples of its own server process, and windows with
    stolen time are left out unless a segment has too few others.
    """
    speed = bench.speed
    setups: List[float] = []
    est_us: List[float] = []
    raw_est_us: List[float] = []
    #: (scaled ms, raw ms, whether no time was stolen) per delta
    delta_rows: List[Tuple[float, float, bool]] = []
    server_cpu, busy, sent = 0.0, 0.0, 0
    windows_used, windows_all = 0, 0
    peak_rss: List[float] = []
    counters: List[dict] = []
    segment_p50: List[float] = []
    #: (speed sample us, factor, raw median round trip us) per window
    windows: List[Tuple[float, float, float]] = []
    base = None
    for segment in range(SEGMENTS):
        setups.append(bench.setup())
        if base is None:
            base = load_base(bench.snap_dir)
        for item in bench.plan.hot:
            bench.send(item)
        stream = schedule.timed_stream(bench.workload, bench.plan, bench.seed, segment, SEGMENTS)
        timed: Dict[int, Tuple[int, int]] = {}
        deltas: List[Tuple[int, int]] = []
        first = len(speed.samples)
        bench.drive(stream, seconds / SEGMENTS, timed, deltas)
        last = len(speed.samples) - 1
        clean = {k for k in range(first, last) if speed.clean(k)}
        if len(clean) < MIN_CLEAN * (last - first):
            clean = set(range(first, last))
        windows_used += len(clean)
        windows_all += last - first
        kept = [entry for entry in timed.values() if entry[1] in clean]
        for k in clean:
            server_cpu += (speed.server_cpu_s[k + 1] - speed.server_cpu_s[k]) * speed.factor(k, first, last)
        # Each window's estimates: the timed ones and the untimed first.
        sent += len(kept) + len(clean)
        in_order = [ns / 1e3 * speed.factor(k, first, last) for ns, k in kept]
        est_us += in_order
        raw_est_us += [ns / 1e3 for ns, _ in kept]
        by_window: Dict[int, List[float]] = {}
        for ns, k in kept:
            by_window.setdefault(k, []).append(ns / 1e3)
        windows += [
            (speed.samples[k], speed.factor(k, first, last), statistics.median(v))
            for k, v in sorted(by_window.items())
        ]
        delta_rows += [
            (ns / 1e6 * speed.factor(k, first, last), ns / 1e6, k in clean) for ns, k in deltas
        ]
        busy += sum(in_order) / 1e6 + sum(
            ns / 1e9 * speed.factor(k, first, last) for ns, k in deltas if k in clean
        )
        segment_p50.append(statistics.median(in_order))
        if bench.workload == "cold_distinct" and segment == SEGMENTS - 1:
            # Cold queries no timed phase had time for, so that
            # mean_rel_error covers every one of them.
            answered = {(a.dataset, a.text) for a, _, _, _ in bench.log if not isinstance(a, Delta)}
            for item in bench.plan.cold:
                if (item.dataset, item.text) not in answered:
                    bench.send(item)
        trailing: List[Tuple[int, int]] = []
        bench.trailing_deltas(trailing)
        delta_rows += [
            (ns / 1e6 * speed.factor(k, k, k + 1), ns / 1e6, speed.clean(k)) for ns, k in trailing
        ]
        counters.append(bench.server_metrics())
        bench.read_final_generation()
        peak_rss.append(bench.server.peak_rss_mb())
        bench.stop()
    attempted, failed, mean_error = bench.verify(base)
    count = len(est_us)
    if sum(row[2] for row in delta_rows) >= MIN_CLEAN * len(delta_rows):
        delta_rows = [row for row in delta_rows if row[2]]
    delta_ms = [row[0] for row in delta_rows]
    values = {
        "setup_s": statistics.median(setups),
        "est_p50_us": statistics.median(est_us),
        "est_p99_us": percentile(est_us, 0.99),
        "est_rps": count / busy,
        "server_cpu_us_per_est": server_cpu / sent * 1e6,
        "server_peak_rss_mb": statistics.median(peak_rss),
        "delta_p50_ms": statistics.median(delta_ms),
        "mean_rel_error": mean_error,
    }
    extra = {
        "samples": {"estimates": count, "deltas": len(delta_ms), "setups": len(setups),
                    "speed": len(speed.samples), "windows_used": windows_used,
                    "windows": windows_all},
        "setup_s_all": setups,
        "segment_est_p50_us": segment_p50,
        "delta_ms_all": delta_ms,
        "raw": {
            "est_p50_us": statistics.median(raw_est_us),
            "est_p99_us": percentile(raw_est_us, 0.99),
            "delta_p50_ms": statistics.median(row[1] for row in delta_rows),
        },
        "speed_windows": windows,
        "server_counters": [
            {
                "plan_cache": doc.get("plan_cache"),
                "semcache": doc.get("semcache"),
                "shed_total": doc.get("reliability", {}).get("shed_total"),
            }
            for doc in counters
        ],
    }
    return attempted, failed, values, extra


def run_traced(bench: Bench, seconds: float) -> Tuple[int, int, Dict[str, float], dict]:
    import layers

    bench.setup()
    replay_dir = os.path.join(bench.work, "replay")
    shutil.rmtree(replay_dir, ignore_errors=True)
    shutil.copytree(bench.snap_dir, replay_dir)
    base = load_base(bench.snap_dir)
    for item in bench.plan.hot:
        bench.send(item)
    stream = schedule.timed_stream(bench.workload, bench.plan, bench.seed, 0, 1)
    timed: Dict[int, Tuple[int, int]] = {}
    # The client polls for each reply on its own core; its CPU per
    # request is the part of its CPU time spent neither polling nor
    # sampling the host speed.
    client_cpu = time.process_time()
    wait_ns = bench.conn.wait_ns
    speed_ns = bench.speed.cpu_ns
    bench.drive(stream, seconds, timed, [])
    client_cpu = time.process_time() - client_cpu - (
        bench.conn.wait_ns - wait_ns + bench.speed.cpu_ns - speed_ns
    ) / 1e9
    rtt = {index: ns for index, (ns, _) in timed.items()}
    counters = bench.server_metrics()
    bench.read_final_generation()
    bench.stop()
    attempted, failed, _ = bench.verify(base)
    values, rows = layers.measure(bench, replay_dir, rtt, counters)
    with open(os.path.join(OUT_ROOT, "%s-seed%d-spans.json" % (bench.workload, bench.seed)), "w") as handle:
        json.dump(rows, handle)
    plan_cache = counters["plan_cache"]
    semcache = counters["semcache"]
    values.update({
        "plancache.hit_rate": plan_cache["hit_rate"],
        "plancache.evictions": plan_cache["evictions"],
        "semcache.hit_rate": semcache["hit_rate"],
        "semcache.evictions": semcache["evictions"],
        "admission.shed": counters["reliability"]["shed_total"],
        "loadgen.cpu_us_per_est": client_cpu / len(rtt) * 1e6,
    })
    return attempted, failed, values, {"server_counters": counters}


def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def host_facts(seed: int, client_cpus: FrozenSet[int], server_cpus: FrozenSet[int]) -> dict:
    """Facts to read the numbers by; the CPU sets are those the client
    and the last server process actually ran on."""
    from repro.cli import _semcache_capacity
    from layers import serve_defaults

    serve = serve_defaults(".")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scale": SCALE,
        "seed": seed,
        "client_cpus": sorted(client_cpus),
        "server_cpus": sorted(server_cpus),
        "serve_plan_cache": serve.plan_cache,
        "serve_semcache_capacity": _semcache_capacity(serve),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=schedule.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the servers are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_repro()
    units = metric_units(args.trace)
    client_cpus, server_cpus = split_cores()
    os.sched_setaffinity(0, client_cpus)
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(OUT_ROOT, exist_ok=True)
    bench = Bench(args.workload, args.seed, work, server_cpus)
    try:
        runner = run_traced if args.trace else run_untraced
        attempted, failed, values, extra = runner(bench, args.seconds)
    finally:
        bench.close()
    host = host_facts(args.seed, os.sched_getaffinity(0), bench.applied_server_cpus)
    if set(values) != set(units):
        raise RuntimeError(
            "metric names differ from BENCHMARK.json: %s" % sorted(set(values) ^ set(units))
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    out_path = os.path.join(
        OUT_ROOT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(out_path, "w") as handle:
        json.dump({"workload": args.workload, "host": host, **result, **extra}, handle, indent=1)
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
