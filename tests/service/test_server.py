"""HTTP server: endpoints, errors, concurrency, hot reload, metrics."""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro import EstimationSystem, persist
from repro.service import (
    EndpointClient,
    EstimationService,
    ServiceError,
    ServiceServer,
    SynopsisRegistry,
)
from repro.workload import WorkloadGenerator


def client_for(server):
    return EndpointClient(port=server.port)


class TestEndpoints:
    def test_healthz(self, running_server):
        assert client_for(running_server).healthz() == {
            "status": "ok",
            "synopses": 2,
            "reload_failures": 0,
            "kernels": {"SSPlays": "pending", "fig1": "pending"},
        }

    def test_synopses(self, running_server):
        names = [entry["name"] for entry in client_for(running_server).synopses()]
        assert names == ["SSPlays", "fig1"]

    def test_single_estimate(self, running_server, figure1_system):
        detail = client_for(running_server).estimate_detail("fig1", "//A/B")
        assert detail["result"]["value"] == figure1_system.estimate("//A/B")
        assert detail["synopsis"] == "fig1"
        assert detail["generation"] == 1
        assert detail["result"]["route"] == "no_order"

    def test_batch_estimate(self, running_server, figure1_system):
        queries = ["//A/B", "//A//$C", "//A[/C[/F]/folls::$B/D]"]
        served = client_for(running_server).estimate_batch("fig1", queries)
        assert served == [figure1_system.estimate(text) for text in queries]

    def test_cached_flag_flips_on_second_request(self, running_server):
        client = client_for(running_server)
        assert client.estimate_detail("fig1", "//F/E")["result"]["cache"]["plan"] is False
        assert client.estimate_detail("fig1", "//F/E")["result"]["cache"]["plan"] is True

    def test_metrics_endpoint_shape(self, running_server):
        client = client_for(running_server)
        client.estimate("fig1", "//A/B")
        doc = client.metrics()
        assert doc["requests_total"] >= 1
        assert "p95_ms" in doc["latency_ms"]
        assert "hit_rate" in doc["plan_cache"]
        assert "fig1" in doc["synopses"]


class TestErrors:
    def test_unknown_synopsis_is_404(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server).estimate("nope", "//A")
        assert info.value.status == 404

    def test_bad_query_is_400(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server).estimate("fig1", "A[[")
        assert info.value.status == 400

    def test_missing_fields_are_400(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server)._request("POST", "/estimate", {"query": "//A"})
        assert info.value.status == 400
        with pytest.raises(ServiceError) as info:
            client_for(running_server)._request(
                "POST", "/estimate", {"synopsis": "fig1", "queries": []}
            )
        assert info.value.status == 400

    def test_invalid_json_is_400(self, running_server):
        request = urllib.request.Request(
            running_server.address + "/estimate",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    def test_unknown_path_is_404(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server)._request("GET", "/nope")
        assert info.value.status == 404

    def test_errors_are_counted(self, running_server):
        client = client_for(running_server)
        before = client.metrics()["errors_total"]
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.estimate("fig1", "][")
        assert client.metrics()["errors_total"] == before + 3


class TestConcurrency:
    def test_concurrent_estimates_match_direct(self, ssplays_small, ssplays_system):
        """8 client threads sweeping the Table-2 workload classes get
        byte-identical numbers to direct EstimationSystem.estimate."""
        workload = WorkloadGenerator(ssplays_small, seed=17).full_workload(25, 25, 25)
        items = workload.simple + workload.branch + workload.order_branch
        direct = {item.text: ssplays_system.estimate(item.query) for item in items}

        registry = SynopsisRegistry()
        registry.register("SSPlays", ssplays_system)
        service = EstimationService(registry)
        failures = []
        with ServiceServer(service, port=0) as server:
            def sweep(offset):
                client = client_for(server)
                rotated = items[offset:] + items[:offset]
                for item in rotated:
                    served = client.estimate("SSPlays", item.text)
                    if served != direct[item.text]:
                        failures.append((item.text, served, direct[item.text]))

            threads = [
                threading.Thread(target=sweep, args=(i * 3,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = client_for(server).metrics()

        assert failures == []
        assert metrics["requests_total"] == 8 * len(items)
        assert metrics["synopses"]["SSPlays"]["queries"] == 8 * len(items)
        cache = metrics["plan_cache"]
        assert cache["hits"] + cache["misses"] == 8 * len(items)
        # Every distinct text compiles at most a handful of times (races
        # may duplicate a compile); the rest of the sweep hits the cache.
        assert cache["hits"] > 6 * len(items)

    def test_burst_metrics_consistent(self, running_server, figure1_system):
        client = client_for(running_server)
        before = client.metrics()["requests_total"]
        queries = ["//A/B", "//A//$C", "//F/E", "//C[/$E]/F"]

        def burst():
            own = client_for(running_server)
            for text in queries * 5:
                own.estimate("fig1", text)

        threads = [threading.Thread(target=burst) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        doc = client.metrics()
        burst_requests = 6 * 5 * len(queries)
        assert doc["requests_total"] == before + burst_requests
        assert doc["latency_ms"]["count"] == before + burst_requests
        assert doc["latency_ms"]["p50_ms"] <= doc["latency_ms"]["p95_ms"]
        assert doc["latency_ms"]["p95_ms"] <= doc["latency_ms"]["max_ms"]
        assert doc["synopses"]["fig1"]["qps"] > 0


class TestHotReloadOverHTTP:
    def test_rewritten_snapshot_changes_served_estimates(
        self, snapshot_dir, figure1, running_server
    ):
        client = client_for(running_server)
        assert client.estimate_detail("fig1", "//A/B")["generation"] == 1

        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        path = str(snapshot_dir / "fig1.json")
        persist.save(coarse, path)
        stamp = time.time_ns() + 1
        os.utime(path, ns=(stamp, stamp))

        detail = client.estimate_detail("fig1", "//A/B")
        assert detail["generation"] == 2
        assert detail["result"]["value"] == coarse.estimate("//A/B")
        # The old generation's plans are dead: first hit recompiles.
        assert detail["result"]["cache"]["plan"] is False


class TestServeSubprocess:
    def test_cli_serve_end_to_end(self, snapshot_dir):
        """`python -m repro serve` in a real subprocess serves matching
        estimates on an ephemeral port."""
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--snapshot-dir", str(snapshot_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner
            port = int(banner.rsplit(":", 1)[1].split()[0].rstrip(")"))
            client = EndpointClient(port=port)
            assert client.healthz()["synopses"] == 2
            served = client.estimate_batch("fig1", ["//A/B", "//A//$C"])
            assert served == [4.0, 2.0]
        finally:
            process.terminate()
            process.wait(timeout=10)
