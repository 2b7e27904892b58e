"""Golden path: a traced ``/estimate`` round-trips the span tree through
the HTTP client, and the observability endpoints serve both formats."""

from __future__ import annotations

import http.client

import pytest

from repro import EstimationSystem, persist
from repro.core.result import RESULT_FORMAT_VERSION
from repro.service import (
    EndpointClient,
    EstimationService,
    ServerConfig,
    ServiceServer,
    SynopsisRegistry,
    serve,
)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, figure1):
    directory = tmp_path_factory.mktemp("snapshots")
    system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
    persist.save(system, str(directory / "fig1.json"))
    return directory


@pytest.fixture()
def server(snapshot_dir):
    with serve(str(snapshot_dir), config=ServerConfig(port=0)) as running:
        yield running


@pytest.fixture()
def client(server):
    with EndpointClient(host=server.host, port=server.port) as c:
        yield c


def span_names(span, into=None):
    names = into if into is not None else []
    names.append(span["name"])
    for child in span.get("children", []):
        span_names(child, names)
    return names


def http_get(server, path):
    connection = http.client.HTTPConnection(server.host, server.port)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


class TestTracedRoundTrip:
    def test_trace_round_trips_through_the_client(self, client):
        result = client.estimate_traced("fig1", "//A/$B")
        assert result.value == client.estimate("fig1", "//A/$B")
        assert result.trace is not None
        assert result.trace["version"] >= 1
        assert result.trace_id
        names = span_names(result.trace["root"])
        for expected in ("parse", "plan", "join", "pathid-match", "p-hist lookup"):
            assert expected in names, names

    def test_traced_request_on_a_cached_plan_still_traces(self, client):
        client.estimate("fig1", "//A/$B")  # warm the plan cache
        result = client.estimate_traced("fig1", "//A/$B")
        assert "join" in span_names(result.trace["root"])

    def test_untraced_response_carries_versioned_result_without_trace(self, client):
        reply = client.estimate_detail("fig1", "//A/$B")
        assert reply["result"]["version"] == RESULT_FORMAT_VERSION
        assert "trace" not in reply["result"]

    def test_batch_results_carry_result_objects(self, client):
        conn = http.client.HTTPConnection(client.host, client.port)
        import json

        body = json.dumps(
            {"synopsis": "fig1", "queries": ["//A/$B", "//$A"], "trace": True}
        )
        conn.request(
            "POST", "/estimate", body=body,
            headers={"Content-Type": "application/json"},
        )
        reply = json.loads(conn.getresponse().read())
        conn.close()
        assert reply["count"] == 2
        for entry in reply["results"]:
            assert "trace" in entry["result"]

    def test_bad_trace_flag_rejected(self, client):
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as caught:
            client._request(
                "POST", "/estimate",
                {"synopsis": "fig1", "query": "//$A", "trace": "yes"},
            )
        assert caught.value.status == 400


class TestObservabilityEndpoints:
    def test_prom_exposition(self, server, client):
        client.estimate("fig1", "//A/$B")
        status, content_type, body = http_get(server, "/metrics?format=prom")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        text = body.decode("utf-8")
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_request_latency_seconds_bucket" in text
        assert "repro_plan_cache_size" in text

    def test_json_metrics_unchanged_by_format_param(self, server, client):
        client.estimate("fig1", "//A/$B")
        status, content_type, body = http_get(server, "/metrics")
        assert status == 200
        assert content_type == "application/json"
        import json

        document = json.loads(body)
        assert document["requests_total"] >= 1
        assert "latency_ms" in document

    def test_slowlog_endpoint_and_client(self, client):
        client.estimate_detail("fig1", "//A/$B", actual=100.0)
        document = client.slowlog(limit=5)
        assert document["observed"] >= 1
        assert document["recent"][0]["query"] == "//A/$B"
        assert document["top_error"][0]["rel_error"] is not None

    def test_traced_queries_stamp_the_slowlog(self, client):
        traced = client.estimate_traced("fig1", "//A/$B")
        document = client.slowlog()
        ids = [entry.get("trace_id") for entry in document["recent"]]
        assert traced.trace_id in ids


class TestSampling:
    def test_sample_rate_one_traces_every_request(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        service = EstimationService(registry, trace_sample_rate=1.0)
        with ServiceServer(service, port=0) as running:
            with EndpointClient(host=running.host, port=running.port) as client:
                reply = client.estimate_detail("fig1", "//A/$B")  # no trace flag
        assert "trace" in reply["result"]

    def test_fractional_rate_is_systematic(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        service = EstimationService(registry, trace_sample_rate=0.25)
        picks = [service._sample_trace() for _ in range(20)]
        assert sum(picks) == 5
        # Deterministic: a fresh service makes the same picks.
        again = EstimationService(registry, trace_sample_rate=0.25)
        assert [again._sample_trace() for _ in range(20)] == picks
