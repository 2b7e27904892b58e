"""Router vs overload: shed is not failure, cooldowns, tier propagation."""

from __future__ import annotations

import json
import http.client

import pytest

from repro.cluster.router import (
    ClusterRouter,
    RouterConfig,
    RouterServer,
)
from repro.service.client import ServiceError
from repro.service.server import RequestError


class FakeClient:
    """Scripted EndpointClient stand-in (see tests/cluster/test_router.py)."""

    def __init__(self, address, script, calls):
        self.address = address
        self._script = script
        self._calls = calls

    def _request(self, method, path, payload=None):
        self._calls.append((self.address, method, path, payload))
        return self._script(self.address, method, path, payload)

    def close(self):
        pass


def make_router(script, backends=3, **config_kwargs):
    calls = []
    addresses = ["10.0.0.%d:9000" % (i + 1) for i in range(backends)]
    config_kwargs.setdefault("replication", min(2, backends))
    router = ClusterRouter(
        addresses,
        config=RouterConfig(**config_kwargs),
        client_factory=lambda address: FakeClient(address, script, calls),
    )
    return router, calls, addresses


def ok(address, method, path, payload):
    return {
        "synopsis": payload["synopsis"],
        "generation": 1,
        "results": [
            {"result": {"query": q, "value": 1.0}}
            for q in payload.get("queries", [])
        ]
        or [{"result": {"query": payload.get("query"), "value": 1.0}}],
        "served_by": address,
    }


def shed_error(retry_after_s=0.5):
    return ServiceError(
        503, "tier 'bulk' at capacity", "overloaded", retry_after_s=retry_after_s
    )


class TestShedIsNotFailure:
    def test_shed_primary_fails_over_without_breaker_damage(self):
        shedding = set()

        def script(address, method, path, payload):
            if address in shedding:
                raise shed_error()
            return ok(address, method, path, payload)

        router, calls, _ = make_router(script)
        primary = router.ring.node_for("demo")
        shedding.add(primary)
        document = router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert document["served_by"] != primary
        # The shed backend's breaker saw a *success* (it answered) and
        # the shed was counted as a shed, not a failover.
        backend = router.backends[primary]
        assert backend.breaker.allow()
        assert backend.breaker.state == "closed"
        assert backend.sheds_total == 1
        assert router.metrics.counter("backend_sheds_total") == 1
        assert router.metrics.counter("failovers_total") == 0

    def test_shed_backend_cools_for_its_retry_after(self):
        shedding = set()

        def script(address, method, path, payload):
            if address in shedding:
                raise shed_error(retry_after_s=30.0)
            return ok(address, method, path, payload)

        router, calls, _ = make_router(script)
        primary = router.ring.node_for("demo")
        shedding.add(primary)
        router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert router.backends[primary].cooling
        # Even though the backend would now succeed, the router routes
        # around it for the rest of the Retry-After window.
        shedding.clear()
        calls.clear()
        # Clear last-good stickiness so the primary would be first again.
        router._last_good.clear()
        router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert primary not in [address for address, _, _, _ in calls]

    def test_cooldown_expiry_restores_the_backend(self):
        def script(address, method, path, payload):
            return ok(address, method, path, payload)

        router, calls, _ = make_router(script)
        primary = router.ring.node_for("demo")
        backend = router.backends[primary]
        backend.note_shed(30.0)
        assert backend.cooling
        backend._shed_until = 0.0  # the window elapsed
        assert not backend.cooling
        router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert primary in [address for address, _, _, _ in calls]

    def test_all_replicas_shedding_is_503_with_soonest_retry_after(self):
        hints = {}

        def script(address, method, path, payload):
            raise shed_error(retry_after_s=hints[address])

        router, _, addresses = make_router(script, backends=2, replication=2)
        hints = {addresses[0]: 4.0, addresses[1]: 2.0}
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert info.value.status == 503
        assert info.value.kind == "overloaded"
        assert info.value.retry_after_s == 2.0

    def test_shed_without_hint_defaults_to_one_second(self):
        def script(address, method, path, payload):
            raise shed_error(retry_after_s=None)

        router, _, _ = make_router(script, backends=2, replication=2)
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert info.value.retry_after_s == 1.0

    def test_transport_failure_still_trips_the_breaker(self):
        def script(address, method, path, payload):
            raise ServiceError(0, "connection refused", "connection")

        router, _, addresses = make_router(script, backends=2, replication=2)
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        # Nothing answered: that is 502 replicas_exhausted, not 503.
        assert info.value.status == 502
        assert all(
            router.backends[address].breaker._consecutive_failures > 0
            for address in addresses
        )


class TestScatterUnderShed:
    def test_scatter_survives_one_shedding_replica(self):
        shedding = set()

        def script(address, method, path, payload):
            if address in shedding:
                raise shed_error()
            return ok(address, method, path, payload)

        router, _, addresses = make_router(
            script, backends=3, replication=3, scatter_min=4
        )
        shedding.add(addresses[0])
        queries = ["//A/$B"] * 6
        document = router.handle_estimate({"synopsis": "demo", "queries": queries})
        assert document["count"] == 6
        assert "degraded" not in document
        assert all("value" in r["result"] for r in document["results"])

    def test_tier_rides_into_every_scatter_chunk(self):
        def script(address, method, path, payload):
            return ok(address, method, path, payload)

        router, calls, _ = make_router(
            script, backends=3, replication=3, scatter_min=4
        )
        # Distinct texts: duplicates would collapse in the router's
        # scatter dedup and serve from a single chunk.
        queries = ["//A%d/$B" % index for index in range(6)]
        router.handle_estimate(
            {"synopsis": "demo", "queries": queries, "tier": "bulk"}
        )
        chunk_payloads = [payload for _, _, _, payload in calls]
        assert len(chunk_payloads) >= 2  # it actually scattered
        assert all(payload.get("tier") == "bulk" for payload in chunk_payloads)

    def test_metrics_document_counts_backend_sheds(self):
        def script(address, method, path, payload):
            raise shed_error()

        router, _, _ = make_router(script, backends=2, replication=2)
        with pytest.raises(RequestError):
            router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        cluster = router.metrics_document()["cluster"]
        assert cluster["backend_sheds_total"] == 2


class TestRouterHTTPFront:
    def run_server(self, script, **config_kwargs):
        router, calls, addresses = make_router(script, **config_kwargs)
        server = RouterServer(router, host="127.0.0.1", port=0).start()
        return router, calls, server

    def test_header_tier_is_injected_into_the_body(self):
        _, calls, server = self.run_server(ok)
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            connection.request(
                "POST",
                "/estimate",
                json.dumps({"synopsis": "demo", "query": "//A/$B"}),
                {"Content-Type": "application/json", "X-Repro-Tier": "standard"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert calls[0][3]["tier"] == "standard"
            connection.close()
        finally:
            server.close()

    def test_all_shed_reply_carries_retry_after_header(self):
        def script(address, method, path, payload):
            raise shed_error(retry_after_s=2.5)

        _, _, server = self.run_server(script, backends=2, replication=2)
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            connection.request(
                "POST",
                "/estimate",
                json.dumps({"synopsis": "demo", "query": "//A/$B"}),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            assert response.getheader("Retry-After") == "2.5"
            assert body["error"]["kind"] == "overloaded"
            connection.close()
        finally:
            server.close()
