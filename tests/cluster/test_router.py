"""Scatter-gather router: placement, failover, degradation, fan-out.

Two layers of coverage:

* **Transport-free** — drive :class:`ClusterRouter` directly with
  scripted fake clients (the ``client_factory`` seam) to pin down the
  failover and degradation decision logic without sockets;
* **End-to-end** — three real :class:`ServiceServer` backends behind a
  real :class:`RouterServer`, including killing a backend mid-run.
"""

from __future__ import annotations

import pytest

from repro import persist
from repro.cluster.delta import IncrementalSynopsis
from repro.cluster.router import (
    ClusterRouter,
    ReplicasExhaustedError,
    RouterConfig,
    RouterServer,
    parse_address,
)
from repro.service import EstimationService, ServiceServer, SynopsisRegistry
from repro.service.client import EndpointClient, ServiceError
from repro.service.server import RequestError

BODY = "".join(
    "<A><B/><C><D/></C></A>" if i % 2 else "<A><B/><B/></A>" for i in range(12)
)
DOC = "<Root>" + BODY + "</Root>"
QUERIES = ["//A/$B", "//A/$C", "//A/C/$D", "/Root/$A", "//A[/C]/$B", "//A/$D"]


# ----------------------------------------------------------------------
# Transport-free: scripted backends
# ----------------------------------------------------------------------


class FakeClient:
    """A scripted stand-in for EndpointClient.

    ``script`` maps an address to a callable ``(method, path, payload)``
    -> document (or raises ServiceError).  Calls are recorded per
    address so tests can assert who was asked what.
    """

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


def ok_single(address, method, path, payload):
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


class TestFailover:
    def test_healthy_primary_answers(self):
        router, calls, _ = make_router(ok_single)
        document = router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert document["served_by"] == document["backend"]
        assert len(calls) == 1

    def test_transport_error_fails_over_to_next_replica(self):
        dead = set()

        def script(address, method, path, payload):
            if address in dead:
                raise ServiceError(0, "connection refused", "connection")
            return ok_single(address, method, path, payload)

        router, calls, _ = make_router(script)
        primary = router.ring.node_for("demo")
        dead.add(primary)
        document = router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert document["served_by"] != primary
        assert [c[0] for c in calls][0] == primary  # primary tried first
        assert router.metrics.counter("failovers_total") == 1

    def test_last_good_replica_preferred_after_failover(self):
        dead = set()

        def script(address, method, path, payload):
            if address in dead:
                raise ServiceError(0, "connection refused", "connection")
            return ok_single(address, method, path, payload)

        router, calls, _ = make_router(script)
        dead.add(router.ring.node_for("demo"))
        first = router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        calls.clear()
        second = router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        # The replica that answered is now tried first — no repeat knock
        # on the dead primary.
        assert second["served_by"] == first["served_by"]
        assert calls[0][0] == first["served_by"]

    def test_unknown_synopsis_tries_next_replica_then_502(self):
        """A 404 can mean 'this replica has not synced the snapshot yet',
        so the router asks the others before giving up."""

        def script(address, method, path, payload):
            raise ServiceError(404, "no synopsis 'demo'", "unknown_synopsis")

        router, calls, _ = make_router(script)
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert info.value.status == 502
        assert info.value.kind == ReplicasExhaustedError.kind
        assert len(calls) == router.config.replication  # every replica asked

    def test_client_error_propagates_without_failover(self):
        """A backend that *answered* with a request-level 4xx is
        authoritative — no other replica will parse the query
        differently."""

        def script(address, method, path, payload):
            raise ServiceError(400, "bad query", "query_syntax")

        router, calls, _ = make_router(script)
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "query": "///"})
        assert info.value.status == 400
        assert info.value.kind == "query_syntax"
        assert len(calls) == 1

    def test_all_replicas_down_is_502(self):
        def script(address, method, path, payload):
            raise ServiceError(0, "connection refused", "connection")

        router, _, _ = make_router(script)
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert info.value.status == 502

    def test_breaker_opens_after_repeated_transport_failures(self):
        def script(address, method, path, payload):
            raise ServiceError(0, "connection refused", "connection")

        router, calls, _ = make_router(
            script, breaker_threshold=3, breaker_recovery_s=60.0
        )
        for _ in range(4):
            with pytest.raises(RequestError):
                router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        # 2 replicas x 3 failures trip both breakers; the 4th round
        # finds every circuit open and knocks on nobody.
        assert len(calls) == 2 * 3

    def test_bad_request_shapes(self):
        router, _, _ = make_router(ok_single)
        with pytest.raises(RequestError):
            router.handle_estimate(["not", "a", "dict"])
        with pytest.raises(RequestError):
            router.handle_estimate({"query": "//A/$B"})  # no synopsis


class TestScatter:
    def test_small_batches_stay_on_one_backend(self):
        router, calls, _ = make_router(ok_single, scatter_min=4)
        document = router.handle_estimate(
            {"synopsis": "demo", "queries": QUERIES[:3]}
        )
        assert "scattered" not in document
        assert len(calls) == 1

    def test_batch_scatters_and_preserves_query_order(self):
        router, calls, _ = make_router(ok_single, scatter_min=4)
        document = router.handle_estimate({"synopsis": "demo", "queries": QUERIES})
        assert document["scattered"] == router.config.replication
        assert document["count"] == len(QUERIES)
        assert [item["result"]["query"] for item in document["results"]] == QUERIES
        assert len(calls) == document["scattered"]

    def test_chunk_degrades_only_when_every_replica_fails_it(self):
        """A poisoned chunk comes back as per-item errors; the sibling
        chunk's answers are real, and the batch is flagged degraded."""

        def script(address, method, path, payload):
            if "//POISON" in payload.get("queries", []):
                raise ServiceError(503, "backend exploded", "internal")
            return ok_single(address, method, path, payload)

        router, _, _ = make_router(script, scatter_min=4)
        queries = ["//POISON", "//A/$B", "//A/$C", "//A/$D"]
        document = router.handle_estimate({"synopsis": "demo", "queries": queries})
        assert document["degraded"] is True
        assert document["count"] == len(queries)
        poisoned = document["results"][0]
        assert poisoned["error"]["kind"] == ReplicasExhaustedError.kind
        for item in document["results"][2:]:
            assert item["result"]["value"] == 1.0

    def test_batch_with_every_chunk_failing_is_502(self):
        def script(address, method, path, payload):
            raise ServiceError(0, "connection refused", "connection")

        router, _, _ = make_router(script, scatter_min=2)
        with pytest.raises(RequestError) as info:
            router.handle_estimate({"synopsis": "demo", "queries": QUERIES})
        assert info.value.status == 502


class TestDeltaFanout:
    def test_delta_reaches_every_replica(self):
        def script(address, method, path, payload):
            assert path == "/delta"
            return {"generation": 2, "refreshed": True}

        router, calls, _ = make_router(script)
        document = router.handle_delta({"synopsis": "demo", "partial": {}})
        assert document["applied"] == router.config.replication
        assert document["failed"] == 0
        assert {c[0] for c in calls} == {
            b.address for b in router.replicas("demo")
        }

    def test_partial_fanout_failure_reported_per_replica(self):
        failing = set()

        def script(address, method, path, payload):
            if address in failing:
                raise ServiceError(503, "mid-restart", "internal")
            return {"generation": 2, "refreshed": True}

        router, _, _ = make_router(script)
        replicas = router.ring.replicas_for("demo", 2)
        failing.add(replicas[1])
        document = router.handle_delta({"synopsis": "demo", "partial": {}})
        assert document["applied"] == 1
        assert document["failed"] == 1
        failed = [r for r in document["replicas"] if "error" in r]
        assert failed[0]["backend"] == replicas[1]

    def test_unanimous_client_rejection_propagates(self):
        def script(address, method, path, payload):
            raise ServiceError(409, "not delta-capable", "delta_unsupported")

        router, _, _ = make_router(script)
        with pytest.raises(RequestError) as info:
            router.handle_delta({"synopsis": "demo", "partial": {}})
        assert info.value.status == 409
        assert info.value.kind == "delta_unsupported"


class TestParseAddress:
    @pytest.mark.parametrize(
        "address",
        ["localhost:8750", "http://localhost:8750", "https://localhost:8750/"],
    )
    def test_forms(self, address):
        assert parse_address(address) == ("localhost", 8750)

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError):
            parse_address("localhost")


# ----------------------------------------------------------------------
# End-to-end: real backends behind a real router
# ----------------------------------------------------------------------


@pytest.fixture()
def cluster(tmp_path):
    maintainer = IncrementalSynopsis.build(DOC, name="demo")
    servers = []
    for index in range(3):
        shard_dir = tmp_path / ("backend-%d" % index)
        shard_dir.mkdir()
        persist.save(maintainer.system, str(shard_dir / "demo.json"))
        registry = SynopsisRegistry(str(shard_dir))
        registry.scan()
        server = ServiceServer(EstimationService(registry), port=0).start()
        servers.append(server)
    addresses = ["%s:%d" % (s.host, s.port) for s in servers]
    router = ClusterRouter(
        addresses, config=RouterConfig(replication=2, scatter_min=4)
    )
    try:
        yield {
            "servers": servers,
            "addresses": addresses,
            "router": router,
            "reference": maintainer.system,
            "maintainer": maintainer,
        }
    finally:
        router.close()
        for server in servers:
            try:
                server.close()
            except Exception:
                pass


class TestEndToEnd:
    def test_single_estimate_matches_local(self, cluster):
        router, reference = cluster["router"], cluster["reference"]
        document = router.handle_estimate({"synopsis": "demo", "query": "//A/$B"})
        assert document["result"]["value"] == reference.estimate("//A/$B")
        assert document["backend"] in cluster["addresses"]

    def test_scattered_batch_matches_local_in_order(self, cluster):
        router, reference = cluster["router"], cluster["reference"]
        document = router.handle_estimate({"synopsis": "demo", "queries": QUERIES})
        assert document["scattered"] == 2
        assert [item["result"]["query"] for item in document["results"]] == QUERIES
        for item in document["results"]:
            assert item["result"]["value"] == reference.estimate(item["result"]["query"])

    def test_killed_backend_yields_zero_failures(self, cluster):
        router, reference = cluster["router"], cluster["reference"]
        victim = router.replicas("demo")[0].address  # the primary, not a bystander
        cluster["servers"][cluster["addresses"].index(victim)].close()
        # Drop the pooled keep-alive connections too: the stdlib server
        # finishes open connections after close(), which is graceful
        # drain, not the hard kill this test wants.
        router.backends[victim].close()
        for _ in range(3):  # repeated batches: failover must stick
            document = router.handle_estimate(
                {"synopsis": "demo", "queries": QUERIES}
            )
            assert "degraded" not in document
            for item in document["results"]:
                assert item["result"]["value"] == reference.estimate(
                    item["result"]["query"]
                )

    def test_healthz_degrades_when_a_backend_dies(self, cluster):
        router = cluster["router"]
        assert router.healthz()["status"] == "ok"
        dead = cluster["addresses"][1]
        cluster["servers"][1].close()
        router.backends[dead].close()  # hard kill, not graceful drain
        health = router.healthz()
        assert health["status"] == "degraded"
        assert "error" in health["backends"][dead]

    def test_cluster_topology_document(self, cluster):
        document = cluster["router"].cluster_document()
        assert len(document["backends"]) == 3
        assert document["replication"] == 2
        placement = document["placement"]["demo"]
        assert len(placement) == 2
        assert set(placement) <= set(cluster["addresses"])

    def test_synopses_union_lists_replicas(self, cluster):
        inventory = cluster["router"].synopses()["synopses"]
        names = {info["name"] for info in inventory}
        assert "demo" in names
        demo = next(info for info in inventory if info["name"] == "demo")
        # Every backend holds a copy (each shard dir got the snapshot).
        assert len(demo["replicas"]) == 3

    def test_delta_fans_out_and_estimates_move(self, cluster):
        router = cluster["router"]
        maintainer = cluster["maintainer"]
        fragment = "<A><B/><B/><B/></A>" * 3
        partial = persist.partial_to_dict(maintainer.scan_fragment(fragment))
        document = router.handle_delta(
            {"synopsis": "demo", "partial": partial, "force_refresh": True}
        )
        assert document["applied"] == 2
        assert document["failed"] == 0
        # Both replicas now serve the merged synopsis.
        from repro.build.builder import build_synopsis

        expected = build_synopsis("<Root>" + BODY + fragment + "</Root>").estimate(
            "//A/$B"
        )
        for replica in router.replicas("demo"):
            reply = replica.call(
                "POST", "/estimate", {"synopsis": "demo", "query": "//A/$B"}
            )
            assert reply["result"]["value"] == expected

    def test_router_server_speaks_service_wire(self, cluster):
        with RouterServer(cluster["router"], host="127.0.0.1", port=0) as front:
            client = EndpointClient(host=front.host, port=front.port)
            try:
                value = client.estimate("demo", "//A/$B")
                assert value == cluster["reference"].estimate("//A/$B")
                health = client.healthz()
                assert health["status"] == "ok"
                metrics = client.metrics()
                assert "cluster" in metrics
            finally:
                client.close()
