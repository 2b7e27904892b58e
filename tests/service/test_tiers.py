"""QoS tiers over HTTP: selection, shedding, brownout, read deadlines."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.reliability.brownout import BrownoutController
from repro.reliability.shedding import (
    BULK_TIER,
    INTERACTIVE_TIER,
    STANDARD_TIER,
    OverloadedError,
    TieredAdmissionGate,
    TierPolicy,
    default_tiers,
)
from repro.service import (
    EndpointClient,
    EstimationService,
    ServerConfig,
    ServiceError,
    ServiceServer,
    SynopsisRegistry,
    serve,
)


@pytest.fixture()
def tiered_server(snapshot_dir):
    server = serve(
        str(snapshot_dir), config=ServerConfig(port=0, max_inflight=8)
    ).start()
    yield server
    server.close()


def client_for(server):
    return EndpointClient(port=server.port)


class TestTierSelection:
    def test_single_estimate_defaults_to_interactive(self, tiered_server):
        detail = client_for(tiered_server).estimate_detail("fig1", "//A/B")
        assert detail["tier"] == INTERACTIVE_TIER

    def test_batch_defaults_to_bulk(self, tiered_server):
        client = client_for(tiered_server)
        reply = client._request(
            "POST", "/estimate", {"synopsis": "fig1", "queries": ["//A/B", "//F/E"]}
        )
        assert reply["tier"] == BULK_TIER

    def test_body_tier_field_is_honored(self, tiered_server):
        detail = client_for(tiered_server).estimate_detail(
            "fig1", "//A/B", tier=STANDARD_TIER
        )
        assert detail["tier"] == STANDARD_TIER

    def test_header_overrides_body_and_shape(self, tiered_server):
        client = client_for(tiered_server)
        connection = client._connect()
        connection.request(
            "POST",
            "/estimate",
            json.dumps(
                {"synopsis": "fig1", "query": "//A/B", "tier": INTERACTIVE_TIER}
            ),
            {"Content-Type": "application/json", "X-Repro-Tier": BULK_TIER},
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 200
        assert body["tier"] == BULK_TIER

    def test_unknown_tier_is_400(self, tiered_server):
        with pytest.raises(ServiceError) as info:
            client_for(tiered_server).estimate_detail(
                "fig1", "//A/B", tier="premium"
            )
        assert info.value.status == 400
        assert info.value.kind == "unknown_tier"

    def test_result_tier_survives_the_wire(self, tiered_server):
        detail = client_for(tiered_server).estimate_detail(
            "fig1", "//A/B", trace=True, tier=STANDARD_TIER
        )
        assert detail["result"]["tier"] == STANDARD_TIER

    def test_flat_gate_server_has_no_tier_field(self, snapshot_dir):
        server = serve(
            str(snapshot_dir),
            config=ServerConfig(port=0, qos=False),
        ).start()
        try:
            detail = client_for(server).estimate_detail("fig1", "//A/B")
            assert "tier" not in detail
        finally:
            server.close()


class TestTierShedding:
    def make_server(self, snapshot_dir):
        """A server whose bulk lane has exactly one slot and no queue."""
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        gate = TieredAdmissionGate(
            tiers=[
                TierPolicy(
                    INTERACTIVE_TIER, priority=0, max_inflight=4,
                    max_queue=2, queue_timeout_s=0.05, retry_after_s=0.5,
                ),
                TierPolicy(
                    BULK_TIER, priority=2, max_inflight=1,
                    max_queue=0, retry_after_s=2.0, brownout_sheddable=True,
                ),
            ],
            max_total=4,
        )
        service = EstimationService(registry, gate=gate)
        return ServiceServer(service, port=0).start()

    def test_shed_carries_tier_reason_and_retry_after(self, snapshot_dir):
        server = self.make_server(snapshot_dir)
        try:
            server.service.gate.enter(BULK_TIER)  # occupy the only slot
            with pytest.raises(ServiceError) as info:
                client_for(server).estimate_batch("fig1", ["//A/B", "//F/E"])
            assert info.value.status == 503
            assert info.value.kind == "overloaded"
            assert info.value.retry_after_s == 2.0
            # Interactive singles are untouched by bulk saturation.
            assert client_for(server).estimate("fig1", "//A/B") > 0
        finally:
            server.service.gate.leave(BULK_TIER)
            server.close()

    def test_shed_response_body_names_the_tier(self, snapshot_dir):
        server = self.make_server(snapshot_dir)
        try:
            server.service.gate.enter(BULK_TIER)
            client = client_for(server)
            connection = client._connect()
            connection.request(
                "POST",
                "/estimate",
                json.dumps({"synopsis": "fig1", "queries": ["//A/B", "//F/E"]}),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            assert response.getheader("Retry-After") == "2"
            assert body["error"]["tier"] == BULK_TIER
            assert body["error"]["reason"] == "capacity"
        finally:
            server.service.gate.leave(BULK_TIER)
            server.close()


class TestBrownoutIntegration:
    def make_service(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        gate = TieredAdmissionGate(tiers=default_tiers(4), max_total=4)
        # Hair-trigger controller: two trusted events and no dwell.
        brownout = BrownoutController(
            window_s=60.0,
            enter_threshold=0.10,
            escalate_threshold=0.30,
            exit_threshold=0.02,
            dwell_s=0.0,
            cooloff_s=60.0,
            min_events=2,
        )
        return EstimationService(registry, gate=gate, brownout=brownout)

    def saturate(self, service):
        """Drive capacity sheds through admit() until level 2."""
        held = [service.gate.enter(BULK_TIER) for _ in range(1)]
        # Bulk lane (cap 1, queue 2) is full; further bulk admits shed
        # with reason "capacity" and feed the controller.
        for _ in range(40):
            if service.brownout.level >= 2:
                break
            try:
                service.admit(BULK_TIER)
            except OverloadedError:
                pass
            else:
                service.release(BULK_TIER)
        for tier in held:
            service.gate.leave(tier)

    def test_capacity_sheds_escalate_to_shed_bulk(self, snapshot_dir):
        service = self.make_service(snapshot_dir)
        self.saturate(service)
        assert service.brownout.level == 2
        assert service.gate.shed_tiers == frozenset({BULK_TIER})
        # Now bulk sheds with reason "brownout" — which must NOT feed
        # back into the controller (no latch-up).
        with pytest.raises(OverloadedError) as info:
            service.admit(BULK_TIER)
        assert info.value.reason == "brownout"
        # Interactive is still admitted while bulk is browned out.
        service.admit(INTERACTIVE_TIER)
        service.release(INTERACTIVE_TIER)

    def test_healthz_advertises_degraded_state(self, snapshot_dir):
        service = self.make_service(snapshot_dir)
        self.saturate(service)
        body = service.healthz()
        assert body["status"] == "degraded"
        assert body["brownout"]["state"] == "shed_bulk"
        assert body["shed_tiers"] == [BULK_TIER]

    def test_brownout_suspends_tracing(self, snapshot_dir):
        service = self.make_service(snapshot_dir)
        self.saturate(service)
        tier = service.gate.enter(INTERACTIVE_TIER)
        try:
            reply = service.handle_estimate(
                {"synopsis": "fig1", "query": "//A/B", "trace": True},
                tier=tier,
            )
        finally:
            service.gate.leave(tier)
        # Level >= 1 sheds observability: trace requests get estimates
        # but no span tree.
        assert "value" in reply["result"]
        assert not reply["result"].get("trace")
        assert reply["brownout"] == "shed_bulk"


class TestReadDeadline:
    def test_slow_client_gets_408(self, snapshot_dir):
        server = serve(
            str(snapshot_dir),
            config=ServerConfig(port=0, read_deadline_s=0.3),
        ).start()
        try:
            body = json.dumps({"synopsis": "fig1", "query": "//A/B"}).encode()
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                head = (
                    "POST /estimate HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: %d\r\n\r\n" % len(body)
                ).encode("ascii")
                sock.sendall(head)
                sock.sendall(body[: len(body) // 2])
                time.sleep(0.8)  # past the read deadline
                try:
                    sock.sendall(body[len(body) // 2:])
                except OSError:
                    return  # server already tore the connection down: fine
                raw = sock.recv(4096)
            assert raw, "server closed without a response"
            status = int(raw.split(b" ", 2)[1])
            assert status == 408
            payload = json.loads(raw.split(b"\r\n\r\n", 1)[1])
            assert payload["error"]["kind"] == "read_timeout"
        finally:
            server.close()

    def test_fast_client_is_unaffected_by_the_deadline(self, snapshot_dir):
        server = serve(
            str(snapshot_dir),
            config=ServerConfig(port=0, read_deadline_s=0.3),
        ).start()
        try:
            assert client_for(server).estimate("fig1", "//A/B") > 0
        finally:
            server.close()


class TestTierMetrics:
    def test_metrics_break_down_per_tier(self, tiered_server):
        client = client_for(tiered_server)
        client.estimate("fig1", "//A/B", tier=INTERACTIVE_TIER)
        client.estimate_batch("fig1", ["//A/B", "//F/E"])
        doc = client._request("GET", "/metrics")
        tiers = doc["tiers"]
        assert tiers[INTERACTIVE_TIER]["requests"] >= 1
        assert tiers[BULK_TIER]["requests"] >= 1
        assert "p99_ms" in tiers[INTERACTIVE_TIER]["latency_ms"]
        gate = doc["reliability"]["tiers"]
        assert set(gate) == {INTERACTIVE_TIER, STANDARD_TIER, BULK_TIER}
