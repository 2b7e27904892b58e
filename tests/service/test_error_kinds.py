"""The ``error.kind`` field: stable machine-readable failure slugs."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service import EndpointClient, ServiceError


def client_for(server):
    return EndpointClient(port=server.port)


def raw_error_body(server, path, data=None, method=None):
    request = urllib.request.Request(
        server.address + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request)
    return json.loads(info.value.read().decode("utf-8"))


class TestErrorKinds:
    def test_unknown_synopsis_kind(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server).estimate("nope", "//A")
        assert info.value.kind == "unknown_synopsis"
        assert info.value.status == 404

    def test_query_syntax_kind(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server).estimate("fig1", "A[[")
        assert info.value.kind == "query_syntax"
        assert info.value.status == 400

    def test_bad_request_kind(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server)._request("POST", "/estimate", {"query": "//A"})
        assert info.value.kind == "bad_request"

    def test_not_found_kind(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server)._request("GET", "/nope")
        assert info.value.kind == "not_found"

    def test_wire_shape_is_kind_plus_message(self, running_server):
        body = raw_error_body(
            running_server,
            "/estimate",
            data=json.dumps({"synopsis": "nope", "query": "//A"}).encode("utf-8"),
        )
        assert set(body) == {"error"}
        assert set(body["error"]) == {"kind", "message"}
        assert body["error"]["kind"] == "unknown_synopsis"
        assert "nope" in body["error"]["message"]

    def test_invalid_json_kind(self, running_server):
        body = raw_error_body(running_server, "/estimate", data=b"{not json")
        assert body["error"]["kind"] == "bad_request"

    def test_client_exposes_kind_in_str(self, running_server):
        with pytest.raises(ServiceError) as info:
            client_for(running_server).estimate("nope", "//A")
        assert "unknown_synopsis" in str(info.value)

    def test_legacy_string_error_body_still_parses(self):
        # A pre-1.1 server replies {"error": "<message>"}: the client
        # falls back to kind="internal" instead of crashing.
        error = None
        try:
            raise ServiceError(500, "boom")
        except ServiceError as caught:
            error = caught
        assert error.kind == "internal"
