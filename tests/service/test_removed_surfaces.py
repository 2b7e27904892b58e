"""The surfaces removed in 2.0 stay removed: no legacy names resolve and
an estimate reply carries only the versioned ``result`` object."""

from __future__ import annotations

import pytest

import repro
import repro.service
from repro import EstimationSystem
from repro.service import EndpointClient


class TestRemovedNames:
    def test_legacy_top_level_name_is_gone(self):
        with pytest.raises(AttributeError):
            repro.XmlDocument

    def test_query_verb_is_gone(self):
        with pytest.raises(AttributeError):
            EstimationSystem.query

    def test_service_client_is_gone(self):
        with pytest.raises(AttributeError):
            repro.service.ServiceClient


class TestReplyShape:
    def test_estimate_reply_has_no_flat_mirror(self, running_server):
        with EndpointClient(port=running_server.port) as client:
            reply = client._request(
                "POST", "/estimate", {"synopsis": "fig1", "query": "//A/B"}
            )
        assert "estimate" not in reply
        assert "cached" not in reply["result"]
        assert reply["result"]["cache"]["plan"] is False
