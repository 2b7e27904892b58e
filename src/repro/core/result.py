"""The structured result of one estimation: value + context + trace.

:class:`EstimateResult` is what ``EstimationSystem.estimate(q,
options=EstimateOptions(detail=True))`` returns and what the service's
versioned ``result`` wire object carries.  It is immutable,
float-coercible (``float(result) == result.value``, so code written
against the bare-float ``estimate()`` era keeps working on it) and
round-trips through JSON via :meth:`as_dict` / :meth:`from_dict`.

``RESULT_FORMAT_VERSION`` versions the wire shape independently of the
synopsis format: consumers check ``result["version"]`` before trusting
field semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["EstimateResult", "RESULT_FORMAT_VERSION"]

#: Version of the ``result`` wire object, the estimate payload of every
#: service reply.  Version 2 added the ``kernel`` field.
RESULT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class EstimateResult:
    """One estimate with its execution context.

    value:
        The selectivity estimate (what ``estimate()`` used to return).
    query:
        The query text the estimate answers.
    route:
        The estimation route taken (``"no_order"`` / ``"order"`` /
        ``"scoped"``), empty when unknown (e.g. deserialized from an
        older server).
    elapsed_ms:
        Wall time of this estimation, in milliseconds.
    trace:
        The span tree (see :mod:`repro.obs.trace`) when tracing was
        requested, else ``None``.
    cache:
        Structured cache attribution (service responses only):
        ``{"plan": bool, "result": bool}`` — whether the compiled-plan
        cache hit and whether the semantic result cache (or the
        within-batch CSE memo) served the value.  ``None`` when
        unknown (direct estimation or a pre-semcache server).
    kernel:
        Whether a compiled synopsis kernel executed the estimate
        (service responses only; ``None`` when unknown, e.g. direct
        in-process estimation or a version-1 server).
    tier:
        The QoS admission tier this estimate was served under
        (``"interactive"`` / ``"standard"`` / ``"bulk"``); ``None``
        when the server ran without tiered admission or the result
        predates tiers.
    """

    value: float
    query: str = ""
    route: str = ""
    elapsed_ms: float = 0.0
    trace: Optional[Dict[str, Any]] = None
    kernel: Optional[bool] = None
    tier: Optional[str] = None
    cache: Optional[Dict[str, bool]] = None

    def __float__(self) -> float:
        return float(self.value)

    @property
    def trace_id(self) -> str:
        """The trace id, when this result carries a trace."""
        if self.trace is None:
            return ""
        return str(self.trace.get("trace_id", ""))

    def as_dict(self) -> Dict[str, Any]:
        """The versioned wire object (the service's ``result`` field)."""
        payload: Dict[str, Any] = {
            "version": RESULT_FORMAT_VERSION,
            "value": self.value,
            "query": self.query,
            "route": self.route,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.cache is not None:
            payload["cache"] = dict(self.cache)
        if self.kernel is not None:
            payload["kernel"] = self.kernel
        if self.tier is not None:
            payload["tier"] = self.tier
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EstimateResult":
        """Rebuild from a wire object (ignores unknown fields)."""
        return cls(
            value=float(payload["value"]),
            query=str(payload.get("query", "")),
            route=str(payload.get("route", "")),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
            trace=payload.get("trace"),
            kernel=payload.get("kernel"),
            tier=payload.get("tier"),
            cache=payload.get("cache"),
        )
