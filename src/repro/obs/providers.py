"""Tracing decorators for the statistics providers.

The estimator reads statistics through two tiny protocols
(:class:`~repro.core.providers.PathStatsProvider`,
:class:`~repro.core.providers.OrderStatsProvider`).  When a request is
traced, :meth:`EstimationSystem.query` wraps the system's providers in
these decorators; every lookup then accrues into one aggregate span per
kind (``p-hist lookup`` / ``o-hist lookup``) carrying wall/CPU time and
the counters the paper's cost model cares about:

* ``cells_read`` — (path id, frequency) pairs (p) or grid cells (o)
  returned;
* ``buckets_scanned`` — histogram buckets backing those reads (0 for the
  exact-table providers, which have no buckets).

The wrappers are allocated per traced request and carry ``__slots__``.
The path join runs on the compiled kernel of the *wrapped* provider
(:func:`repro.kernel.live_kernel` unwraps them), and a traced join reads
each query node's pairs through the wrapper, so traced requests report
the lookup traffic of the join's reads while sharing the warm kernel.

Untraced requests never see these classes — the trace-off fast path uses
the raw providers and :data:`~repro.obs.trace.NULL_TRACER`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.trace import Tracer

__all__ = ["TracingPathStats", "TracingOrderStats"]

P_HIST_SPAN = "p-hist lookup"
O_HIST_SPAN = "o-hist lookup"


def _bucket_count(provider: object, tag: str) -> int:
    """Buckets backing one tag's statistics (0 for bucketless providers)."""
    histogram = getattr(provider, "histogram", None)
    if histogram is None:
        return 0
    try:
        tag_histogram = histogram(tag)
    except TypeError:
        return 0
    return getattr(tag_histogram, "bucket_count", 0) if tag_histogram else 0


class TracingPathStats:
    """PathStatsProvider decorator: counts p-histogram traffic."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner: object, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def frequency_pairs(self, tag: str) -> List[Tuple[int, float]]:
        with self._tracer.aggregate(P_HIST_SPAN) as span:
            pairs = self._inner.frequency_pairs(tag)
            span.incr("cells_read", len(pairs))
            buckets = _bucket_count(self._inner, tag)
            if buckets:
                span.incr("buckets_scanned", buckets)
        return pairs

    def frequency_map(self, tag: str) -> Dict[int, float]:
        return dict(self.frequency_pairs(tag))

    def __getattr__(self, name: str):
        # Forward introspection (histogram(), depth_frequency_map, ...)
        # so the wrapper is substitutable anywhere the inner provider is;
        # private attributes stay the wrapper's own.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class TracingOrderStats:
    """OrderStatsProvider decorator: counts o-histogram traffic."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner: object, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def order_count(self, tag: str, pid: int, other_tag: str, before: bool) -> float:
        with self._tracer.aggregate(O_HIST_SPAN) as span:
            value = self._inner.order_count(tag, pid, other_tag, before)
            span.incr("cells_read")
            histogram = getattr(self._inner, "histogram", None)
            if histogram is not None:
                # Region labels follow the o-histogram's own constants.
                from repro.histograms.ohistogram import AFTER, BEFORE

                try:
                    tag_histogram = histogram(tag, BEFORE if before else AFTER)
                except TypeError:
                    tag_histogram = None
                if tag_histogram is not None:
                    span.incr(
                        "buckets_scanned",
                        getattr(tag_histogram, "bucket_count", 0),
                    )
        return value

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)
