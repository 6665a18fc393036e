"""Observability layer for the measurement plane.

``repro.obs`` is a dependency-free metrics + tracing substrate:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with an injectable clock (deterministic under a fake
  clock);
* :data:`trace` / :class:`Tracer` — span-based timing that records
  into ``<name>.seconds`` histograms on the same registry;
* exporters — JSON-lines snapshots (:func:`write_jsonl`), Prometheus
  text (:func:`render_prometheus`), ascii summaries
  (:func:`render_summary`);
* :class:`MetricsServer` — a plaintext scrape endpoint for the asyncio
  service loop (``repro serve --metrics-port``).

See ``docs/observability.md`` for the metric catalogue and naming
convention.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "DEFAULT_BUCKETS": ".registry",
        "Counter": ".registry",
        "Gauge": ".registry",
        "Histogram": ".registry",
        "MetricsRegistry": ".registry",
        "get_registry": ".registry",
        "set_registry": ".registry",
        "use_registry": ".registry",
        "MetricsServer": ".scrape",
        "serve_metrics": ".scrape",
        "Span": ".tracing",
        "Tracer": ".tracing",
        "trace": ".tracing",
        "aggregate_rows": ".export",
        "metric_rows": ".export",
        "read_jsonl": ".export",
        "render_prometheus": ".export",
        "render_summary": ".export",
        "write_jsonl": ".export",
    },
)
