"""Observability layer: registry determinism, exporters, tracing,
scrape endpoint, and the instrumented retry loop.

The golden-file tests pin the exporter formats byte for byte: a
deterministic registry (fake clock, fixed operations) must render to
exactly ``tests/data/metrics_golden.prom`` /
``tests/data/metrics_golden.jsonl``.  Regenerate with::

    PYTHONPATH=src python tests/data/regen_metrics_golden.py
"""

import asyncio
import io
import json
import threading
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsServer,
    Tracer,
    aggregate_rows,
    get_registry,
    metric_rows,
    read_jsonl,
    render_prometheus,
    render_summary,
    use_registry,
    write_jsonl,
)
from repro.service.retry import RetryPolicy, retry_async

DATA_DIR = Path(__file__).parent / "data"


class FakeClock:
    """A monotonic clock advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def golden_registry(clock=None) -> MetricsRegistry:
    """The fixed workload both golden files are rendered from."""
    clock = clock if clock is not None else FakeClock()
    registry = MetricsRegistry(clock=clock)
    registry.counter("gateway.responses_received_total").inc(4096)
    registry.counter("wire.frames_total", direction="in").inc(7)
    registry.counter("wire.frames_total", direction="out").inc(9)
    registry.gauge("gateway.queue_depth").set(3)
    with registry.timer("gateway.ingest_flush_seconds"):
        clock.advance(0.002)
    with registry.timer("gateway.ingest_flush_seconds"):
        clock.advance(0.04)
    registry.histogram("gateway.period_close_seconds").observe(100.0)
    return registry


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b_total")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("a.b_total") == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_instruments_are_keyed_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", direction="in")
        b = registry.counter("x_total", direction="out")
        assert a is not b
        # Same labels in any kwarg order resolve to the same instrument.
        c = registry.counter("y_total", b="2", a="1")
        d = registry.counter("y_total", a="1", b="2")
        assert c is d

    def test_type_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("clash")
        with pytest.raises(ConfigurationError):
            registry.gauge("clash")

    def test_histogram_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad_seconds", buckets=(1.0, 1.0, 2.0))

    def test_histogram_placement_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.05, 0.5, 99.0):
            hist.observe(value)
        snap = hist.snapshot()
        # bisect_left: a value equal to a boundary lands in its bucket.
        assert snap["buckets"] == [[0.01, 2], [0.1, 1], [1.0, 1]]
        assert snap["overflow"] == 1
        assert snap["count"] == 5

    def test_value_of_untouched_metric_is_zero(self):
        assert MetricsRegistry().value("never_touched") == 0.0

    def test_snapshot_is_deterministic_under_a_fake_clock(self):
        """Two registries driven through the identical operations on
        identical fake clocks produce byte-identical snapshots."""
        snaps = [golden_registry().snapshot() for _ in range(2)]
        assert json.dumps(snaps[0], sort_keys=True) == json.dumps(
            snaps[1], sort_keys=True
        )

    def test_timer_records_on_the_injected_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with registry.timer("t_seconds"):
            clock.advance(0.75)
        snap = registry.histogram("t_seconds").snapshot()
        assert snap["sum"] == 0.75
        assert snap["count"] == 1

    def test_use_registry_swaps_and_restores_the_default(self):
        before = get_registry()
        with use_registry() as scratch:
            assert get_registry() is scratch
            assert scratch is not before
        assert get_registry() is before


# ----------------------------------------------------------------------
# Exporters (golden files)
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_golden(self):
        rendered = render_prometheus(golden_registry())
        golden = (DATA_DIR / "metrics_golden.prom").read_text()
        assert rendered == golden

    def test_jsonl_golden(self):
        stream = io.StringIO()
        count = write_jsonl(golden_registry(), stream)
        golden = (DATA_DIR / "metrics_golden.jsonl").read_text()
        assert stream.getvalue() == golden
        assert count == len(golden.splitlines())

    def test_jsonl_roundtrip(self):
        registry = golden_registry()
        stream = io.StringIO()
        write_jsonl(registry, stream)
        stream.seek(0)
        assert read_jsonl(stream) == registry.snapshot()

    def test_histogram_export_is_cumulative_with_inf(self):
        text = render_prometheus(golden_registry())
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_gateway_period_close_seconds_bucket")
        ]
        # 100s observation overflows every finite bucket: all finite
        # cumulative counts are 0 and only +Inf reaches 1.
        assert len(lines) == len(DEFAULT_BUCKETS) + 1
        assert all(line.endswith(" 0") for line in lines[:-1])
        assert lines[-1] == (
            'repro_gateway_period_close_seconds_bucket{le="+Inf"} 1'
        )

    def test_summary_renders_every_row(self):
        rows = metric_rows(golden_registry())
        text = render_summary(rows, title="golden")
        assert "golden" in text
        for row in rows:
            assert str(row["name"]) in text


# ----------------------------------------------------------------------
# Aggregation across snapshots (``repro metrics summarize a.jsonl b.jsonl``)
# ----------------------------------------------------------------------
class TestAggregateRows:
    def test_counters_and_gauges_sum_per_label_set(self):
        rows = aggregate_rows(
            metric_rows(golden_registry()) + metric_rows(golden_registry())
        )
        by_key = {
            (row["name"], tuple(sorted((row.get("labels") or {}).items()))): row
            for row in rows
        }
        assert (
            by_key[("gateway.responses_received_total", ())]["value"]
            == 8192
        )
        assert (
            by_key[("wire.frames_total", (("direction", "in"),))]["value"]
            == 14
        )
        # Distinct label sets stay distinct.
        assert (
            by_key[("wire.frames_total", (("direction", "out"),))]["value"]
            == 18
        )
        assert by_key[("gateway.queue_depth", ())]["value"] == 6

    def test_histograms_merge_buckets_sum_count_overflow(self):
        rows = aggregate_rows(
            metric_rows(golden_registry()) + metric_rows(golden_registry())
        )
        histogram = next(
            row
            for row in rows
            if row["name"] == "gateway.period_close_seconds"
        )
        assert histogram["overflow"] == 2
        assert histogram["sum"] == 200.0
        flush = next(
            row
            for row in rows
            if row["name"] == "gateway.ingest_flush_seconds"
        )
        assert flush["count"] == 4
        assert sum(count for _, count in flush["buckets"]) == 4

    def test_single_snapshot_is_unchanged_but_ordered(self):
        rows = metric_rows(golden_registry())
        assert aggregate_rows(rows) == sorted(
            (dict(row) for row in rows),
            key=lambda r: (
                str(r["name"]),
                tuple(
                    sorted(
                        (str(k), str(v))
                        for k, v in (r.get("labels") or {}).items()
                    )
                ),
                str(r["type"]),
            ),
        )

    def test_boundary_mismatch_raises(self):
        left = MetricsRegistry()
        left.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        right = MetricsRegistry()
        right.histogram("h", buckets=(1.0, 4.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket boundaries"):
            aggregate_rows(metric_rows(left) + metric_rows(right))

    def test_does_not_mutate_input_rows(self):
        rows = metric_rows(golden_registry())
        snapshot = json.dumps(rows, sort_keys=True)
        aggregate_rows(rows + metric_rows(golden_registry()))
        assert json.dumps(rows, sort_keys=True) == snapshot


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_spans_nest_and_time_on_the_registry_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        tracer = Tracer(registry)
        with tracer.span("decode.unfold", rsu=7) as outer:
            clock.advance(0.5)
            with tracer.span("decode.estimate") as inner:
                clock.advance(0.25)
                assert inner.parent is outer
                assert inner.depth == 1
        assert outer.duration == 0.75
        assert inner.duration == 0.25
        assert tracer.current is None

    def test_span_durations_land_in_a_histogram(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        tracer = Tracer(registry)
        with tracer.span("decode.unfold"):
            clock.advance(0.001)
        snap = registry.histogram("decode.unfold.seconds").snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == 0.001

    def test_spans_on_other_threads_do_not_nest(self):
        """Each thread has its own span stack: two root spans open at
        once on two threads both have no parent."""
        tracer = Tracer(MetricsRegistry(clock=FakeClock()))
        both_open = threading.Barrier(2)
        spans = {}

        def work(name):
            with tracer.span(name) as span:
                both_open.wait(timeout=10)
                spans[name] = span
                both_open.wait(timeout=10)
            spans[name + ".after"] = tracer.current

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert spans["a"].parent is None
        assert spans["b"].parent is None
        assert spans["a.after"] is None and spans["b.after"] is None
        assert tracer.current is None


# ----------------------------------------------------------------------
# Scrape endpoint
# ----------------------------------------------------------------------
class TestScrape:
    @staticmethod
    async def _get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.decode().partition("\r\n\r\n")
        return int(head.split()[1]), body

    def test_serves_merged_registries(self):
        async def body():
            named = MetricsRegistry()
            named.counter("gateway.responses_received_total").inc(5)
            server = MetricsServer({"gateway": named})
            await server.start()
            try:
                with use_registry() as default:
                    default.counter("wire.frames_total", direction="in").inc()
                    return await self._get(server.port, "/metrics")
            finally:
                await server.stop()

        status, text = asyncio.run(body())
        assert status == 200
        assert "repro_gateway_responses_received_total 5" in text
        assert 'repro_wire_frames_total{direction="in"} 1' in text

    def test_unknown_path_is_404_and_non_get_is_400(self):
        # Lines past the stream reader's 64 KiB limit, in the request
        # line and in a header, are refused like any malformed request.
        pad = b"a" * 70_000
        requests = [
            b"POST /metrics HTTP/1.0\r\n\r\n",
            b"GET /" + pad + b" HTTP/1.0\r\n\r\n",
            b"GET /metrics HTTP/1.0\r\nX-Pad: " + pad + b"\r\n\r\n",
        ]

        async def status(port, request):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.decode().split()[1])

        async def body():
            server = MetricsServer()
            await server.start()
            try:
                missing = await self._get(server.port, "/nope")
                refused = [await status(server.port, r) for r in requests]
                return missing, refused
            finally:
                await server.stop()

        (missing_status, _), refused = asyncio.run(body())
        assert missing_status == 404
        assert refused == [400, 400, 400]


# ----------------------------------------------------------------------
# Instrumented retry loop
# ----------------------------------------------------------------------
class TestRetryMetrics:
    def test_attempts_retries_and_backoff_are_recorded(self):
        registry = MetricsRegistry()
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.1, multiplier=2.0, jitter=0.0
        )
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        calls = []

        async def operation():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        result = asyncio.run(
            retry_async(
                operation,
                policy=policy,
                sleep=fake_sleep,
                registry=registry,
                op="upload",
            )
        )
        assert result == "ok"
        assert registry.value("retry.attempts_total", op="upload") == 3
        assert registry.value("retry.retries_total", op="upload") == 2
        assert registry.value(
            "retry.backoff_seconds_total", op="upload"
        ) == pytest.approx(sum(slept))
        assert slept == [0.1, 0.2]
        assert registry.value("retry.exhausted_total", op="upload") == 0

    def test_exhaustion_is_counted(self):
        registry = MetricsRegistry()
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

        async def operation():
            raise OSError("always")

        async def fake_sleep(delay):
            pass

        with pytest.raises(RetryExhaustedError):
            asyncio.run(
                retry_async(
                    operation,
                    policy=policy,
                    sleep=fake_sleep,
                    registry=registry,
                    op="doomed",
                )
            )
        assert registry.value("retry.exhausted_total", op="doomed") == 1
        assert registry.value("retry.attempts_total", op="doomed") == 2
