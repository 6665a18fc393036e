"""Deadlines and held counters on the live plane's frame path.

``wire.read_message(reader, timeout=…)`` is the one bounded frame
read: a silent peer must still end every caller's wait, and on Python
3.11+ the deadline must not cost a helper task per read.  The wire
frame counters are held between frames and must follow a swap of the
process-default registry.
"""

import asyncio
import sys

import pytest

from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.errors import RetryExhaustedError
from repro.service import wire
from repro.service.gateway import RsuGateway
from repro.service.loadgen import _MAX_STALLS, run_queries
from repro.service.retry import RetryPolicy
from repro.service.runtime import DeploymentSpec
from repro.vcps.ids import random_mac
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit

FRAME = wire.encode_frame(wire.EndPeriod(period=3))


def _reader(frames=1):
    reader = asyncio.StreamReader()
    reader.feed_data(FRAME * frames)
    return reader


class _Writer:
    """The two ``StreamWriter`` methods ``write_message`` calls."""

    def __init__(self):
        self.sent = bytearray()

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass


def _wire_counts(registry, direction):
    return (
        registry.value("wire.frames_total", direction=direction),
        registry.value("wire.bytes_total", direction=direction),
    )


class TestBoundedRead:
    def test_frame_within_deadline(self):
        async def body():
            return await wire.read_message(_reader(), timeout=5)

        assert asyncio.run(body()) == wire.EndPeriod(period=3)

    def test_silent_stream_times_out(self):
        async def body():
            reader = asyncio.StreamReader()  # nothing ever arrives
            with pytest.raises(asyncio.TimeoutError):
                await wire.read_message(reader, timeout=0.02)

        asyncio.run(body())

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="asyncio.timeout is 3.11+"
    )
    def test_deadline_creates_no_task(self):
        created = []

        async def body():
            loop = asyncio.get_running_loop()

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            before = len(asyncio.all_tasks())
            reader = _reader(100)
            for _ in range(100):
                await wire.read_message(reader, timeout=5)
            loop.set_task_factory(None)
            return before, len(asyncio.all_tasks())

        before, after = asyncio.run(body())
        assert created == []
        assert after == before

    def test_silent_collector_exhausts_query_retries(self):
        """A collector that accepts and never answers: every query
        read times out, and ``run_queries`` gives up after
        ``_MAX_STALLS`` reads, one connection each."""
        spec = DeploymentSpec(total_trips=1_500, seed=13)
        accepted = []
        handlers = []

        async def body():
            async def silent(reader, writer):
                accepted.append(writer)
                handlers.append(asyncio.current_task())
                await reader.read()  # until the loadgen hangs up
                writer.close()

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            registry = MetricsRegistry()
            try:
                with pytest.raises(RetryExhaustedError):
                    await run_queries(
                        spec,
                        collector_port=port,
                        ack_timeout=0.02,
                        retry_policy=RetryPolicy(max_attempts=1, jitter=0.0),
                        registry=registry,
                    )
            finally:
                server.close()
                # Let every handler return before the loop closes, or
                # the loop cancels it and Python 3.11 logs the callback.
                for writer in accepted:
                    writer.close()
                await asyncio.gather(*handlers)
                await server.wait_closed()
            return registry

        registry = asyncio.run(body())
        assert len(accepted) == _MAX_STALLS
        assert registry.value("loadgen.query_reconnects_total") == _MAX_STALLS
        assert registry.value("loadgen.queries_total") == 0


class TestIdleGatewayFlush:
    def test_partial_batch_flushes_after_the_interval(self):
        """A batch far below ``batch_size`` and then silence: only the
        idle wait's ``flush_interval`` timeout can record it."""
        authority = CertificateAuthority(seed=5)
        rsus = {7: RoadsideUnit(7, 64, authority.issue(7))}

        async def body():
            gateway = RsuGateway(
                rsus, collector_port=1, batch_size=10_000, flush_interval=0.05
            )
            await gateway.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                for n in range(3):
                    await wire.write_message(
                        writer,
                        wire.ResponseMsg(
                            rsu_id=7, mac=random_mac(n + 1), bit_index=n
                        ),
                    )
                for _ in range(200):  # up to 2 s
                    if rsus[7].counter == 3:
                        break
                    await asyncio.sleep(0.01)
                writer.close()
                await writer.wait_closed()
                return rsus[7].counter
            finally:
                await gateway.stop()

        assert asyncio.run(body()) == 3


class TestHeldWireCounters:
    def test_counts_follow_a_registry_swap(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = get_registry()

        async def traffic(frames):
            reader, writer = _reader(frames), _Writer()
            for _ in range(frames):
                await wire.read_message(reader)
                await wire.write_message(writer, wire.EndPeriod(period=3))

        try:
            set_registry(first)
            asyncio.run(traffic(1))
            set_registry(second)
            asyncio.run(traffic(2))
        finally:
            set_registry(previous)
        size = len(FRAME)
        for direction in ("in", "out"):
            assert _wire_counts(first, direction) == (1, size)
            assert _wire_counts(second, direction) == (2, 2 * size)

    def test_counts_survive_a_cleared_registry(self):
        registry = MetricsRegistry()
        previous = get_registry()

        async def one_read():
            await wire.read_message(_reader())

        try:
            set_registry(registry)
            asyncio.run(one_read())
            registry.clear()
            asyncio.run(one_read())
        finally:
            set_registry(previous)
        assert _wire_counts(registry, "in") == (1, len(FRAME))

    def test_only_the_direction_used_is_registered(self):
        registry = MetricsRegistry()
        previous = get_registry()
        try:
            set_registry(registry)
            asyncio.run(wire.write_message(_Writer(), wire.EndPeriod(period=3)))
        finally:
            set_registry(previous)
        names = {(row["name"], row["labels"]["direction"]) for row in registry.snapshot()}
        assert names == {
            ("wire.frames_total", "out"),
            ("wire.bytes_total", "out"),
        }
