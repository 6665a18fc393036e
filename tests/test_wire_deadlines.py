"""Deadlines and held counters on the live plane's frame path.

``wire.FrameClient`` bounds every request with one deadline per
connection: a silent peer must still end every caller's wait, and the
deadline must not cost a helper task per request.  The gateway records
a frame's responses when the frame arrives, with no batching delay.
The wire frame counters are held between frames and must follow a
swap of the process-default registry.
"""

import asyncio

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


class _Writer:
    """The one method ``write_frame`` calls on its sink."""

    def __init__(self):
        self.sent = bytearray()

    def write(self, data):
        self.sent += data


class _Echo(asyncio.Protocol):
    """Sends every byte back: each frame is its own reply."""

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.transport.write(data)


async def _client(protocol, timeout):
    """A frame client on a fresh *protocol* server, and the server."""
    loop = asyncio.get_running_loop()
    server = await loop.create_server(protocol, "127.0.0.1", 0)
    client = await wire.FrameClient.open(
        "127.0.0.1", server.sockets[0].getsockname()[1], timeout
    )
    return client, server


async def _close(client, server):
    client.close()
    server.close()
    await server.wait_closed()


def _wire_counts(registry, direction):
    return (
        registry.value("wire.frames_total", direction=direction),
        registry.value("wire.bytes_total", direction=direction),
    )


class TestBoundedRead:
    def test_frame_within_deadline(self):
        async def body():
            client, server = await _client(_Echo, 5)
            try:
                return await client.request(wire.EndPeriod(period=3))
            finally:
                await _close(client, server)

        assert asyncio.run(body()) == wire.EndPeriod(period=3)

    def test_silent_stream_times_out(self):
        async def body():
            # A server that accepts and never answers.
            client, server = await _client(asyncio.Protocol, 0.02)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.request(wire.EndPeriod(period=3))
            finally:
                await _close(client, server)

        asyncio.run(body())

    def test_deadline_creates_no_task(self):
        created = []

        async def body():
            loop = asyncio.get_running_loop()
            client, server = await _client(_Echo, 5)

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            before = len(asyncio.all_tasks())
            try:
                for _ in range(100):
                    await client.request(wire.EndPeriod(period=3))
            finally:
                loop.set_task_factory(None)
                await _close(client, server)
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


class TestGatewayIngest:
    def test_a_partial_batch_is_recorded_when_its_frame_arrives(self):
        """Three single responses and then silence: each is in its RSU
        by the time the gateway answers the next frame."""
        authority = CertificateAuthority(seed=5)
        rsus = {7: RoadsideUnit(7, 64, authority.issue(7))}

        async def body():
            gateway = RsuGateway(rsus, collector_port=1)
            await gateway.start(port=0)
            try:
                client = await wire.FrameClient.open(
                    "127.0.0.1", gateway.port, 5.0
                )
                for n in range(3):
                    client.send(
                        wire.ResponseMsg(
                            rsu_id=7, mac=random_mac(n + 1), bit_index=n
                        )
                    )
                # Any answered frame behind them: an unknown RSU's nack.
                await client.request(
                    wire.ResponseMsg(rsu_id=99, mac=random_mac(9), bit_index=0)
                )
                client.close()
                return rsus[7].counter
            finally:
                await gateway.stop()

        assert asyncio.run(body()) == 3


class TestHeldWireCounters:
    def test_counts_follow_a_registry_swap(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = get_registry()

        def traffic(frames):
            parser, writer = wire.FrameParser(), _Writer()
            for message in parser.feed(FRAME * frames):
                wire.write_frame(writer, message)

        try:
            set_registry(first)
            traffic(1)
            set_registry(second)
            traffic(2)
        finally:
            set_registry(previous)
        size = len(FRAME)
        for direction in ("in", "out"):
            assert _wire_counts(first, direction) == (1, size)
            assert _wire_counts(second, direction) == (2, 2 * size)

    def test_counts_survive_a_cleared_registry(self):
        registry = MetricsRegistry()
        previous = get_registry()

        def one_read():
            list(wire.FrameParser().feed(FRAME))

        try:
            set_registry(registry)
            one_read()
            registry.clear()
            one_read()
        finally:
            set_registry(previous)
        assert _wire_counts(registry, "in") == (1, len(FRAME))

    def test_only_the_direction_used_is_registered(self):
        registry = MetricsRegistry()
        previous = get_registry()
        try:
            set_registry(registry)
            wire.write_frame(_Writer(), wire.EndPeriod(period=3))
        finally:
            set_registry(previous)
        names = {(row["name"], row["labels"]["direction"]) for row in registry.snapshot()}
        assert names == {
            ("wire.frames_total", "out"),
            ("wire.bytes_total", "out"),
        }
