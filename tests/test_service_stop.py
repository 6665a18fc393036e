"""``stop()`` ends every client connection of the gateway, the collector
and the metrics endpoint.

Closing an ``asyncio`` server stops its listener only.  A handler left
serving an idle client would be cancelled when the event loop closes,
and Python 3.11 logs that as ``Exception in callback ...
CancelledError``.  So the metrics endpoint's ``stop()`` closes its open
client streams and waits for their handler tasks, and the gateway's and
the collector's close their protocol sessions and wait for each
connection to be lost, and for a period close in flight to finish.  An
unclosed socket would show as a ``ResourceWarning`` once collected.
"""

import asyncio
import gc
import sys
import warnings

import pytest

from repro.obs.scrape import serve_metrics
from repro.service import wire
from repro.service.gateway import RsuGateway
from repro.service.retry import RetryPolicy
from repro.service.runtime import DeploymentSpec, start_services


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(total_trips=300, seed=13)


def _handlers():
    """Pending connection-handler tasks of the stream server (the
    metrics endpoint)."""
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done() and task.get_coro().__qualname__.endswith("._handle")
    ]


def _open(service):
    """Open client connections of *service*: its protocol sessions, or
    its pending handler tasks."""
    if hasattr(service, "open_sessions"):
        return service.open_sessions
    return len(_handlers())


async def _until(predicate, *, turns=200):
    for _ in range(turns):
        if predicate():
            return True
        await asyncio.sleep(0.005)
    return predicate()


@pytest.mark.parametrize("service", ["gateway", "collector", "metrics"])
def test_stop_closes_an_idle_client(spec, service):
    async def body():
        gateway, collector = await start_services(
            spec, gateway_port=0, collector_port=0
        )
        metrics = await serve_metrics()
        services = {"gateway": gateway, "collector": collector, "metrics": metrics}
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", services[service].port
        )
        try:
            assert await _until(lambda: _open(services[service]) == 1)
            await services[service].stop()
            assert _open(services[service]) == 0
            assert _handlers() == []
            # The client sees the stream end, not a hang.
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        finally:
            writer.close()
            await gateway.stop()
            await collector.stop()
            await metrics.stop()

    asyncio.run(body())


def test_stop_lets_a_handler_finish_its_frame(spec):
    """A client that asked something before ``stop()`` still gets its
    answer; only then does its stream close."""

    async def body():
        gateway, collector = await start_services(
            spec, gateway_port=0, collector_port=0
        )
        client = await wire.FrameClient.open("127.0.0.1", collector.port, 5.0)
        try:
            reply = await client.request(wire.SizeQuery(period=0))
            assert isinstance(reply, (wire.SizeAnnounce, wire.ErrorMsg))
            await collector.stop()
            assert collector.open_sessions == 0
            assert _handlers() == []
            # The client reads EOF next.
            with pytest.raises(asyncio.IncompleteReadError):
                await client.request(wire.SizeQuery(period=0))
        finally:
            client.close()
            await gateway.stop()
            await collector.stop()

    asyncio.run(body())


def test_loop_close_logs_no_callback_error(spec):
    """With a client still connected at ``stop()``, closing the loop
    reports nothing to its exception handler."""
    errors = []

    async def body():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        gateway, collector = await start_services(
            spec, gateway_port=0, collector_port=0
        )
        clients = [
            await asyncio.open_connection("127.0.0.1", port)
            for port in (gateway.port, collector.port)
        ]
        assert await _until(
            lambda: gateway.open_sessions == 1 and collector.open_sessions == 1
        )
        await gateway.stop()
        await collector.stop()
        for _, writer in clients:
            writer.close()

    asyncio.run(body())
    assert errors == []


def test_stop_waits_for_an_in_flight_period_close(spec):
    """``gateway.stop()`` while an ``EndPeriod``'s upload waits on the
    collector: stop returns only once the close has finished, the
    client still gets its ``EndPeriodAck``, and the loop's exception
    handler records nothing."""
    errors = []

    async def body():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        rsus = spec.build_rsus(spec.scheme.rsu_ids)
        frames = []
        got_all, release, handled = (asyncio.Event() for _ in range(3))

        async def hold_acks(reader, writer):
            """A collector that acks only once released."""
            parser = wire.FrameParser()
            try:
                while len(frames) < len(rsus):
                    data = await reader.read(1 << 16)
                    if not data:
                        break
                    frames.extend(parser.feed(data))
                got_all.set()
                await release.wait()
                for f in frames:
                    wire.write_frame(
                        writer,
                        wire.SnapshotAck(rsu_id=f.rsu_id, period=f.period, seq=f.seq),
                    )
                await writer.drain()
                await reader.read()
            finally:
                writer.close()
                handled.set()

        server = await asyncio.start_server(hold_acks, "127.0.0.1", 0)
        gateway = RsuGateway(
            rsus,
            collector_port=server.sockets[0].getsockname()[1],
            retry_policy=RetryPolicy(max_attempts=1),
        )
        await gateway.start(port=0)
        client = await wire.FrameClient.open("127.0.0.1", gateway.port, 10.0)
        try:
            closed = client.submit(wire.EndPeriod(period=0))
            await asyncio.wait_for(got_all.wait(), 5.0)
            stopping = asyncio.ensure_future(gateway.stop())
            await asyncio.sleep(0.05)
            waited = not stopping.done()
            release.set()
            await asyncio.wait_for(stopping, 10.0)
            reply = await closed
            await asyncio.wait_for(handled.wait(), 5.0)
        finally:
            client.close()
            server.close()
            await server.wait_closed()
        return waited, reply, gateway

    waited, reply, gateway = asyncio.run(body())
    assert waited
    assert reply == wire.EndPeriodAck(period=0, snapshots=len(spec.scheme.rsu_ids))
    assert gateway.snapshots_uploaded == len(spec.scheme.rsu_ids)
    assert gateway.open_sessions == 0
    assert errors == []


def test_collector_stop_leaves_no_socket_to_the_gc(spec):
    """An idle client, a client mid-request (half a frame sent) and a
    client whose answer is unread, at ``stop()``: each reads its answers
    and then EOF, and once the loop is closed and the garbage collected,
    no socket or transport warns that it was left open."""
    unraisable = []
    query = wire.encode_frame(wire.SizeQuery(period=0))

    async def body():
        gateway, collector = await start_services(
            spec, gateway_port=0, collector_port=0
        )
        idle, half, unread = [
            await asyncio.open_connection("127.0.0.1", collector.port)
            for _ in range(3)
        ]
        half[1].write(query[:7])
        unread[1].write(query)
        assert await _until(lambda: collector.open_sessions == 3)
        await asyncio.sleep(0.05)  # the collector has read both writes
        await asyncio.wait_for(collector.stop(), 10.0)
        assert collector.open_sessions == 0
        answers = []
        for reader, writer in (idle, half, unread):
            answers.append(await asyncio.wait_for(reader.read(), 5.0))
            writer.close()
            await writer.wait_closed()
        await gateway.stop()
        return answers

    previous = sys.unraisablehook
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        sys.unraisablehook = unraisable.append
        try:
            answers = asyncio.run(body())
            gc.collect()
        finally:
            sys.unraisablehook = previous
    assert [info.exc_value for info in unraisable] == []
    assert answers[:2] == [b"", b""]
    reply, used = wire.decode_frame(answers[2])
    assert used == len(answers[2])
    assert isinstance(reply, (wire.SizeAnnounce, wire.ErrorMsg))
