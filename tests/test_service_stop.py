"""``stop()`` ends every client connection of the gateway, the collector
and the metrics endpoint.

Closing an ``asyncio`` server stops its listener only.  A handler left
serving an idle client would be cancelled when the event loop closes,
and Python 3.11 logs that as ``Exception in callback ...
CancelledError``.  So the gateway's and the metrics endpoint's
``stop()`` close their open client streams and wait for their handler
tasks, and the collector's closes its protocol sessions and waits for
each connection to be lost.  An unclosed socket would show as a
``ResourceWarning`` once collected.
"""

import asyncio
import gc
import sys
import warnings

import pytest

from repro.obs.scrape import serve_metrics
from repro.service import wire
from repro.service.runtime import DeploymentSpec, start_services


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(total_trips=300, seed=13)


def _handlers():
    """Pending connection-handler tasks of the stream servers (the
    gateway and the metrics endpoint)."""
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done()
        and task.get_coro().__qualname__.endswith(("._serve_client", "._handle"))
    ]


def _open(service):
    """Open client connections of *service*: its collector sessions, or
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
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", collector.port
        )
        try:
            await wire.write_message(writer, wire.SizeQuery(period=0))
            reply = await asyncio.wait_for(wire.read_message(reader), 5.0)
            assert isinstance(reply, (wire.SizeAnnounce, wire.ErrorMsg))
            await collector.stop()
            assert collector.open_sessions == 0
            assert _handlers() == []
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        finally:
            writer.close()
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
            lambda: len(_handlers()) == 1 and collector.open_sessions == 1
        )
        await gateway.stop()
        await collector.stop()
        for _, writer in clients:
            writer.close()

    asyncio.run(body())
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
