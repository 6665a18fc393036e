"""``stop()`` ends every client connection of the gateway, the collector
and the metrics endpoint.

Closing an ``asyncio`` server stops its listener only.  A handler left
serving an idle client would be cancelled when the event loop closes,
and Python 3.11 logs that as ``Exception in callback ...
CancelledError``.  So each service's ``stop()`` closes its open client
streams and waits for their handlers.
"""

import asyncio

import pytest

from repro.obs.scrape import serve_metrics
from repro.service import wire
from repro.service.runtime import DeploymentSpec, start_services


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(total_trips=300, seed=13)


def _handlers():
    """Pending connection-handler tasks, whatever service runs them."""
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done()
        and task.get_coro().__qualname__.endswith(("._serve_client", "._handle"))
    ]


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
            assert await _until(lambda: len(_handlers()) == 1)
            await services[service].stop()
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
        assert await _until(lambda: len(_handlers()) == 2)
        await gateway.stop()
        await collector.stop()
        for _, writer in clients:
            writer.close()

    asyncio.run(body())
    assert errors == []
