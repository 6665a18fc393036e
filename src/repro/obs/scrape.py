"""Plaintext metrics scrape endpoint for the asyncio service loop.

``repro serve --metrics-port N`` starts one of these next to the
gateway/collector servers.  It is deliberately *not* a web framework:
it answers exactly one GET per connection with the Prometheus text
rendering of a set of registries, enough for ``curl`` or a Prometheus
scraper, and nothing else.  Anything other than ``GET /metrics`` (or
``GET /``) gets a 404; malformed requests get a 400.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry, get_registry
from repro.utils.connections import Connections

__all__ = ["MetricsServer", "serve_metrics"]

_MAX_REQUEST_BYTES = 8192


class MetricsServer:
    """Serves merged registry snapshots as Prometheus text over HTTP.

    Parameters
    ----------
    registries:
        Named registries to merge into one exposition page.  Snapshot
        rows from each are concatenated in sorted name order, after the
        process-default registry (always included under ``default``).
    """

    def __init__(
        self,
        registries: Optional[Dict[str, MetricsRegistry]] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registries = dict(registries or {})
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients = Connections()

    def render(self) -> str:
        """The exposition page: default registry plus named ones."""
        rows = list(get_registry().snapshot())
        for name in sorted(self.registries):
            registry = self.registries[name]
            if registry is not get_registry():
                rows.extend(registry.snapshot())
        return render_prometheus(rows)

    async def start(self) -> "MetricsServer":
        """Bind and start serving; resolves :attr:`port` if it was 0."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop listening, end every open scrape and close the server."""
        if self._server is not None:
            self._server.close()
            await self._clients.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._clients.serve(writer, self._session(reader, writer))

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request = await _readline(reader)
        if request is None or len(request) > _MAX_REQUEST_BYTES:
            await self._respond(writer, 400, "request line too long\n")
            return
        parts = request.decode("latin-1", "replace").split()
        if len(parts) < 2 or parts[0] != "GET":
            await self._respond(writer, 400, "only GET is supported\n")
            return
        # Drain the rest of the header block so the client's write
        # completes cleanly before we close the connection.
        while True:
            line = await _readline(reader)
            if line is None:
                await self._respond(writer, 400, "header line too long\n")
                return
            if line in (b"", b"\r\n", b"\n"):
                break
        if parts[1] in ("/metrics", "/"):
            await self._respond(writer, 200, self.render())
        else:
            await self._respond(writer, 404, "try /metrics\n")

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, body: str
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}[status]
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()


async def _readline(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One line, or None when it overruns the reader's buffer limit
    (``readline`` raises ``ValueError`` then)."""
    try:
        return await reader.readline()
    except ValueError:
        return None


async def serve_metrics(
    registries: Optional[Dict[str, MetricsRegistry]] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> MetricsServer:
    """Start a :class:`MetricsServer`; convenience for service code."""
    return await MetricsServer(registries, host=host, port=port).start()
