"""Client connections of an asyncio stream server, closed on ``stop()``."""

from __future__ import annotations

import asyncio
from typing import Awaitable, Dict

__all__ = ["Connections"]


class Connections:
    """The handler tasks of a server's open client streams.

    ``asyncio.Server.close`` stops the listener only (before Python
    3.13): a handler still serving a client keeps running, and when the
    event loop closes one parked in ``writer.wait_closed()`` is
    cancelled, which Python 3.11 logs as ``Exception in callback ...
    CancelledError``.  A stream server (the gateway, the metrics
    endpoint) runs each handler through :meth:`serve` and calls
    :meth:`close` in its ``stop()``.
    """

    def __init__(self) -> None:
        self._open: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def serve(
        self, writer: asyncio.StreamWriter, session: Awaitable[None]
    ) -> None:
        """Await *session* (the handler's exchange on *writer*'s
        stream) as a tracked connection, then close the stream.  A peer
        that vanishes mid-exchange ends the session quietly."""
        task = asyncio.current_task()
        self._open[task] = writer
        try:
            await session
        except (ConnectionError, OSError):
            pass  # peer vanished mid-exchange (reset, abort, …)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            del self._open[task]

    async def close(self) -> None:
        """Close every open stream (its client reads EOF) and wait for
        each handler to return."""
        for writer in self._open.values():
            writer.close()
        if self._open:
            await asyncio.wait(list(self._open))
