"""Span-based tracing on top of the metrics registry.

A span is a named, timed section of work — ``decode.unfold`` for one
RSU, ``gateway.flush`` for one batch.  Spans record into the owning
registry's histogram ``<name>.seconds`` (labelled with the span's
labels), so traces aggregate into the exact same export pipeline as
every other metric instead of needing a second storage/export path.

The tracer's clock comes from its registry, so a fake clock makes
span durations — and therefore histogram snapshots — deterministic::

    tracer = Tracer(registry)
    with tracer.span("decode.unfold", rsu=3) as span:
        ...
    span.duration  # seconds, on registry.clock

Nested spans are tracked per tracer and per thread; :attr:`Span.parent`
links a child to its enclosing span on the same thread, so exported
span logs can be reassembled into a tree, and spans opened on worker
threads (``repro all --executor thread``) never nest under each other.
Within a thread the stack is a plain list: the measurement plane runs
on one asyncio loop, and span bodies never ``await`` (hot paths are
synchronous numpy code), so one stack per thread is correct and cheap.
The one exception is a single outer span around a whole run, such as
each chaos drill's ``chaos.drill``: it stays open across awaits.
That is still correct while it is the only span on the loop that
awaits, because every span another coroutine opens meanwhile opens and
closes within one step of the loop, above it on the stack.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional

from contextlib import contextmanager

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["Span", "Tracer", "trace"]


class Span:
    """One timed section of work, recorded when its block exits."""

    __slots__ = ("name", "labels", "parent", "start", "end")

    def __init__(
        self,
        name: str,
        labels: Dict[str, object],
        parent: Optional["Span"],
        start: float,
    ) -> None:
        self.name = name
        self.labels = labels
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def depth(self) -> int:
        """Nesting depth (0 for a root span)."""
        depth = 0
        span = self.parent
        while span is not None:
            depth += 1
            span = span.parent
        return depth

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Span({self.name!r}, duration={self.duration:.6f})"


class Tracer:
    """Produces :class:`Span` objects bound to a metrics registry.

    Parameters
    ----------
    registry:
        Destination for ``<name>.seconds`` histograms; defaults to the
        process-default registry at each span start, so swapping the
        default registry redirects the module-level :data:`trace`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry
        self._local = threading.local()

    @property
    def registry(self) -> MetricsRegistry:
        """The registry spans record into."""
        return self._registry if self._registry is not None else get_registry()

    @property
    def _stack(self) -> List[Span]:
        """This thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[Span]:
        """Open a span; its duration lands in ``<name>.seconds``."""
        registry = self.registry
        stack = self._stack
        span = Span(name, labels, stack[-1] if stack else None, registry.clock())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = registry.clock()
            stack.pop()
            registry.histogram(f"{name}.seconds", **labels).observe(
                span.duration
            )


#: Module-level tracer bound to the process-default registry.  Library
#: code writes ``with trace.span("encode.passes"): ...`` and tests
#: redirect it wholesale via :func:`repro.obs.use_registry`.
trace = Tracer()
